"""Encoding and decoding of variant values under a solved layout.

Scalar values are plain integers. References are modeled as word-sized
addresses aligned to the target's free low bits; null is 0. Each field and
explicit tag is read and written by its layout's read plans. Field values
round-trip exactly: decode_field(encode_variant(...)) is the identity.
"""

from __future__ import annotations

from typing import Mapping

from . import distinguish
from .solver import ExplicitTag, LayoutSolution, Placement, SingleVariant, TreeTag
from .targets import REF_PLAIN, REF_TAGGED_WORD


class EncodeError(ValueError):
    pass


def _field_bits(pl: Placement, value: int) -> int:
    """`value`, refused unless the field placed at `pl` can hold it."""
    f, offset, width = pl.field, pl.offset, pl.width
    mask = (1 << width) - 1
    if f.ref_mode == REF_PLAIN:
        if value < 0 or value & ((1 << offset) - 1):
            raise EncodeError(f"reference {f.name} must be a {1 << offset}-aligned address")
        if (value >> offset) > mask:
            raise EncodeError(f"reference {f.name} out of range")
    elif f.ref_mode == REF_TAGGED_WORD:
        if not 0 <= value <= mask:
            raise EncodeError(f"packed word {f.name} out of range")
    elif f.signed:
        lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
        if not lo <= value <= hi:
            raise EncodeError(f"{f.name}={value} out of range for i{width}")
    elif not 0 <= value <= mask:
        raise EncodeError(f"{f.name}={value} out of range for {width} bits")
    return value


def encode_variant(
    layout: LayoutSolution, variant_index: int, field_values: Mapping[str, int]
) -> list[int]:
    """Assemble the scalar words for one variant: pattern constants, the
    chosen bits, the tag, and each field written by its read plan."""
    scalars = [p.ones for p in layout.patterns[variant_index]]
    for f in layout.adt.variants[variant_index].fields:
        if f.name not in field_values:
            raise EncodeError(f"missing value for field {f.name}")
        value = _field_bits(layout.placements[(variant_index, f.name)], field_values[f.name])
        plan = layout.plans[(variant_index, f.name)]
        scalars[plan.slot] |= plan.write(value)
    return scalars


def decode_field(
    layout: LayoutSolution, variant_index: int, field_name: str, scalars: list[int]
) -> int:
    """Extract one field of a value of case `variant_index` by its read plan."""
    plan = layout.plans[(variant_index, field_name)]
    return plan.read(scalars[plan.slot])


def variant_of(layout: LayoutSolution, scalars: list[int]) -> int:
    """Classify encoded scalars back to their variant index."""
    scheme = layout.tag_scheme
    if isinstance(scheme, SingleVariant):
        return 0
    if isinstance(scheme, ExplicitTag):
        return layout.tag_plan.read(scalars[scheme.slot])
    if isinstance(scheme, TreeTag):
        return distinguish.classify(scheme.tree, scalars)
    raise TypeError(f"unknown tag scheme {scheme!r}")
