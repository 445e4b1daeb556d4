"""Encoding and decoding of variant values under a solved layout.

Scalar values are plain integers. References are modeled as word-sized
addresses aligned to the target's free low bits; null is 0. Field values
round-trip exactly: decode_field(encode_variant(...)) is the identity.
"""

from __future__ import annotations

from typing import Mapping

from . import distinguish
from .solver import ExplicitTag, LayoutSolution, SingleVariant, TreeTag
from .targets import REF_PLAIN, REF_TAGGED_WORD, FieldSlot


class EncodeError(ValueError):
    pass


def _field_bits(f: FieldSlot, value: int, offset: int, width: int) -> int:
    mask = (1 << width) - 1
    if f.ref_mode == REF_PLAIN:
        if value < 0 or value & ((1 << offset) - 1):
            raise EncodeError(f"reference {f.name} must be a {1 << offset}-aligned address")
        if (value >> offset) > mask:
            raise EncodeError(f"reference {f.name} out of range")
        return value >> offset  # the shift in encode restores the address
    if f.ref_mode == REF_TAGGED_WORD:
        if not 0 <= value <= mask:
            raise EncodeError(f"packed word {f.name} out of range")
        return value
    if f.signed:
        lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
        if not lo <= value <= hi:
            raise EncodeError(f"{f.name}={value} out of range for i{width}")
        return value & mask
    if not 0 <= value <= mask:
        raise EncodeError(f"{f.name}={value} out of range for {width} bits")
    return value


def encode_variant(
    layout: LayoutSolution, variant_index: int, field_values: Mapping[str, int]
) -> list[int]:
    """Assemble the scalar words for one variant: pattern constants, the
    chosen bits, field bits at their intervals, and the tag."""
    scalars = [p.ones for p in layout.patterns[variant_index]]
    for f in layout.adt.variants[variant_index].fields:
        slot, offset, width, _ = layout.placements[(variant_index, f.name)]
        if f.name not in field_values:
            raise EncodeError(f"missing value for field {f.name}")
        bits = _field_bits(f, field_values[f.name], offset, width)
        scalars[slot] |= (bits & ((1 << width) - 1)) << offset
    return scalars


def decode_field(
    layout: LayoutSolution, variant_index: int, field_name: str, scalars: list[int]
) -> int:
    """Extract one field: shift, mask, then sign-extend signed fields."""
    slot, offset, width, f = layout.placements[(variant_index, field_name)]
    raw = (scalars[slot] >> offset) & ((1 << width) - 1)
    if f.ref_mode == REF_PLAIN:
        return raw << offset  # restore the aligned address
    if f.ref_mode == REF_TAGGED_WORD:
        return raw
    if f.signed and raw & (1 << (width - 1)):
        raw -= 1 << width
    return raw


def variant_of(layout: LayoutSolution, scalars: list[int]) -> int:
    """Classify encoded scalars back to their variant index."""
    scheme = layout.tag_scheme
    if isinstance(scheme, SingleVariant):
        return 0
    if isinstance(scheme, ExplicitTag):
        return (scalars[scheme.slot] >> scheme.offset) & ((1 << scheme.width) - 1)
    if isinstance(scheme, TreeTag):
        return distinguish.classify(scheme.tree, scalars)
    raise TypeError(f"unknown tag scheme {scheme!r}")
