"""Flattening of packing expressions into (field-offset map, bit pattern) pairs.

A pattern is a `distinguish.BitPattern` of masks counted from the LSB:
constant bits with their values, bits assigned to a field, and free bits
the solver may choose. `#concat` joins its parts' masks, the first part
highest, and an argument's masks replace its parameter's bit run. Field
offsets count from the least-significant bit of the final pattern. Patterns
print MSB first over '0', '1', 'x' (field) and 'u' (free).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from .distinguish import BitPattern, join_patterns, parse_pattern, print_pattern
from .syntax import (
    Apply,
    BitLayout,
    Concat,
    Empty,
    FieldRef,
    PackingExpr,
    Solve,
)
from .verify import SizeContext, _fail, layout_assignments


@dataclass(frozen=True)
class FlattenedPacking:
    assignments: dict[str, int]  # field name -> offset of its LSB
    pattern: BitPattern
    pos: tuple[int, int] = field(default=(0, 0), compare=False)

    @property
    def width(self) -> int:
        return self.pattern.width

    def pattern_str(self) -> str:
        return print_pattern(self.pattern)

    def to_json(self) -> dict:
        return {
            "width": self.width,
            "pattern": self.pattern_str(),
            "fields": {k: self.assignments[k] for k in sorted(self.assignments)},
        }


@dataclass(frozen=True)
class SolveRequest:
    """Placement left to the solver: the listed items must all land in one
    scalar, positions free."""

    items: tuple[FlattenedPacking, ...]
    pos: tuple[int, int] = field(default=(0, 0), compare=False)

    @property
    def min_width(self) -> int:
        return sum(i.width for i in self.items)

    def field_names(self) -> list[str]:
        out: list[str] = []
        for i in self.items:
            out.extend(i.assignments)
        return out


AnnotationEntry = Union[FlattenedPacking, SolveRequest]


def _merge_assignments(
    into: dict[str, int], more: dict[str, int], shift: int, pos: tuple[int, int]
) -> None:
    for name, off in more.items():
        if name in into:
            raise _fail("E016", f"field {name!r} placed twice", pos)
        into[name] = off + shift


def flatten_expr(expr: PackingExpr, ctx: SizeContext) -> FlattenedPacking:
    if isinstance(expr, Empty):
        return FlattenedPacking({}, BitPattern(0), pos=expr.pos)
    if isinstance(expr, FieldRef):
        if expr.name not in ctx.gamma:
            raise _fail("E013", f"unbound field {expr.name!r}", expr.pos)
        w = ctx.gamma[expr.name]
        return FlattenedPacking({expr.name: 0}, BitPattern(w, field=(1 << w) - 1), pos=expr.pos)
    if isinstance(expr, BitLayout):
        return _flatten_layout(expr, ctx)
    if isinstance(expr, Concat):
        parts = [flatten_expr(p, ctx) for p in expr.parts]
        assignments: dict[str, int] = {}
        shift = sum(p.width for p in parts)
        for p in parts:
            shift -= p.width
            _merge_assignments(assignments, p.assignments, shift, expr.pos)
        pattern = join_patterns([p.pattern for p in reversed(parts)])
        return FlattenedPacking(assignments, pattern, pos=expr.pos)
    if isinstance(expr, Apply):
        return _flatten_apply(expr, ctx)
    if isinstance(expr, Solve):
        raise _fail("E011", "#solve reached the flattener; it must be handled per annotation", expr.pos)
    raise TypeError(f"not a packing expression: {expr!r}")


def _flatten_layout(layout: BitLayout, ctx: SizeContext) -> FlattenedPacking:
    text = "".join(ch if ch in "01" else "u" if ch == "?" else "x" for ch in layout.bits)
    return FlattenedPacking(layout_assignments(layout, ctx), parse_pattern(text), pos=layout.pos)


def _flatten_apply(expr: Apply, ctx: SizeContext) -> FlattenedPacking:
    decl = ctx.delta.get(expr.name)
    if decl is None:
        raise _fail("E013", f"unbound packing {expr.name!r}", expr.pos)
    if len(expr.args) != len(decl.params):
        raise _fail(
            "E010",
            f"{expr.name} expects {len(decl.params)} arguments, got {len(expr.args)}",
            expr.pos,
        )
    body_ctx = ctx.with_gamma({n: w for n, w in decl.params})
    body = flatten_expr(decl.body, body_ctx)
    # a body narrower than the declared width is zero-padded at the MS end
    pattern = _zero_pad(body.pattern, decl.width)
    assignments: dict[str, int] = {}
    for arg, (pname, pwidth) in zip(expr.args, decl.params):
        flat = _pad_to(flatten_expr(arg, ctx), pwidth, expr.pos)
        if pname not in body.assignments:
            if flat.assignments:
                raise _fail(
                    "E013",
                    f"parameter {pname!r} of {expr.name} is unused; cannot place "
                    + ", ".join(sorted(flat.assignments)),
                    expr.pos,
                )
            continue
        slot = body.assignments[pname]
        _merge_assignments(assignments, flat.assignments, slot, expr.pos)
        # splice the argument's pattern over the parameter's bit run
        run = ((1 << pwidth) - 1) << slot
        fp = flat.pattern
        pattern = BitPattern(
            pattern.width,
            (pattern.const & ~run) | (fp.const << slot),
            (pattern.ones & ~run) | (fp.ones << slot),
            (pattern.field & ~run) | (fp.field << slot),
        )
    return FlattenedPacking(assignments, pattern, pos=expr.pos)


def _zero_pad(p: BitPattern, width: int) -> BitPattern:
    """`p` widened to `width` with constant-0 bits above it."""
    if p.width >= width:
        return p
    return join_patterns([p, BitPattern(width - p.width, const=(1 << (width - p.width)) - 1)])


def _pad_to(flat: FlattenedPacking, width: int, pos: tuple[int, int]) -> FlattenedPacking:
    if flat.width > width:
        raise _fail("E010", f"pattern of size {flat.width} exceeds slot of {width}", pos)
    if flat.width == width:
        return flat
    return FlattenedPacking(dict(flat.assignments), _zero_pad(flat.pattern, width), pos=pos)


def flatten_annotation(
    exprs: list[PackingExpr] | tuple[PackingExpr, ...], ctx: SizeContext
) -> list[AnnotationEntry]:
    """Flatten a #packing annotation, one entry per intended scalar.

    Top-level #solve entries become SolveRequests; a field may appear in
    at most one entry across the whole annotation.
    """
    out: list[AnnotationEntry] = []
    seen: dict[str, int] = {}
    for e in exprs:
        if isinstance(e, Solve):
            items = tuple(flatten_expr(p, ctx) for p in e.parts)
            entry: AnnotationEntry = SolveRequest(items, pos=e.pos)
            placed = entry.field_names()
        else:
            flat = flatten_expr(e, ctx)
            entry = flat
            placed = list(flat.assignments)
        for name in placed:
            if name in seen:
                raise _fail("E016", f"field {name!r} placed twice across the annotation", getattr(e, "pos", (0, 0)))
            seen[name] = 1
        out.append(entry)
    return out
