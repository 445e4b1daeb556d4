"""Flattening of packing expressions into (field-offset map, bit pattern)
pairs, and every check that makes a pattern defined. An expression's size
is its pattern's width, so `verify` sizes a declaration's body by flattening.

A pattern is a `distinguish.BitPattern` of masks counted from the LSB:
constant bits with their values, bits assigned to a field, and free bits
the solver may choose. `#concat` joins its parts' masks, the first part
highest, and an argument's masks replace its parameter's bit run. Field
offsets count from the least-significant bit of the final pattern. Patterns
print MSB first over '0', '1', 'x' (field) and 'u' (free).

Error codes are stable: E001 syntax, E002 unknown annotation, E010 size,
E011 solve-in-declaration, E012 ambiguous field letter, E013 unbound name,
E014 recursive packing application, E015 non-contiguous field bits,
E016 duplicate field placement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

from .distinguish import BitPattern, join_patterns, parse_pattern
from .syntax import (
    Apply,
    BitLayout,
    Concat,
    Empty,
    FieldRef,
    PackingDecl,
    PackingExpr,
    Solve,
    is_field_bit,
)

MAX_SCALAR_BITS = 64


class Diagnostic(NamedTuple):
    code: str
    message: str
    pos: tuple[int, int] = (0, 0)

    def __str__(self) -> str:
        return f"{self.code} at {self.pos[0]}:{self.pos[1]}: {self.message}"


class VerifyError(Exception):
    def __init__(self, diag: Diagnostic):
        super().__init__(str(diag))
        self.diag = diag


def _fail(code: str, message: str, pos: tuple[int, int]) -> "VerifyError":
    return VerifyError(Diagnostic(code, message, pos))


class FlattenedPacking(NamedTuple):
    assignments: dict[str, int]  # field name -> offset of its LSB
    pattern: BitPattern

    @property
    def width(self) -> int:
        return self.pattern.width


class SolveRequest(NamedTuple):
    """Placement left to the solver: the listed items must all land in one
    scalar, positions free."""

    items: tuple[FlattenedPacking, ...]

    @property
    def width(self) -> int:
        """The least width of a scalar that holds every item."""
        return sum(i.width for i in self.items)

    def field_names(self) -> list[str]:
        out: list[str] = []
        for i in self.items:
            out.extend(i.assignments)
        return out


AnnotationEntry = Union[FlattenedPacking, SolveRequest]


# a dataclass: each context gets its own dicts (`default_factory`), which
# the flattening of declarations fills
@dataclass
class SizeContext:
    """Field-name widths plus the packing declarations in scope, with the
    flattened body of each declaration applied so far. A body depends only
    on its declaration, so contexts that share `delta` share `bodies`.
    For a case's annotation, `sources` maps each source field to its
    printed type: bit letters resolve against these names, and a source
    field that `gamma` lacks spreads over several scalars, which no packing
    can name. For a declaration's body it is empty, and letters resolve
    against `gamma`."""

    gamma: dict[str, int] = field(default_factory=dict)
    delta: dict[str, PackingDecl] = field(default_factory=dict)
    bodies: dict[str, FlattenedPacking] = field(default_factory=dict)
    sources: dict[str, str] = field(default_factory=dict)

    def with_gamma(
        self, gamma: dict[str, int], sources: Optional[dict[str, str]] = None
    ) -> "SizeContext":
        return SizeContext(dict(gamma), self.delta, self.bodies, dict(sources or {}))

    def check_nameable(self, name: str, pos: tuple[int, int]) -> None:
        """E013 when source field `name` spreads over several scalars."""
        if name in self.sources and name not in self.gamma:
            raise _fail("E013", f"field {name!r} of unboxed type {self.sources[name]} "
                        "spreads over scalars that a #packing cannot name", pos)


def _layout_runs(layout: BitLayout) -> dict[str, tuple[int, int]]:
    """Map each field letter in a bit layout to its (lsb_offset, run_length).

    Offsets count from the least-significant bit. Raises on a letter
    appearing in two separate runs: a field must occupy contiguous bits.
    """
    runs: dict[str, tuple[int, int]] = {}
    width = layout.width
    k = 0
    while k < width:
        ch = layout.bits[k]
        if not is_field_bit(ch):
            k += 1
            continue
        j = k
        while j < width and layout.bits[j] == ch:
            j += 1
        if ch in runs:
            raise _fail("E015", f"field letter {ch!r} occupies non-contiguous bits", layout.pos)
        # bits are written MSB first: char index k..j-1 covers lsb offset width-j
        runs[ch] = (width - j, j - k)
        k = j
    return runs


def resolve_layout_fields(layout: BitLayout, fields: list[str]) -> dict[str, str]:
    """Resolve each field letter used in a layout to the unique field whose
    name starts with that letter."""
    out: dict[str, str] = {}
    for ch in sorted(_layout_runs(layout)):
        matches = [f for f in fields if f.startswith(ch)]
        if not matches:
            raise _fail("E013", f"bit letter {ch!r} matches no field", layout.pos)
        if len(matches) > 1:
            raise _fail(
                "E012",
                f"bit letter {ch!r} is ambiguous: " + ", ".join(sorted(matches)),
                layout.pos,
            )
        out[ch] = matches[0]
    return out


def _merge_assignments(
    into: dict[str, int], more: dict[str, int], shift: int, pos: tuple[int, int]
) -> None:
    for name, off in more.items():
        if name in into:
            raise _fail("E016", f"field {name!r} placed twice", pos)
        into[name] = off + shift


def flatten_expr(expr: PackingExpr, ctx: SizeContext) -> FlattenedPacking:
    if isinstance(expr, Empty):
        return FlattenedPacking({}, BitPattern(0))
    if isinstance(expr, FieldRef):
        ctx.check_nameable(expr.name, expr.pos)
        if expr.name not in ctx.gamma:
            raise _fail("E013", f"unbound field {expr.name!r}", expr.pos)
        w = ctx.gamma[expr.name]
        return FlattenedPacking({expr.name: 0}, BitPattern(w, field=(1 << w) - 1))
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
        return FlattenedPacking(assignments, pattern)
    if isinstance(expr, Apply):
        return _flatten_apply(expr, ctx)
    if isinstance(expr, Solve):
        raise _fail("E011", "#solve cannot be nested", expr.pos)
    raise TypeError(f"not a packing expression: {expr!r}")


def _flatten_layout(layout: BitLayout, ctx: SizeContext) -> FlattenedPacking:
    """A bit layout's pattern, once every field letter resolves to a source
    field that is not spread over scalars and spans exactly its width."""
    resolved = resolve_layout_fields(layout, list(ctx.sources or ctx.gamma))
    assignments: dict[str, int] = {}
    for ch, (offset, length) in _layout_runs(layout).items():
        fname = resolved[ch]
        ctx.check_nameable(fname, layout.pos)
        want = ctx.gamma[fname]
        if length != want:
            raise _fail(
                "E010",
                f"field {fname!r} is {want} bits but layout gives it {length}",
                layout.pos,
            )
        assignments[fname] = offset
    text = "".join(ch if ch in "01" else "u" if ch == "?" else "x" for ch in layout.bits)
    return FlattenedPacking(assignments, parse_pattern(text))


def _flatten_apply(expr: Apply, ctx: SizeContext) -> FlattenedPacking:
    args = [flatten_expr(a, ctx) for a in expr.args]
    decl = ctx.delta.get(expr.name)
    if decl is None:
        raise _fail("E013", f"unbound packing {expr.name!r}", expr.pos)
    if len(args) != len(decl.params):
        raise _fail(
            "E010",
            f"{expr.name} expects {len(decl.params)} arguments, got {len(args)}",
            expr.pos,
        )
    for flat, (pname, pwidth) in zip(args, decl.params):
        if flat.width > pwidth:
            raise _fail(
                "E010",
                f"argument for {expr.name}.{pname} has size {flat.width} > parameter width {pwidth}",
                expr.pos,
            )
    body = ctx.bodies.get(expr.name)
    if body is None:
        body = flatten_expr(decl.body, ctx.with_gamma(dict(decl.params)))
        ctx.bodies[expr.name] = body
    # a body narrower than the declared width is zero-padded at the MS end
    pattern = _zero_pad(body.pattern, decl.width)
    assignments: dict[str, int] = {}
    for flat, (pname, pwidth) in zip(args, decl.params):
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
        fp = _zero_pad(flat.pattern, pwidth)
        pattern = BitPattern(
            pattern.width,
            (pattern.const & ~run) | (fp.const << slot),
            (pattern.ones & ~run) | (fp.ones << slot),
            (pattern.field & ~run) | (fp.field << slot),
        )
    return FlattenedPacking(assignments, pattern)


def _zero_pad(p: BitPattern, width: int) -> BitPattern:
    """`p` widened to `width` with constant-0 bits above it."""
    if p.width >= width:
        return p
    return join_patterns([p, BitPattern(width - p.width, const=(1 << (width - p.width)) - 1)])


def flatten_annotation(
    exprs: list[PackingExpr] | tuple[PackingExpr, ...], ctx: SizeContext
) -> list[AnnotationEntry]:
    """Flatten a #packing annotation, one entry per intended scalar.

    Top-level #solve entries become SolveRequests, whose fit the solver
    judges; every other entry is a pattern no wider than the largest
    scalar. A field may appear in at most one entry across the whole
    annotation.
    """
    out: list[AnnotationEntry] = []
    seen: dict[str, int] = {}
    for e in exprs:
        if isinstance(e, Solve):
            entry: AnnotationEntry = SolveRequest(tuple(flatten_expr(p, ctx) for p in e.parts))
            placed = entry.field_names()
        else:
            entry = flatten_expr(e, ctx)
            if entry.width > MAX_SCALAR_BITS:
                raise _fail(
                    "E010",
                    f"expression size {entry.width} exceeds the largest scalar ({MAX_SCALAR_BITS} bits)",
                    e.pos,
                )
            placed = list(entry.assignments)
        for name in placed:
            if name in seen:
                raise _fail("E016", f"field {name!r} placed twice across the annotation", e.pos)
            seen[name] = 1
        out.append(entry)
    return out
