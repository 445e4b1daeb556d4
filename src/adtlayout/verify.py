"""Static checks for packing expressions: the size judgment and declaration well-formedness.

Error codes are stable: E001 syntax, E002 unknown annotation, E010 size,
E011 solve-in-declaration, E012 ambiguous field letter, E013 unbound name,
E014 recursive packing application, E015 non-contiguous field bits,
E016 duplicate field placement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

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


@dataclass(frozen=True)
class Diagnostic:
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


@dataclass
class SizeContext:
    """Field-name widths plus the packing declarations in scope."""

    gamma: dict[str, int] = field(default_factory=dict)
    delta: dict[str, PackingDecl] = field(default_factory=dict)

    def with_gamma(self, gamma: dict[str, int]) -> "SizeContext":
        return SizeContext(gamma=dict(gamma), delta=self.delta)


def size_of(expr: PackingExpr, ctx: SizeContext) -> int:
    """Minimal n with expr sized at most n; checking against any larger
    width succeeds, zero-padding at the most-significant end."""
    if isinstance(expr, Empty):
        return 0
    if isinstance(expr, BitLayout):
        return expr.width
    if isinstance(expr, FieldRef):
        if expr.name not in ctx.gamma:
            raise _fail("E013", f"unbound field {expr.name!r}", expr.pos)
        return ctx.gamma[expr.name]
    if isinstance(expr, (Concat, Solve)):
        return sum(size_of(p, ctx) for p in expr.parts)
    if isinstance(expr, Apply):
        decl = ctx.delta.get(expr.name)
        if decl is None:
            raise _fail("E013", f"unbound packing {expr.name!r}", expr.pos)
        if len(expr.args) != len(decl.params):
            raise _fail(
                "E010",
                f"{expr.name} expects {len(decl.params)} arguments, got {len(expr.args)}",
                expr.pos,
            )
        for arg, (pname, pwidth) in zip(expr.args, decl.params):
            n = size_of(arg, ctx)
            if n > pwidth:
                raise _fail(
                    "E010",
                    f"argument for {expr.name}.{pname} has size {n} > parameter width {pwidth}",
                    expr.pos,
                )
        return decl.width
    raise TypeError(f"not a packing expression: {expr!r}")


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
            raise _fail(
                "E015",
                f"field letter {ch!r} occupies non-contiguous bits",
                layout.pos,
            )
        # bits are written MSB first: char index k..j-1 covers lsb offset width-j
        runs[ch] = (width - j, j - k)
        k = j
    return runs


def resolve_layout_fields(
    layout: BitLayout, fields: list[str]
) -> dict[str, str]:
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


def layout_assignments(layout: BitLayout, ctx: SizeContext) -> dict[str, int]:
    """The LSB offset of each field a bit layout places, by field name, once
    every letter resolves to a field and spans exactly its width."""
    resolved = resolve_layout_fields(layout, list(ctx.gamma))
    out: dict[str, int] = {}
    for ch, (offset, length) in _layout_runs(layout).items():
        fname = resolved[ch]
        want = ctx.gamma[fname]
        if length != want:
            raise _fail(
                "E010",
                f"field {fname!r} is {want} bits but layout gives it {length}",
                layout.pos,
            )
        out[fname] = offset
    return out


def check_expr(expr: PackingExpr, ctx: SizeContext, in_decl: Optional[str] = None) -> int:
    """Full verification of one expression: sizes, letter resolution,
    contiguity, and the #solve placement restriction. Returns the size."""
    if isinstance(expr, Solve):
        if in_decl is not None:
            raise _fail(
                "E011",
                f"#solve cannot appear in packing declaration {in_decl!r}",
                expr.pos,
            )
        for p in expr.parts:
            check_expr(p, ctx, in_decl)
    elif isinstance(expr, BitLayout):
        layout_assignments(expr, ctx)
    elif isinstance(expr, Concat):
        for p in expr.parts:
            if isinstance(p, Solve):
                raise _fail("E011", "#solve cannot be nested", p.pos)
            check_expr(p, ctx, in_decl)
    elif isinstance(expr, Apply):
        if in_decl is not None and expr.name == in_decl:
            raise _fail("E014", f"packing {in_decl!r} applies itself", expr.pos)
        for a in expr.args:
            if isinstance(a, Solve):
                raise _fail("E011", "#solve cannot be nested", a.pos)
            check_expr(a, ctx, in_decl)
    size = size_of(expr, ctx)
    if size > MAX_SCALAR_BITS:
        raise _fail(
            "E010",
            f"expression size {size} exceeds the largest scalar ({MAX_SCALAR_BITS} bits)",
            getattr(expr, "pos", (0, 0)),
        )
    return size


def check_packing_decl(decl: PackingDecl, delta: dict[str, PackingDecl]) -> list[Diagnostic]:
    """Well-formedness of one declaration against the declarations in scope.

    Returns an empty list when the declaration verifies.
    """
    diags: list[Diagnostic] = []
    ctx = SizeContext(gamma={n: w for n, w in decl.params}, delta=delta)
    if decl.width > MAX_SCALAR_BITS:
        diags.append(
            Diagnostic("E010", f"declared width {decl.width} exceeds {MAX_SCALAR_BITS}", decl.pos)
        )
    for pname, pwidth in decl.params:
        if not 1 <= pwidth <= MAX_SCALAR_BITS:
            diags.append(
                Diagnostic("E010", f"parameter {pname!r} width {pwidth} out of range", decl.pos)
            )
    if diags:
        return diags
    try:
        size = check_expr(decl.body, ctx, in_decl=decl.name)
    except VerifyError as e:
        return [e.diag]
    if size > decl.width:
        diags.append(
            Diagnostic(
                "E010",
                f"body of {decl.name!r} has size {size} > declared width {decl.width}",
                decl.pos,
            )
        )
    return diags


def check_program_decls(decls: list[PackingDecl]) -> tuple[dict[str, PackingDecl], list[Diagnostic]]:
    """Check declarations in order, accumulating the context; forward
    references are unbound."""
    delta: dict[str, PackingDecl] = {}
    diags: list[Diagnostic] = []
    for d in decls:
        if d.name in delta:
            diags.append(Diagnostic("E013", f"duplicate packing name {d.name!r}", d.pos))
            continue
        ds = check_packing_decl(d, delta)
        diags.extend(ds)
        if not ds:
            delta[d.name] = d
    return delta, diags
