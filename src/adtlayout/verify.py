"""Declaration well-formedness.

A declaration verifies when its parameter widths are in range and its body
flattens (see `flatten`) to a pattern no wider than its declared width,
with no #solve at the top and no application of itself. The size judgment
is the flattened width, so a declaration that verifies always flattens.
"""

from __future__ import annotations

from typing import Optional

from .flatten import MAX_SCALAR_BITS, Diagnostic, SizeContext, VerifyError, _fail, flatten_annotation
from .syntax import Apply, Concat, PackingDecl, PackingExpr, Solve


def _applications(expr: PackingExpr):
    """Every packing application in `expr`, outermost first."""
    if isinstance(expr, Apply):
        yield expr
        for arg in expr.args:
            yield from _applications(arg)
    elif isinstance(expr, (Concat, Solve)):
        for part in expr.parts:
            yield from _applications(part)


def check_expr(expr: PackingExpr, ctx: SizeContext, in_decl: Optional[str] = None) -> int:
    """Full verification of one expression, returning its size: the width
    of its flattened pattern, or a #solve's least width. Flattening makes
    every check but the two that only a declaration `in_decl` needs: no
    #solve at its top, and no application of itself."""
    if in_decl is not None:
        if isinstance(expr, Solve):
            raise _fail(
                "E011",
                f"#solve cannot appear in packing declaration {in_decl!r}",
                expr.pos,
            )
        for a in _applications(expr):
            if a.name == in_decl:
                raise _fail("E014", f"packing {in_decl!r} applies itself", a.pos)
    (entry,) = flatten_annotation([expr], ctx)
    return entry.width


def check_packing_decl(decl: PackingDecl, delta: dict[str, PackingDecl]) -> list[Diagnostic]:
    """Well-formedness of one declaration against the declarations in
    scope: an empty list when it verifies. Nothing in the package calls it
    (`check_program_decls` checks a program's declarations in one scope);
    it is kept as exported API, for tests and callers that check one
    declaration."""
    return _check_decl(decl, SizeContext(delta=delta))


def _check_decl(decl: PackingDecl, scope: SizeContext) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
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
        size = check_expr(decl.body, scope.with_gamma(dict(decl.params)), in_decl=decl.name)
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


def check_program_decls(decls: list[PackingDecl]) -> tuple[SizeContext, list[Diagnostic]]:
    """Check declarations in order into one scope, whose `delta` holds the
    declarations that verify; forward references are unbound. The scope
    keeps each applied body, so a body is flattened once however often it
    is applied, here and in the annotations that use the scope."""
    scope = SizeContext()
    diags: list[Diagnostic] = []
    for d in decls:
        if d.name in scope.delta:
            diags.append(Diagnostic("E013", f"duplicate packing name {d.name!r}", d.pos))
            continue
        ds = _check_decl(d, scope)
        diags.extend(ds)
        if not ds:
            scope.delta[d.name] = d
    return scope, diags
