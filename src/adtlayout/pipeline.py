"""End-to-end ADT processing: discover instantiations, detect recursion,
and classify/solve each one in dependency order so unboxed ADTs can embed
into the fields that mention them."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .flatten import SizeContext, VerifyError
from .solver import LayoutSolution, solve_layout
from .syntax import MAX_NESTING, AdtDecl, Decl, NamedType, PackingDecl, TupleType, TypeExpr, print_type
from .targets import (
    AdtEnv,
    MonoAdt,
    MonoError,
    ResolvedAdt,
    Target,
    UnboxOptions,
    instantiation_key,
    monomorphize_adt,
    substitute,
    unboxing_eligibility,
)
from .verify import check_program_decls

# how much deeper than an earlier instantiation of the same type, on the
# chain that led to it, an instantiation's type arguments may grow
_MAX_TYPE_GROWTH = 8
# how many parts all the type arguments built from type parameters may hold
# together; with the written nesting limit, this bounds the work of finding
# instantiations by a constant times the input, where growth alone would
# allow exponential blow-ups such as a chain of types each doubling its
# argument
_MAX_BUILT_PARTS = 1 << 16


@dataclass
class ProgramLayouts:
    order: list[str]  # instantiation keys in processing order
    resolved: dict[str, ResolvedAdt]

    def layouts(self) -> dict[str, LayoutSolution]:
        return {
            k: r.layout
            for k, r in self.resolved.items()
            if r.layout is not None
        }

    def monos(self) -> dict[str, MonoAdt]:
        return {k: r.mono for k, r in self.resolved.items()}


def _measure(t: TypeExpr, params: dict[str, tuple[int, int]]) -> tuple[int, int, bool]:
    """The depth and the part count of `t` once each type parameter named
    in `params` is replaced by a type of the depth and part count given
    there, and whether `t` names such a parameter."""
    if isinstance(t, NamedType) and not t.args and t.name in params:
        return (*params[t.name], True)
    kids = t.elems if isinstance(t, TupleType) else t.args if isinstance(t, NamedType) else ()
    inner = [_measure(k, params) for k in kids]
    depth = 1 + max((m[0] for m in inner), default=0)
    return depth, 1 + sum(m[1] for m in inner), any(m[2] for m in inner)


Chain = dict[str, int]  # type name -> least depth of its type arguments


def _dependencies(
    decl: AdtDecl,
    args: tuple[TypeExpr, ...],
    chain: Chain,
    decls: dict[str, AdtDecl],
    parts_left: list[int],
) -> list[tuple[str, tuple[TypeExpr, ...], Chain]]:
    """The instantiations that `decl` at `args` mentions in its field types,
    each with the chain that leads to it. `chain` holds the instantiations
    that led to this one through field types naming a type parameter; a
    mention naming none, such as `D<(u8, u8)>` inside `D<T>`, starts a new
    chain. Polymorphic recursion makes type arguments grow along a chain
    without end, so a mention whose arguments grow more than
    `_MAX_TYPE_GROWTH` levels past an instantiation of the same type on its
    chain is refused. So is one whose arguments nest deeper than written
    types may, or would spend more than `parts_left[0]` parts; both are
    measured before the types are built."""
    bindings = dict(zip(decl.type_params, args))
    params = {p: _measure(a, {})[:2] for p, a in bindings.items()}
    depth = max((d for d, _ in params.values()), default=0)
    led = {**chain, decl.name: min(chain.get(decl.name, depth), depth)}

    def mention(t: NamedType) -> tuple[str, tuple[TypeExpr, ...], Chain]:
        measures = [_measure(a, params) for a in t.args]
        if not any(m[2] for m in measures):
            return t.name, t.args, {}
        deeper = max(m[0] for m in measures)
        if deeper - led.get(t.name, deeper) > _MAX_TYPE_GROWTH:
            raise MonoError(
                f"instantiating {t.name} nests types deeper than {_MAX_TYPE_GROWTH} "
                "levels; is it polymorphically recursive?"
            )
        parts_left[0] -= sum(m[1] for m in measures)
        if deeper > MAX_NESTING or parts_left[0] < 0:
            # a type already on its chain grows its own arguments
            hint = "; is it polymorphically recursive?" if t.name in led else ""
            raise MonoError(
                f"instantiating {t.name} builds type arguments deeper than "
                f"{MAX_NESTING} levels or of more than {_MAX_BUILT_PARTS} parts in all{hint}"
            )
        return t.name, tuple(substitute(a, bindings) for a in t.args), led

    deps = []

    def visit(t: TypeExpr, written: bool) -> None:
        """Visit a field type as written, or with `written` false, the type
        argument that a type parameter in it stands for."""
        if isinstance(t, TupleType):
            for e in t.elems:
                visit(e, written)
        elif isinstance(t, NamedType) and written and not t.args and t.name in bindings:
            visit(bindings[t.name], False)
        elif isinstance(t, NamedType):
            if t.name in decls:
                deps.append(mention(t) if written else (t.name, t.args, led))
            for a in t.args:
                visit(a, written)

    for v in decl.variants:
        for _, ftype in v.fields:
            visit(ftype, True)
    return deps


def _strongly_connected(graph: dict[str, list[str]]) -> list[list[str]]:
    """Tarjan's algorithm, iterative; components in reverse topological
    order (dependencies before dependents)."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[list[str]] = []
    counter = [0]

    for root in graph:
        if root in index:
            continue
        work = [(root, iter(graph[root]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for child in it:
                if child not in index:
                    index[child] = low[child] = counter[0]
                    counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(graph[child])))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    m = stack.pop()
                    on_stack.discard(m)
                    comp.append(m)
                    if m == node:
                        break
                components.append(comp)
    return components


def process_adts(
    decls: list[Decl],
    target: Target,
    requests: Optional[list[NamedType]] = None,
    options: UnboxOptions = UnboxOptions(),
    packings: Optional[SizeContext] = None,
) -> ProgramLayouts:
    """Resolve every requested instantiation (plus everything reachable
    from it) into a disposition and, when unboxed, a layout. `packings` is
    `check_program_decls`' scope of the packings in `decls`, else made here,
    raising `VerifyError` for the first declaration that does not verify."""
    adt_decls: dict[str, AdtDecl] = {}
    packing_list: list[PackingDecl] = []
    for d in decls:
        if isinstance(d, PackingDecl):
            packing_list.append(d)
        elif d.name in adt_decls:
            raise MonoError(f"type {d.name} is declared twice")
        else:
            adt_decls[d.name] = d
    if packings is None:
        packings, diags = check_program_decls(packing_list)
        if diags:
            raise VerifyError(diags[0])

    if requests is None:
        requests = [
            NamedType(d.name, ()) for d in decls
            if isinstance(d, AdtDecl) and not d.type_params
        ]

    # discover every reachable instantiation and its dependency edges
    insts: dict[str, tuple[str, tuple[TypeExpr, ...]]] = {}
    graph: dict[str, list[str]] = {}
    work: list[tuple[str, tuple[TypeExpr, ...], Chain]] = []
    parts_left = [_MAX_BUILT_PARTS]
    for r in requests:
        if r.name not in adt_decls:
            raise MonoError(f"unknown type {print_type(r)}")
        work.append((r.name, r.args, {}))
    for name, args, chain in work:  # breadth first: `work` grows as it is walked
        key = instantiation_key(name, args)
        if key in insts:
            continue
        insts[key] = (name, args)
        deps = _dependencies(adt_decls[name], args, chain, adt_decls, parts_left)
        graph[key] = [instantiation_key(n, a) for n, a, _ in deps]
        work.extend(deps)

    components = _strongly_connected(graph)
    recursive_keys: set[str] = set()
    for comp in components:
        if len(comp) > 1:
            recursive_keys.update(comp)
        elif comp[0] in graph[comp[0]]:
            recursive_keys.add(comp[0])

    env = AdtEnv(
        decls=adt_decls,
        target=target,
        packings=packings,
        recursive_keys=recursive_keys,
    )
    position = {key: i for i, key in enumerate(insts)}  # discovery order
    # components arrive dependencies-first
    for comp in components:
        for key in sorted(comp, key=position.__getitem__):
            name, args = insts[key]
            mono = monomorphize_adt(adt_decls[name], args, env)
            disposition = unboxing_eligibility(mono, options)
            layout = None
            if not disposition.boxed:
                layout = solve_layout(mono, target, budget=options.budget)
            env.resolved[key] = ResolvedAdt(mono, disposition, layout)
    # present results in request/discovery order
    return ProgramLayouts(list(insts), env.resolved)
