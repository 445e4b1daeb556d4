"""End-to-end ADT processing: discover instantiations, detect recursion,
and classify/solve each one in dependency order so unboxed ADTs can embed
into the fields that mention them."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .solver import LayoutSolution, solve_layout
from .syntax import AdtDecl, Decl, NamedType, PackingDecl, TupleType, TypeExpr, print_type
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

_MAX_TYPE_DEPTH = 8


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


def _type_depth(t: TypeExpr) -> int:
    if isinstance(t, TupleType):
        return 1 + max((_type_depth(e) for e in t.elems), default=0)
    if isinstance(t, NamedType):
        return 1 + max((_type_depth(a) for a in t.args), default=0)
    return 1


def _adt_mentions(t: TypeExpr, decls: dict[str, AdtDecl]) -> list[NamedType]:
    out: list[NamedType] = []
    if isinstance(t, TupleType):
        for e in t.elems:
            out.extend(_adt_mentions(e, decls))
    elif isinstance(t, NamedType):
        if t.name in decls:
            out.append(t)
        for a in t.args:
            out.extend(_adt_mentions(a, decls))
    return out


def _dependencies(
    decl: AdtDecl, args: tuple[TypeExpr, ...], decls: dict[str, AdtDecl]
) -> list[tuple[str, tuple[TypeExpr, ...]]]:
    bindings = dict(zip(decl.type_params, args))
    deps = []
    for v in decl.variants:
        for _, ftype in v.fields:
            concrete = substitute(ftype, bindings)
            if _type_depth(concrete) > _MAX_TYPE_DEPTH:
                raise MonoError(
                    f"instantiating {decl.name} nests types deeper than {_MAX_TYPE_DEPTH} "
                    "levels; is it polymorphically recursive?"
                )
            for mention in _adt_mentions(concrete, decls):
                deps.append((mention.name, mention.args))
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
) -> ProgramLayouts:
    """Resolve every requested instantiation (plus everything reachable
    from it) into a disposition and, when unboxed, a layout."""
    adt_decls: dict[str, AdtDecl] = {}
    packing_list: list[PackingDecl] = []
    for d in decls:
        if isinstance(d, PackingDecl):
            packing_list.append(d)
        elif d.name in adt_decls:
            raise MonoError(f"type {d.name} is declared twice")
        else:
            adt_decls[d.name] = d
    delta, _ = check_program_decls(packing_list)

    if requests is None:
        requests = [
            NamedType(d.name, ()) for d in decls
            if isinstance(d, AdtDecl) and not d.type_params
        ]

    # discover every reachable instantiation and its dependency edges
    insts: dict[str, tuple[str, tuple[TypeExpr, ...]]] = {}
    graph: dict[str, list[str]] = {}
    order_seen: list[str] = []
    work: list[tuple[str, tuple[TypeExpr, ...]]] = []
    for r in requests:
        if r.name not in adt_decls:
            raise MonoError(f"unknown type {print_type(r)}")
        work.append((r.name, r.args))
    while work:
        name, args = work.pop(0)
        key = instantiation_key(name, args)
        if key in insts:
            continue
        insts[key] = (name, args)
        order_seen.append(key)
        deps = _dependencies(adt_decls[name], args, adt_decls)
        edges = []
        for dep_name, dep_args in deps:
            edges.append(instantiation_key(dep_name, dep_args))
            work.append((dep_name, dep_args))
        graph[key] = edges

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
        packing_decls=delta,
        recursive_keys=recursive_keys,
    )
    result = ProgramLayouts(order=[], resolved={})
    # components arrive dependencies-first
    for comp in components:
        for key in sorted(comp, key=order_seen.index):
            name, args = insts[key]
            mono = monomorphize_adt(adt_decls[name], args, env)
            disposition = unboxing_eligibility(mono, options)
            layout = None
            if not disposition.boxed:
                layout = solve_layout(mono, target, budget=options.budget)
            env.resolved[key] = ResolvedAdt(key, mono, disposition, layout)
            result.resolved[key] = env.resolved[key]
    # present results in request/discovery order
    result.order = [k for k in order_seen if k in result.resolved]
    return result
