"""A small typed SSA used to exercise layouts end to end.

Functions are CFGs of basic blocks without phis: the generator and the
normalizer only build DAG-shaped control flow where every merge point is a
return, so single assignment plus dominance gives well-defined values.

Source programs (before normalization) operate on ADT values through
alloc/getfield/gettag/contents/replacenull/eq. Normalized programs drop
contents and replacenull and add tuple construction, projection, bitwise
operations, bitcasts and null tests over the flattened representation;
getfield and gettag read a boxed record in both phases, field k being a
source field before normalization and a normalized field after.
Every type here is an IR type: monomorphization has lowered each source
field's type once (`MonoVariant.source_fields`), and decided each normalized
field's (`FieldSlot.type`). `Program.spread` is the one rule for how a
source value spreads over normalized fields, and `Program.expand` gives the
types of those fields; they walk the same types.
A value of an opaque reference type such as `string` has type `TAdt` with a
key that names no ADT, and the checker refuses it as any unknown ADT.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from typing import Callable, Iterator, NamedTuple, Optional, Union

from .solver import LayoutSolution

# The IR's types are defined in `targets`, where monomorphization lowers each
# source field's type to one; they are re-exported from here.
from .targets import (
    BOOL,
    IrType,
    MonoAdt,
    MonoVariant,
    TAdt,
    Target,
    TFloat,
    TInt,
    TIntRep,
    TTuple,
)

# ---------------------------------------------------------------------------
# Types


def print_ir_type(t: IrType) -> str:
    if isinstance(t, TInt):
        return f"{'i' if t.signed else 'u'}{t.width}"
    if isinstance(t, TFloat):
        return f"f{t.width}"
    if isinstance(t, TTuple):
        return "(" + ", ".join(print_ir_type(e) for e in t.elems) + ")"
    if isinstance(t, TAdt):
        return t.key
    if isinstance(t, TIntRep):
        return f"bits{t.width}:{t.kind}"
    raise TypeError(f"not an IR type: {t!r}")


# ---------------------------------------------------------------------------
# Instructions


# Unlike the other value records, instructions stay frozen dataclasses:
# perfbench's self-test rewrites a `Const` with `dataclasses.replace`.
@dataclass(frozen=True)
class Const:
    dst: str
    type: IrType
    value: Optional[int]  # None encodes a null reference


@dataclass(frozen=True)
class Alloc:
    dst: str
    adt: str
    case: int
    args: tuple[str, ...]


@dataclass(frozen=True)
class GetField:
    dst: str
    adt: str
    case: int
    field: int  # source field index; normalized field index after normalization
    src: str


@dataclass(frozen=True)
class GetContents:
    dst: str
    adt: str
    case: int
    src: str


@dataclass(frozen=True)
class GetTag:
    dst: str
    adt: str
    src: str


@dataclass(frozen=True)
class ReplaceNull:
    dst: str
    adt: str
    src: str


@dataclass(frozen=True)
class Eq:
    dst: str
    type: IrType
    a: str
    b: str


@dataclass(frozen=True)
class Call:
    dst: str
    fn: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class TupleMake:
    dst: str
    elems: tuple[str, ...]


@dataclass(frozen=True)
class Project:
    dst: str
    src: str
    index: int


@dataclass(frozen=True)
class BinOp:
    dst: str
    op: str  # and | or | xor
    a: str
    b: str


@dataclass(frozen=True)
class ShiftOp:
    dst: str
    op: str  # shl | shr
    src: str
    amount: int


@dataclass(frozen=True)
class SExt:
    dst: str
    src: str
    from_width: int


@dataclass(frozen=True)
class Bitcast:
    dst: str
    src: str
    type: IrType


@dataclass(frozen=True)
class IsNull:
    dst: str
    src: str


Instr = Union[
    Const,
    Alloc,
    GetField,
    GetContents,
    GetTag,
    ReplaceNull,
    Eq,
    Call,
    TupleMake,
    Project,
    BinOp,
    ShiftOp,
    SExt,
    Bitcast,
    IsNull,
]


class Jump(NamedTuple):
    label: str


class Branch(NamedTuple):
    cond: str
    then_label: str
    else_label: str


class Switch(NamedTuple):
    value: str
    cases: tuple[tuple[int, str], ...]
    default: str


class Return(NamedTuple):
    value: str


class Trap(NamedTuple):
    kind: str  # null-access | bad-case | explicit


Terminator = Union[Jump, Branch, Switch, Return, Trap]


# Blocks, functions and programs stay dataclasses: their attributes are
# set after construction.
@dataclass
class Block:
    label: str
    instrs: list[Instr] = dfield(default_factory=list)
    term: Optional[Terminator] = None


@dataclass
class Function:
    name: str
    params: tuple[tuple[str, IrType], ...]
    ret: IrType
    entry: str
    blocks: dict[str, Block] = dfield(default_factory=dict)
    # the source-level return type, kept through normalization so observable
    # outputs stay comparable across the rewrite
    semantic_ret: Optional[IrType] = None

    def successors(self) -> dict[str, list[str]]:
        """Each block's successor labels, in the order its terminator names them."""
        return {label: _successors(blk.term) for label, blk in self.blocks.items()}

    def block_order(self) -> list[str]:
        """The blocks reachable from the entry, in breadth-first order."""
        return _breadth_first(self.entry, self.successors())


def _breadth_first(entry: str, succs: dict[str, list[str]]) -> list[str]:
    """The labels reachable from `entry` over `succs`, in breadth-first order."""
    order = [entry]
    seen = {entry}
    for label in order:
        for s in succs[label]:
            if s not in seen:
                seen.add(s)
                order.append(s)
    return order


def _successors(term: Optional[Terminator]) -> list[str]:
    if isinstance(term, Jump):
        return [term.label]
    if isinstance(term, Branch):
        return [term.then_label, term.else_label]
    if isinstance(term, Switch):
        return [lbl for _, lbl in term.cases] + [term.default]
    return []


@dataclass
class Program:
    adts: dict[str, MonoAdt]
    layouts: dict[str, LayoutSolution]  # exactly the unboxed ADTs
    functions: dict[str, Function]
    target: Target
    normalized: bool = False

    @classmethod
    def of_layouts(cls, layouts, target: Target) -> "Program":
        """A program without functions over the ADTs that `process_adts`
        resolved into `layouts`."""
        return cls(
            adts=layouts.monos(),
            layouts=layouts.layouts(),
            functions={},
            target=target,
        )

    def is_unboxed(self, key: str) -> bool:
        """True when ADT `key` is laid out in scalars rather than boxed."""
        return key in self.layouts

    def spread(self, t: IrType, items: Iterator, part: Callable) -> None:
        """The rule for how a source value of type `t` spreads over
        normalized fields. A tuple is its elements, in order; a declared
        unboxed ADT is its layout's scalars (none for a one-case nullary
        type); anything else is one field: a scalar, a boxed ADT reference
        or an opaque reference.

        Takes one item per field from `items` (the fields themselves, or
        their values) and calls `part(key, taken)` for each part in order;
        `key` is the ADT that the part names, None for a scalar or an
        opaque reference."""
        if isinstance(t, TTuple):
            for e in t.elems:
                self.spread(e, items, part)
            return
        key = t.key if isinstance(t, TAdt) else None
        if key not in self.adts:
            part(None, [next(items)])
            return
        n = len(self.layouts[key].slots) if self.is_unboxed(key) else 1
        part(key, [next(items) for _ in range(n)])

    def expand(self, t: IrType) -> list[IrType]:
        """The types of the normalized values that a value of IR type `t`
        becomes, in order: a tuple is its elements' values, an unboxed ADT
        its layout's scalars, and anything else one value."""
        if isinstance(t, TTuple):
            return [leaf for e in t.elems for leaf in self.expand(e)]
        if isinstance(t, TAdt) and self.is_unboxed(t.key):
            return [s.type for s in self.layouts[t.key].slots]
        return [t]

    def contents_type(self, key: str, case: int) -> IrType:
        types = tuple(t for _, t in self.adts[key].variants[case].source_fields)
        if len(types) == 1:
            return types[0]
        return TTuple(types)


# ---------------------------------------------------------------------------
# Type checking

TAG_TYPE = TInt(32, False)


class IrTypeError(Exception):
    pass


def dominator_spans(
    order: list[str], succs: dict[str, list[str]]
) -> dict[str, tuple[int, int]]:
    """Each block's interval [first, end) in a preorder of the dominator tree,
    given a function's `succs = fn.successors()` and `order = fn.block_order()`:
    block a dominates block b exactly when a's interval holds b's first
    number. Breadth-first order puts a block's dominators before it, so
    Cooper, Harvey and Kennedy's iteration ("A Simple, Fast Dominance
    Algorithm", 2001) runs over block numbers, and a block's immediate
    dominator has a smaller number than the block."""
    if len(order) == 1:
        return {order[0]: (0, 1)}
    index = {b: i for i, b in enumerate(order)}
    preds: list[list[int]] = [[] for _ in order]
    for i, b in enumerate(order):
        for s in succs[b]:
            preds[index[s]].append(i)
    # the first pass reaches every block, and a block with one predecessor
    # keeps it as immediate dominator, so later passes visit only merges
    idom = [0] + [-1] * (len(order) - 1)  # -1: not reached by the iteration yet
    merges = [b for b in range(1, len(order)) if len(preds[b]) > 1]
    visit = range(1, len(order))
    while visit:
        changed = False
        for b in visit:
            done = [p for p in preds[b] if idom[p] >= 0]  # b's BFS parent always is
            new = done[0]
            for p in done:
                while p != new:  # climb to the nearest common dominator
                    while p > new:
                        p = idom[p]
                    while new > p:
                        new = idom[new]
            changed |= idom[b] != new
            idom[b] = new
        visit = merges if changed else ()
    size = [1] * len(order)
    for b in range(len(order) - 1, 0, -1):
        size[idom[b]] += size[b]
    first = [0] * len(order)
    free = [1] * len(order)  # the next number to hand out inside each interval
    for b in range(1, len(order)):
        first[b], free[b] = free[idom[b]], free[idom[b]] + 1
        free[idom[b]] += size[b]
    return {label: (first[i], first[i] + size[i]) for i, label in enumerate(order)}


def check_function(program: Program, fn: Function) -> None:
    """Single assignment, dominance-based definite assignment, operand
    typing, and grammar restrictions for the program's phase.

    One walk over the blocks in breadth-first order, which reaches every
    dominator of a block before the block itself, so an operand whose
    definition dominates the use but has no type yet is defined later in
    the same block. Dominance compares the dominator-tree intervals of blocks."""
    post = program.normalized
    rules = _POST_RULES if post else _PRE_RULES
    if fn.entry not in fn.blocks:
        raise IrTypeError(f"{fn.name} has no entry block")
    _known(program, fn.ret)
    succs = fn.successors()
    for labels in succs.values():
        for s in labels:
            if s not in fn.blocks:
                raise IrTypeError(f"jump to unknown block {s}")
    order = _breadth_first(fn.entry, succs)
    spans = dominator_spans(order, succs)
    types: dict[str, IrType] = {}
    def_span: dict[str, tuple[int, int]] = {}
    blocks = fn.blocks
    for name, t in fn.params:
        if name in types:
            raise IrTypeError(f"duplicate parameter {name}")
        types[name] = _known(program, t)
        def_span[name] = spans[fn.entry]
    if len(spans) != len(blocks):
        for label in blocks:
            if label not in spans:
                raise IrTypeError(f"block {label} is unreachable from the entry")
    for label in order:
        blk = blocks[label]
        if blk.term is None:
            raise IrTypeError(f"block {label} lacks a terminator")
        span = spans[label]
        for ins in blk.instrs:
            if ins.dst in def_span:
                raise IrTypeError(f"name {ins.dst} assigned twice")
            def_span[ins.dst] = span
    nulls: set[str] = set()  # null ADT constants, which only replace-null may read

    def use(name: str, null_ok: bool = False) -> IrType:
        # the type of an operand read in block `label`, whose first number is `here`
        span = def_span.get(name)
        if span is None:
            raise IrTypeError(f"use of undefined name {name}")
        if not span[0] <= here < span[1]:
            raise IrTypeError(f"{name} used in {label} without dominating definition")
        if name not in types:
            raise IrTypeError(f"{name} used before its definition in {label}")
        if name in nulls and not null_ok:
            raise IrTypeError("null ADT constant used outside replace-null")
        return types[name]

    for label in order:
        here = spans[label][0]
        blk = blocks[label]
        for ins in blk.instrs:
            rule = rules.get(type(ins))
            if rule is None:
                raise TypeError(f"unknown instruction {ins!r}")
            types[ins.dst] = rule(program, ins, use)
            if not post and type(ins) is Const and ins.value is None:
                nulls.add(ins.dst)
        term = blk.term
        kind = type(term)
        if kind is Return:
            have = use(term.value)
            if have != fn.ret:
                raise IrTypeError(
                    f"{fn.name} returns {print_ir_type(have)}, expected {print_ir_type(fn.ret)}"
                )
        elif kind is Branch:
            if use(term.cond) != BOOL:
                raise IrTypeError("branch condition must be u1")
        elif kind is Switch:
            if not isinstance(use(term.value), TInt):
                raise IrTypeError("switch operand must be an integer")


_INT_BACKED = (TInt, TIntRep)


def _adt(program: Program, key: str) -> MonoAdt:
    if key not in program.adts:
        raise IrTypeError(f"unknown ADT {key}")
    return program.adts[key]


def _variant(program: Program, key: str, case: int) -> MonoVariant:
    variants = _adt(program, key).variants
    if not 0 <= case < len(variants):
        raise IrTypeError(f"{key} has no case #{case}")
    return variants[case]


def _field(program: Program, key: str, case: int, index: int, normalized: bool):
    """Field `index` of case `case` of ADT `key`: a normalized field or a
    (name, type) source field."""
    variant = _variant(program, key, case)
    fields = variant.fields if normalized else variant.source_fields
    if not 0 <= index < len(fields):
        raise IrTypeError(f"{key}#{case} has no field {index}")
    return fields[index]


def _known(program: Program, t: IrType) -> IrType:
    """`t`, after checking that the program has the ADTs it names."""
    if isinstance(t, TTuple):
        for e in t.elems:
            _known(program, e)
    elif isinstance(t, TAdt):
        _adt(program, t.key)
    return t


def _of_adt(t: IrType, key: str, what: str) -> None:
    """Refuse an operand of type `t` unless it is a value of ADT `key`."""
    if type(t) is not TAdt or t.key != key:
        raise IrTypeError(f"{what} on a value of the wrong type")


# One rule per instruction class and phase: it checks an instruction,
# reading its operands through `use`, and returns the type of its result.


def _const(program: Program, ins: Const, use) -> IrType:
    if isinstance(_known(program, ins.type), TAdt):
        if ins.value is not None:
            raise IrTypeError("ADT constants can only be null")
        if program.normalized and program.is_unboxed(ins.type.key):
            raise IrTypeError("null constant of an unboxed ADT after normalization")
    elif ins.value is None:
        raise IrTypeError("null constant of a non-reference type")
    return ins.type


def _alloc(program: Program, ins: Alloc, use) -> IrType:
    have = [use(a) for a in ins.args]
    variant = _variant(program, ins.adt, ins.case)
    if program.normalized:
        if program.is_unboxed(ins.adt):
            raise IrTypeError("normalized code cannot allocate an unboxed ADT")
        want = [f.type for f in variant.fields]
    else:
        want = [_known(program, t) for _, t in variant.source_fields]
    if have != want:
        raise IrTypeError(f"alloc {ins.adt}#{ins.case}: argument types mismatch")
    return TAdt(ins.adt)


def _getfield(program: Program, ins: GetField, use) -> IrType:
    post = program.normalized
    if post and program.is_unboxed(ins.adt):
        raise IrTypeError(f"normalized GetField on unboxed ADT {ins.adt}")
    f = _field(program, ins.adt, ins.case, ins.field, post)
    _of_adt(use(ins.src), ins.adt, "field access")
    return f.type if post else _known(program, f[1])


def _contents(program: Program, ins: GetContents, use) -> IrType:
    _variant(program, ins.adt, ins.case)
    _of_adt(use(ins.src), ins.adt, "field access")
    return _known(program, program.contents_type(ins.adt, ins.case))


def _gettag(program: Program, ins: GetTag, use) -> IrType:
    if program.normalized and program.is_unboxed(ins.adt):
        raise IrTypeError(f"normalized GetTag on unboxed ADT {ins.adt}")
    _adt(program, ins.adt)
    _of_adt(use(ins.src), ins.adt, "tag/replace-null")
    return TAG_TYPE


def _replacenull(program: Program, ins: ReplaceNull, use) -> IrType:
    _adt(program, ins.adt)
    _of_adt(use(ins.src, null_ok=True), ins.adt, "tag/replace-null")
    return TAdt(ins.adt)


def _eq(program: Program, ins: Eq, use) -> IrType:
    _known(program, ins.type)
    ta, tb = use(ins.a), use(ins.b)
    if isinstance(ins.type, _INT_BACKED):
        if not (isinstance(ta, _INT_BACKED) and isinstance(tb, _INT_BACKED)):
            raise IrTypeError("eq on integer bits needs integer-backed operands")
    elif ta != ins.type or tb != ins.type:
        raise IrTypeError("eq operands must both have the annotated type")
    if program.normalized and isinstance(ins.type, TAdt) and program.is_unboxed(ins.type.key):
        raise IrTypeError("normalized eq on an unboxed ADT must be a call")
    return BOOL


def _call(program: Program, ins: Call, use) -> IrType:
    have = [use(a) for a in ins.args]
    callee = program.functions.get(ins.fn)
    if callee is None:
        raise IrTypeError(f"call to unknown function {ins.fn}")
    if [t for _, t in callee.params] != have:
        raise IrTypeError(f"call {ins.fn}: argument types mismatch")
    return callee.ret


def _project(program: Program, ins: Project, use) -> IrType:
    src = use(ins.src)
    if not isinstance(src, TTuple):
        raise IrTypeError("project from a non-tuple")
    if not 0 <= ins.index < len(src.elems):
        raise IrTypeError(f"project of element {ins.index} from a {len(src.elems)}-tuple")
    return src.elems[ins.index]


def _binop(program: Program, ins: BinOp, use) -> IrType:
    ta, tb = use(ins.a), use(ins.b)
    if ta != tb and not (isinstance(ta, _INT_BACKED) and isinstance(tb, _INT_BACKED)):
        raise IrTypeError("bitwise operands must be integer-backed")
    return ta


def _bitcast(program: Program, ins: Bitcast, use) -> IrType:
    use(ins.src)
    return _known(program, ins.type)


def _isnull(program: Program, ins: IsNull, use) -> IrType:
    use(ins.src)
    return BOOL


def _other_phase(program: Program, ins: Instr, use) -> IrType:
    if program.normalized:
        raise IrTypeError(f"{type(ins).__name__} is not a normalized instruction")
    raise IrTypeError(f"{type(ins).__name__} only exists after normalization")


_RULES = {Const: _const, Alloc: _alloc, GetField: _getfield, GetTag: _gettag, Eq: _eq, Call: _call}
_PRE_ONLY = {GetContents: _contents, ReplaceNull: _replacenull}
_POST_ONLY = {
    TupleMake: lambda program, ins, use: TTuple(tuple(map(use, ins.elems))),
    Project: _project, BinOp: _binop, Bitcast: _bitcast, IsNull: _isnull,
    ShiftOp: lambda program, ins, use: use(ins.src), SExt: lambda program, ins, use: use(ins.src),
}
_PRE_RULES = {**_RULES, **_PRE_ONLY, **dict.fromkeys(_POST_ONLY, _other_phase)}
_POST_RULES = {**_RULES, **_POST_ONLY, **dict.fromkeys(_PRE_ONLY, _other_phase)}


def check_program(program: Program) -> None:
    for fn in program.functions.values():
        check_function(program, fn)
