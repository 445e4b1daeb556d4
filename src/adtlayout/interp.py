"""Deterministic evaluation for both IR phases, plus the structural
observation that makes boxed and normalized runs comparable.

Observables are plain trees: ints for integer values, ('f', bits) for
floats, tuples for tuples, ('adt', key, case, fields...) for ADT values
and ('null',) for a null reference. Heap identity is never observable.

Both phases share one value model: records live in a heap, a reference is
the address `Heap.alloc` returns, aligned to `max(8, 2**free_low_bits)` of
the target's tagging so that its tag bits are clear, and null is 0. Before
normalization record fields hold source-shaped values, observed at each
source field's IR type; after, they hold the flattened scalars. A
normalized value of an IR type, a record's source field among them, holds
the values that `Program.expand` gives that type, and observation walks the
type over them, turning them back into source-shaped observables.

Fuel bounds every run: entering a block costs a step, and so does each
instruction in it, so every loop ends, in a `fuel` trap."""

from __future__ import annotations

from typing import NamedTuple, Optional

from . import codec
from .ir import (
    Alloc,
    BinOp,
    Bitcast,
    Branch,
    Call,
    Const,
    Eq,
    Function,
    GetContents,
    GetField,
    GetTag,
    IrType,
    IrTypeError,
    IsNull,
    Jump,
    Program,
    Project,
    ReplaceNull,
    Return,
    SExt,
    ShiftOp,
    Switch,
    TAdt,
    TFloat,
    TInt,
    TIntRep,
    Trap,
    TTuple,
    TupleMake,
)


_ALIGN = 8
_MAX_STEPS = 200_000
_MAX_CALL_DEPTH = 64


class Record(NamedTuple):
    adt: str
    case: int
    fields: list  # source values before normalization; scalars after


class Heap:
    """Records by address, each `align` bytes past the last; `alloc`
    advances `next_addr`."""

    __slots__ = ("cells", "next_addr", "align")

    def __init__(self, align: int = _ALIGN):
        self.cells: dict[int, Record] = {}
        self.next_addr = self.align = align

    def alloc(self, rec: Record) -> int:
        addr = self.next_addr
        self.next_addr += self.align
        self.cells[addr] = rec
        return addr

    def read(self, addr: int) -> Record:
        return self.cells[addr]


class TrapSignal(Exception):
    def __init__(self, kind: str):
        super().__init__(kind)
        self.kind = kind


class Outcome(NamedTuple):
    trap: Optional[str]
    value: object  # observable tree, None when trapped

    def __str__(self) -> str:
        return f"trap:{self.trap}" if self.trap else f"value:{self.value!r}"


# ---------------------------------------------------------------------------
# Observation


def observe(program: Program, heap: Heap, value, t: IrType):
    """Canonical structural rendering of a runtime value at a type. A
    normalized value holds the values that `Program.expand` gives its type:
    bare when there is one, else a flat tuple of them."""
    if program.normalized:
        values = iter([value] if len(program.expand(t)) == 1 else value)
        return _observe_normalized(program, heap, values, t)
    if isinstance(t, TTuple):
        return tuple(observe(program, heap, v, e) for v, e in zip(value, t.elems))
    if isinstance(t, TAdt):
        return _observe_record(program, heap, value)
    return _observe_scalar(value, t)


def _observe_scalar(value, t: IrType):
    if isinstance(t, TInt):
        return value
    if isinstance(t, TFloat):
        return ("f", value)
    if isinstance(t, TIntRep):
        return ("bits", value)
    raise TypeError(f"cannot observe at {t!r}")


def _observe_normalized(program: Program, heap: Heap, values, t: IrType):
    """A normalized value of IR type `t`, taking from the iterator `values`
    the values that `Program.expand` gives `t`, in order."""
    if isinstance(t, TTuple):
        return tuple(_observe_normalized(program, heap, values, e) for e in t.elems)
    if isinstance(t, TAdt):
        if program.is_unboxed(t.key):
            scalars = [next(values) for _ in program.layouts[t.key].slots]
            return observe_scalars(program, heap, t.key, scalars)
        return _observe_record(program, heap, next(values))
    return _observe_scalar(next(values), t)


def observe_scalars(program: Program, heap: Heap, key: str, scalars: list[int]):
    """Decode an unboxed ADT value from its scalars into the observable form."""
    layout = program.layouts[key]
    case = codec.variant_of(layout, scalars)
    variant = program.adts[key].variants[case]
    flat = [codec.decode_field(layout, case, f.name, scalars) for f in variant.fields]
    return ("adt", key, case, _observe_fields(program, heap, variant, flat))


def _observe_record(program: Program, heap: Heap, addr: int):
    """A referenced ADT value: null, or a record whose fields hold its
    variant's source values before normalization and the values of its
    normalized fields after."""
    if addr == 0:
        return ("null",)
    rec = heap.read(addr)
    variant = program.adts[rec.adt].variants[rec.case]
    if program.normalized:
        fields = _observe_fields(program, heap, variant, rec.fields)
    else:
        fields = tuple(
            observe(program, heap, v, t) for v, (_, t) in zip(rec.fields, variant.source_fields)
        )
    return ("adt", rec.adt, rec.case, fields)


def _observe_fields(program: Program, heap: Heap, variant, flat: list) -> tuple:
    """The observables of a variant's source fields, from the values of its
    normalized fields in order: each source field takes the values that
    `Program.expand` gives its type."""
    values = iter(flat)
    return tuple(_observe_normalized(program, heap, values, t) for _, t in variant.source_fields)


# ---------------------------------------------------------------------------
# Evaluation


def _mask(width: int) -> int:
    return (1 << width) - 1


class _Machine:
    def __init__(self, program: Program):
        self.program = program
        # a reference's low bits must be free for the target's tagging
        tagging = program.target.ref_tagging
        self.heap = Heap(max(_ALIGN, 1 << tagging.free_low_bits) if tagging else _ALIGN)
        self.steps = 0

    def run(self, entry: str, inputs: list) -> Outcome:
        fn = self.program.functions[entry]
        try:
            value = self.call(fn, list(inputs), depth=0)
        except TrapSignal as t:
            return Outcome(t.kind, None)
        view = fn.semantic_ret or fn.ret
        return Outcome(None, observe(self.program, self.heap, value, view))

    def call(self, fn: Function, args: list, depth: int):
        if depth > _MAX_CALL_DEPTH:
            raise TrapSignal("call-depth")
        env: dict[str, object] = {name: v for (name, _), v in zip(fn.params, args)}
        blocks = fn.blocks
        label = fn.entry
        while True:
            blk = blocks[label]
            # entering a block costs a step, and a step per instruction in it,
            # so that a loop with no instructions runs out of fuel too
            self.steps += 1 + len(blk.instrs)
            if self.steps > _MAX_STEPS:
                raise TrapSignal("fuel")
            for ins in blk.instrs:
                try:
                    run = _EXEC[type(ins)]
                except KeyError:
                    raise AssertionError(f"unknown instruction {ins!r}") from None
                run(self, ins, env, depth)
            term = blk.term
            kind = type(term)
            if kind is Branch:
                label = term.then_label if env[term.cond] else term.else_label
            elif kind is Return:
                return env[term.value]
            elif kind is Jump:
                label = term.label
            elif kind is Switch:
                v = env[term.value]
                label = term.default
                for k, lbl in term.cases:
                    if v == k:
                        label = lbl
                        break
            elif kind is Trap:
                raise TrapSignal(term.kind)
            else:
                raise AssertionError(f"bad terminator {term!r}")

    # -- one handler per instruction class, each setting the value of `ins.dst` --

    def _const(self, ins: Const, env: dict, depth: int) -> None:
        env[ins.dst] = 0 if ins.value is None else ins.value  # null is 0

    def _alloc(self, ins: Alloc, env: dict, depth: int) -> None:
        values = [env[a] for a in ins.args]
        env[ins.dst] = self.heap.alloc(Record(ins.adt, ins.case, values))

    def _getfield(self, ins: GetField, env: dict, depth: int) -> None:
        env[ins.dst] = self._deref_case(env[ins.src], ins.adt, ins.case).fields[ins.field]

    def _contents(self, ins: GetContents, env: dict, depth: int) -> None:
        vals = tuple(self._deref_case(env[ins.src], ins.adt, ins.case).fields)
        env[ins.dst] = vals[0] if len(vals) == 1 else vals

    def _gettag(self, ins: GetTag, env: dict, depth: int) -> None:
        env[ins.dst] = self._deref(env[ins.src]).case

    def _replacenull(self, ins: ReplaceNull, env: dict, depth: int) -> None:
        v = env[ins.src]
        env[ins.dst] = default_value(self.program, self.heap, ins.adt, depth) if v == 0 else v

    def _eq(self, ins: Eq, env: dict, depth: int) -> None:
        a = observe(self.program, self.heap, env[ins.a], ins.type)
        b = observe(self.program, self.heap, env[ins.b], ins.type)
        env[ins.dst] = 1 if a == b else 0

    def _call(self, ins: Call, env: dict, depth: int) -> None:
        callee = self.program.functions[ins.fn]
        env[ins.dst] = self.call(callee, [env[a] for a in ins.args], depth + 1)

    def _tuplemake(self, ins: TupleMake, env: dict, depth: int) -> None:
        env[ins.dst] = tuple(env[e] for e in ins.elems)

    def _project(self, ins: Project, env: dict, depth: int) -> None:
        env[ins.dst] = env[ins.src][ins.index]

    def _binop(self, ins: BinOp, env: dict, depth: int) -> None:
        a, b = env[ins.a], env[ins.b]
        if ins.op == "and":
            env[ins.dst] = a & b
        elif ins.op == "or":
            env[ins.dst] = a | b
        else:
            env[ins.dst] = a ^ b

    def _shiftop(self, ins: ShiftOp, env: dict, depth: int) -> None:
        v = env[ins.src]
        env[ins.dst] = (v << ins.amount) if ins.op == "shl" else (v >> ins.amount)

    def _sext(self, ins: SExt, env: dict, depth: int) -> None:
        v = env[ins.src] & _mask(ins.from_width)
        if v & (1 << (ins.from_width - 1)):
            v -= 1 << ins.from_width
        env[ins.dst] = v

    def _bitcast(self, ins: Bitcast, env: dict, depth: int) -> None:
        env[ins.dst] = env[ins.src]

    def _isnull(self, ins: IsNull, env: dict, depth: int) -> None:
        env[ins.dst] = 1 if env[ins.src] == 0 else 0

    def _deref(self, addr: int) -> Record:
        if addr == 0:
            raise TrapSignal("null-access")
        return self.heap.read(addr)

    def _deref_case(self, addr: int, adt: str, case: int) -> Record:
        rec = self._deref(addr)
        if rec.adt != adt or rec.case != case:
            raise TrapSignal("bad-case")
        return rec


_EXEC = {
    Const: _Machine._const, Alloc: _Machine._alloc, GetField: _Machine._getfield,
    GetContents: _Machine._contents, GetTag: _Machine._gettag,
    ReplaceNull: _Machine._replacenull, Eq: _Machine._eq, Call: _Machine._call,
    TupleMake: _Machine._tuplemake, Project: _Machine._project, BinOp: _Machine._binop,
    ShiftOp: _Machine._shiftop, SExt: _Machine._sext, Bitcast: _Machine._bitcast,
    IsNull: _Machine._isnull,
}


def default_value(program: Program, heap: Heap, key: str, depth: int = 0) -> int:
    """The address of the ADT's default: an instance of the first declared
    variant with every field set to its own default."""
    if depth > _MAX_CALL_DEPTH:
        raise TrapSignal("call-depth")
    variant = program.adts[key].variants[0]
    values = [_default_for_type(program, heap, t, depth + 1) for _, t in variant.source_fields]
    return heap.alloc(Record(key, 0, values))


def _default_for_type(program: Program, heap: Heap, t: IrType, depth: int):
    if isinstance(t, TTuple):
        return tuple(_default_for_type(program, heap, e, depth) for e in t.elems)
    if isinstance(t, TAdt) and t.key in program.adts:
        return default_value(program, heap, t.key, depth)
    return 0  # zero, or null for an opaque reference


def eval_program(program: Program, entry: str = "main", inputs: Optional[list] = None) -> Outcome:
    """Run a program; the observable output is the entry function's return
    value (structurally rendered) or the trap kind. `inputs` holds one value
    per parameter of the entry function. A run starts with an empty heap,
    so every reference to a record an input holds can only be null (0)."""
    inputs = inputs or []
    if entry not in program.functions:
        raise IrTypeError(f"the program has no entry function {entry}")
    params = program.functions[entry].params
    if len(inputs) != len(params):
        plural = "" if len(params) == 1 else "s"
        raise IrTypeError(f"{entry} takes {len(params)} argument{plural}, {len(inputs)} given")
    for (name, t), value in zip(params, inputs):
        if _holds_record(value, t):
            raise IrTypeError(
                f"{entry} parameter %{name} can hold only null (0) references, {value!r} given")
    return _Machine(program).run(entry, inputs)


def _holds_record(value, t: IrType) -> bool:
    """True when `value`, of type `t`, is or holds a reference other than null."""
    if isinstance(t, TTuple):
        return any(_holds_record(v, e) for v, e in zip(value, t.elems))
    return isinstance(t, TAdt) and value != 0
