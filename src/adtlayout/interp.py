"""Deterministic evaluation for both IR phases, plus the structural
observation that makes boxed and normalized runs comparable.

Observables are plain trees: ints for integer values, ('f', bits) for
floats, tuples for tuples, ('adt', key, case, fields...) for ADT values
and ('null',) for a null reference. Heap identity is never observable.

Both phases share one value model: records live in a heap, a reference is
the 8-aligned address `Heap.alloc` returns, and null is 0. Before
normalization record fields hold source-shaped values; after, they hold
the flattened scalars, which observation turns back into source-shaped
observables by walking each source field's type with `Program.spread`. A
normalized value of an IR type holds the values that `Program.expand` gives
that type, and observation walks the type over them in the same way."""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
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
from .syntax import FloatType, NamedType, TupleType, TypeExpr, print_type


_ALIGN = 8
_MAX_STEPS = 200_000
_MAX_CALL_DEPTH = 64


class Record(NamedTuple):
    adt: str
    case: int
    fields: list  # source values before normalization; scalars after


# a dataclass: `alloc` advances `next_addr`
@dataclass
class Heap:
    cells: dict[int, Record] = dfield(default_factory=dict)
    next_addr: int = _ALIGN

    def alloc(self, rec: Record) -> int:
        addr = self.next_addr
        self.next_addr += _ALIGN
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


def _observe_source(program: Program, heap: Heap, value, t: TypeExpr):
    """A record field's value at its source type: a tuple element by
    element, a reference to an ADT's record or an opaque reference (always
    null), or a scalar."""
    if isinstance(t, TupleType):
        return tuple(_observe_source(program, heap, v, e) for v, e in zip(value, t.elems))
    if isinstance(t, NamedType):
        return _observe_record(program, heap, value)
    return ("f", value) if isinstance(t, FloatType) else value


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
            _observe_source(program, heap, v, ft)
            for v, (_, ft) in zip(rec.fields, variant.source_fields)
        )
    return ("adt", rec.adt, rec.case, fields)


def _observe_fields(program: Program, heap: Heap, variant, flat: list) -> tuple:
    """The observables of a variant's source fields, from the values of its
    normalized fields in order, walked as `Program.spread` spreads them."""
    values = iter(flat)

    def part(t, key, taken):
        if key is not None and program.is_unboxed(key):
            return observe_scalars(program, heap, key, taken)
        return _observe_source(program, heap, taken[0], t)

    return tuple(program.spread(t, values, part) for _, t in variant.source_fields)


# ---------------------------------------------------------------------------
# Evaluation


def _mask(width: int) -> int:
    return (1 << width) - 1


class _Machine:
    def __init__(self, program: Program):
        self.program = program
        self.heap = Heap()
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
        label = fn.entry
        while True:
            blk = fn.blocks[label]
            for ins in blk.instrs:
                self.steps += 1
                if self.steps > _MAX_STEPS:
                    raise TrapSignal("fuel")
                self.exec(ins, env, depth)
            term = blk.term
            if isinstance(term, Jump):
                label = term.label
            elif isinstance(term, Branch):
                label = term.then_label if env[term.cond] else term.else_label
            elif isinstance(term, Switch):
                v = env[term.value]
                label = term.default
                for k, lbl in term.cases:
                    if v == k:
                        label = lbl
                        break
            elif isinstance(term, Return):
                return env[term.value]
            elif isinstance(term, Trap):
                raise TrapSignal(term.kind)
            else:
                raise AssertionError(f"bad terminator {term!r}")

    # -- single instruction --

    def exec(self, ins, env: dict, depth: int) -> None:
        program = self.program
        if isinstance(ins, Const):
            env[ins.dst] = 0 if ins.value is None else ins.value  # null is 0
            return
        if isinstance(ins, Alloc):
            values = [env[a] for a in ins.args]
            env[ins.dst] = self.heap.alloc(Record(ins.adt, ins.case, values))
            return
        if isinstance(ins, (GetField, GetContents)):
            rec = self._deref_case(env[ins.src], ins.adt, ins.case)
            if isinstance(ins, GetField):
                env[ins.dst] = rec.fields[ins.field]
            else:
                vals = tuple(rec.fields)
                env[ins.dst] = vals[0] if len(vals) == 1 else vals
            return
        if isinstance(ins, GetTag):
            env[ins.dst] = self._deref(env[ins.src]).case
            return
        if isinstance(ins, ReplaceNull):
            v = env[ins.src]
            env[ins.dst] = default_value(program, self.heap, ins.adt, depth) if v == 0 else v
            return
        if isinstance(ins, Eq):
            a = observe(program, self.heap, env[ins.a], ins.type)
            b = observe(program, self.heap, env[ins.b], ins.type)
            env[ins.dst] = 1 if a == b else 0
            return
        if isinstance(ins, Call):
            callee = program.functions[ins.fn]
            env[ins.dst] = self.call(callee, [env[a] for a in ins.args], depth + 1)
            return
        if isinstance(ins, TupleMake):
            env[ins.dst] = tuple(env[e] for e in ins.elems)
            return
        if isinstance(ins, Project):
            env[ins.dst] = env[ins.src][ins.index]
            return
        if isinstance(ins, BinOp):
            a, b = env[ins.a], env[ins.b]
            if ins.op == "and":
                env[ins.dst] = a & b
            elif ins.op == "or":
                env[ins.dst] = a | b
            else:
                env[ins.dst] = a ^ b
            return
        if isinstance(ins, ShiftOp):
            v = env[ins.src]
            env[ins.dst] = (v << ins.amount) if ins.op == "shl" else (v >> ins.amount)
            return
        if isinstance(ins, SExt):
            v = env[ins.src] & _mask(ins.from_width)
            if v & (1 << (ins.from_width - 1)):
                v -= 1 << ins.from_width
            env[ins.dst] = v
            return
        if isinstance(ins, Bitcast):
            env[ins.dst] = env[ins.src]
            return
        if isinstance(ins, IsNull):
            env[ins.dst] = 1 if env[ins.src] == 0 else 0
            return
        raise AssertionError(f"unknown instruction {ins!r}")

    def _deref(self, addr: int) -> Record:
        if addr == 0:
            raise TrapSignal("null-access")
        return self.heap.read(addr)

    def _deref_case(self, addr: int, adt: str, case: int) -> Record:
        rec = self._deref(addr)
        if rec.adt != adt or rec.case != case:
            raise TrapSignal("bad-case")
        return rec


def default_value(program: Program, heap: Heap, key: str, depth: int = 0) -> int:
    """The address of the ADT's default: an instance of the first declared
    variant with every field set to its own default."""
    if depth > _MAX_CALL_DEPTH:
        raise TrapSignal("call-depth")
    variant = program.adts[key].variants[0]
    values = [_default_for_type(program, heap, t, depth + 1) for _, t in variant.source_fields]
    return heap.alloc(Record(key, 0, values))


def _default_for_type(program: Program, heap: Heap, ftype, depth: int):
    if isinstance(ftype, TupleType):
        return tuple(_default_for_type(program, heap, e, depth) for e in ftype.elems)
    if isinstance(ftype, NamedType):
        key = print_type(ftype)
        if key in program.adts:
            return default_value(program, heap, key, depth)
    return 0  # zero, or null for an opaque reference


def eval_program(program: Program, entry: str = "main", inputs: Optional[list] = None) -> Outcome:
    """Run a program; the observable output is the entry function's return
    value (structurally rendered) or the trap kind. `inputs` holds one value
    per parameter of the entry function."""
    inputs = inputs or []
    count = len(program.functions[entry].params)
    if len(inputs) != count:
        plural = "" if count == 1 else "s"
        raise IrTypeError(f"{entry} takes {count} argument{plural}, {len(inputs)} given")
    return _Machine(program).run(entry, inputs)
