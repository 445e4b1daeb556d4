"""Deterministic evaluation for both IR phases, plus the structural
observation that makes boxed and normalized runs comparable.

Observables are plain trees: ints for integer values, ('f', bits) for
floats, tuples for tuples, ('adt', key, case, fields...) for ADT values
and ('null',) for a null reference. Heap identity is never observable.

Records live in a heap addressed by 8-aligned integers; null is 0. Before
normalization record fields hold source-shaped values; after, they hold
the flattened scalars, which observation turns back into source-shaped
observables by walking each source field's type with `Program.spread`. A
normalized value of an IR type holds the values that `Program.expand` gives
that type, and observation walks the type over them in the same way."""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from typing import Optional

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
    RecordGet,
    RecordTag,
    ReplaceNull,
    Return,
    SExt,
    ShiftOp,
    Switch,
    TAdt,
    TCase,
    TFloat,
    TInt,
    TIntRep,
    Trap,
    TTuple,
    TupleMake,
    type_of_expr,
)
from .syntax import FloatType, NamedType, TupleType, TypeExpr, print_type


_ALIGN = 8
_MAX_STEPS = 200_000
_MAX_CALL_DEPTH = 64


@dataclass(frozen=True)
class Ref:
    addr: int


@dataclass
class Record:
    adt: str
    case: int
    fields: list  # source values before normalization; scalars after


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


@dataclass(frozen=True)
class Outcome:
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
    if isinstance(t, (TAdt, TCase)):
        if value is None:
            return ("null",)
        assert isinstance(value, Ref), f"expected record for {t.key}, got {value!r}"
        rec = heap.read(value.addr)
        variant = program.adts[rec.adt].variants[rec.case]
        fields = tuple(
            _observe_source(program, heap, v, ft)
            for v, (_, ft) in zip(rec.fields, variant.source_fields)
        )
        return ("adt", rec.adt, rec.case, fields)
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
    """A boxed record's field value at its source type: a tuple element by
    element, an opaque reference (always null) as null, and anything else
    at its IR type."""
    if isinstance(t, TupleType):
        return tuple(_observe_source(program, heap, v, e) for v, e in zip(value, t.elems))
    if isinstance(t, NamedType) and print_type(t) not in program.adts:
        assert value is None, f"opaque reference {print_type(t)} holds {value!r}"
        return ("null",)
    return observe(program, heap, value, type_of_expr(t, program.adts))


def _observe_normalized(program: Program, heap: Heap, values, t: IrType):
    """A normalized value of IR type `t`, taking from the iterator `values`
    the values that `Program.expand` gives `t`, in order."""
    if isinstance(t, TTuple):
        return tuple(_observe_normalized(program, heap, values, e) for e in t.elems)
    if isinstance(t, (TAdt, TCase)):
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


def _observe_record(program: Program, heap: Heap, addr):
    """A boxed ADT value after normalization: null, or a record that holds
    the values of its variant's normalized fields."""
    if addr in (0, None):
        return ("null",)
    rec = heap.read(addr)
    variant = program.adts[rec.adt].variants[rec.case]
    return ("adt", rec.adt, rec.case, _observe_fields(program, heap, variant, rec.fields))


def _observe_fields(program: Program, heap: Heap, variant, flat: list) -> tuple:
    """The observables of a variant's source fields, from the values of its
    normalized fields in order, walked as `Program.spread` spreads them."""
    values = iter(flat)

    def part(t, key, taken):
        if key is not None and program.is_unboxed(key):
            return observe_scalars(program, heap, key, taken)
        if isinstance(t, NamedType):  # a boxed ADT or an opaque reference
            return _observe_record(program, heap, taken[0])
        return ("f", taken[0]) if isinstance(t, FloatType) else taken[0]

    return tuple(program.spread(t, values, part) for _, t in variant.source_fields)


# ---------------------------------------------------------------------------
# Live records: translate source-shaped values to their flattened form


def flatten_live_record(program: Program, heap: Heap, value, t: IrType):
    """Rewrite a (possibly nested) value so unboxed ADT records become their
    encoded scalars and boxed records store flattened fields. The heap is
    rewritten in place; returns the new value."""
    if isinstance(t, TInt):
        return value
    if isinstance(t, TFloat):
        return value
    if isinstance(t, TTuple):
        return tuple(
            flatten_live_record(program, heap, v, e) for v, e in zip(value, t.elems)
        )
    if isinstance(t, (TAdt, TCase)):
        if value is None:
            return 0
        assert isinstance(value, Ref)
        rec = heap.read(value.addr)
        mono = program.adts[rec.adt]
        variant = mono.variants[rec.case]
        flat = _flatten_fields(program, heap, variant, rec.fields)
        if program.is_unboxed(rec.adt):
            layout = program.layouts[rec.adt]
            values = {f.name: v for f, v in zip(variant.fields, flat)}
            return codec.encode_variant(layout, rec.case, values)
        rec.fields = flat
        return value.addr
    raise TypeError(f"cannot flatten at {t!r}")


def _flatten_fields(program: Program, heap: Heap, variant, source_values: list) -> list:
    flat: list = []
    for (fname, ftype), v in zip(variant.source_fields, source_values):
        flat.extend(_flatten_one(program, heap, ftype, v))
    return flat


def _flatten_one(program: Program, heap: Heap, ftype, v) -> list:
    if isinstance(ftype, TupleType):
        out: list = []
        for elem, ev in zip(ftype.elems, v):
            out.extend(_flatten_one(program, heap, elem, ev))
        return out
    if isinstance(ftype, NamedType):
        key = print_type(ftype)
        if key not in program.adts:
            return [v if isinstance(v, int) else 0]
        result = flatten_live_record(program, heap, v, TAdt(key))
        if isinstance(result, list):
            return result  # scalars of an unboxed value
        return [result]  # address of a boxed record
    return [v]


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
            env[ins.dst] = None if ins.value is None else ins.value
            if ins.value is None and program.normalized:
                env[ins.dst] = 0
            return
        if isinstance(ins, Alloc):
            values = [env[a] for a in ins.args]
            addr = self.heap.alloc(Record(ins.adt, ins.case, values))
            env[ins.dst] = addr if program.normalized else Ref(addr)
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
            v = env[ins.src]
            if v is None:
                raise TrapSignal("null-access")
            assert isinstance(v, Ref)
            env[ins.dst] = self.heap.read(v.addr).case
            return
        if isinstance(ins, ReplaceNull):
            v = env[ins.src]
            env[ins.dst] = self._default_value(ins.adt, depth) if v is None else v
            return
        if isinstance(ins, Eq):
            a = self._observe(env[ins.a], ins.type)
            b = self._observe(env[ins.b], ins.type)
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
        if isinstance(ins, RecordGet):
            rec = self._deref_case(env[ins.src], ins.adt, ins.case)
            env[ins.dst] = rec.fields[ins.index]
            return
        if isinstance(ins, RecordTag):
            v = env[ins.src]
            if v in (0, None):
                raise TrapSignal("null-access")
            env[ins.dst] = self.heap.read(v).case
            return
        if isinstance(ins, IsNull):
            v = env[ins.src]
            env[ins.dst] = 1 if v in (0, None) else 0
            return
        raise AssertionError(f"unknown instruction {ins!r}")

    def _observe(self, value, t: IrType):
        return observe(self.program, self.heap, value, t)

    def _deref_case(self, v, adt: str, case: int) -> Record:
        if v is None or v == 0:
            raise TrapSignal("null-access")
        addr = v.addr if isinstance(v, Ref) else v
        rec = self.heap.read(addr)
        if rec.adt != adt or rec.case != case:
            raise TrapSignal("bad-case")
        return rec

    def _default_value(self, key: str, depth: int):
        return default_value(self.program, self.heap, key, depth)


def default_value(program: Program, heap: Heap, key: str, depth: int = 0):
    """The ADT's default: an instance of the first declared variant with
    every field set to its own default."""
    if depth > _MAX_CALL_DEPTH:
        raise TrapSignal("call-depth")
    variant = program.adts[key].variants[0]
    values = [_default_for_type(program, heap, t, depth + 1) for _, t in variant.source_fields]
    return Ref(heap.alloc(Record(key, 0, values)))


def _default_for_type(program: Program, heap: Heap, ftype, depth: int):
    if isinstance(ftype, TupleType):
        return tuple(_default_for_type(program, heap, e, depth) for e in ftype.elems)
    if isinstance(ftype, NamedType):
        key = print_type(ftype)
        if key in program.adts:
            return default_value(program, heap, key, depth)
        return None  # opaque reference defaults to null
    return 0


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
