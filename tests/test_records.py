"""Value records are NamedTuples or plain classes with `__slots__`: both are
quicker to define and to build than dataclasses. A class stays a dataclass
only for a reason named here, so a new record is a NamedTuple or a slotted
class unless this list changes. The tests below pin what the dataclass
options gave the classes that are slotted now."""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil
import typing

import pytest

import adtlayout
from adtlayout import ir
from adtlayout.distinguish import BitPattern
from adtlayout.flatten import SizeContext
from adtlayout.interp import Heap
from adtlayout.pipeline import process_adts
from adtlayout.records import Record
from adtlayout.solver import SingleVariant
from adtlayout.syntax import BoolType, IntType, parse_program
from adtlayout.targets import X64, AdtEnv, RefTagging, ScalarKind, Target

STILL_DATACLASSES = {
    "ir.Const": "an IR instruction that perfbench's self-test rewrites with dataclasses.replace",
}

# one source that holds every kind of syntax node with a `pos`
_SYNTAX_SOURCE = (
    "packing P(a: 2): 4 = #concat(0b_aa, 0b, 0b_11);\n"
    "type T #unboxed { case A(x: u2, y: u2) #packing #concat(P(x), #solve(y)); case B; }\n"
)


def _classes():
    for info in pkgutil.iter_modules(adtlayout.__path__):
        module = importlib.import_module(f"adtlayout.{info.name}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__:
                yield f"{info.name}.{name}", cls


def test_only_the_listed_classes_are_dataclasses():
    found = {name for name, cls in _classes() if dataclasses.is_dataclass(cls)}
    assert found == set(STILL_DATACLASSES)


def test_dataclasses_replace_rewrites_every_ir_instruction():
    """A `Const` is rewritten with dataclasses.replace. Every other
    instruction, rebuilt from its fields, equals the original, and equals
    no instruction of another class with the same field values."""
    for cls in typing.get_args(ir.Instr):
        names = list(inspect.signature(cls).parameters)
        ins = cls(*names)
        if cls is ir.Const:
            for name in names:
                changed = dataclasses.replace(ins, **{name: "new"})
                assert type(changed) is cls
                assert [getattr(changed, n) for n in names] == ["new" if n == name else n for n in names]
            continue
        assert list(cls.__slots__) == names
        rebuilt = cls(**{n: getattr(ins, n) for n in names})
        assert rebuilt == ins and hash(rebuilt) == hash(ins)
        assert repr(rebuilt) == f"{cls.__name__}(" + ", ".join(f"{n}={n!r}" for n in names) + ")"
        assert cls(*names[:-1], "new") != ins
    assert ir.GetTag("d", "T", "s") != ir.ReplaceNull("d", "T", "s")


def _syntax_nodes(node):
    if isinstance(node, tuple):
        for item in node:
            yield from _syntax_nodes(item)
    elif isinstance(node, Record):
        yield node
        for name in node.__slots__:
            yield from _syntax_nodes(getattr(node, name))


def test_syntax_nodes_leave_pos_out_of_equality_and_hash():
    one = [n for d in parse_program(_SYNTAX_SOURCE) for n in _syntax_nodes(d)]
    moved = "\n\n  " + _SYNTAX_SOURCE.replace(" ", "  ")
    two = [n for d in parse_program(moved) for n in _syntax_nodes(d)]
    assert {type(n).__name__ for n in one} == {
        cls.__name__ for name, cls in _classes() if name.startswith("syntax.") and issubclass(cls, Record)}
    assert len(one) == len(two)
    for a, b in zip(one, two):
        assert a.pos != b.pos
        assert a == b and hash(a) == hash(b)


def test_targets_and_ref_taggings_are_validated_when_built():
    kinds = {"int32": frozenset({ScalarKind.B32}), "int64": frozenset({ScalarKind.B64}),
             "float32": frozenset({ScalarKind.F32}), "float64": frozenset({ScalarKind.F64}),
             "ref": frozenset({ScalarKind.REF})}
    assert Target("t", 64, kinds).class_widths == (32, 64, 32, 64, 64)
    with pytest.raises(ValueError, match="word_width must be positive"):
        Target("t", 0, kinds)
    with pytest.raises(ValueError, match="differ in width"):
        RefTagging(BitPattern(2, const=0b01), BitPattern(3, const=0b11, ones=0b01))


@pytest.mark.parametrize("make", [
    lambda: AdtEnv({}, X64), SizeContext, Heap, lambda: ir.Block("b"),
    lambda: ir.Function("f", (), ir.BOOL, "b"),
], ids=["AdtEnv", "SizeContext", "Heap", "Block", "Function"])
def test_mutable_records_share_no_container(make):
    one, two = make(), make()
    containers = [n for n in one.__slots__ if isinstance(getattr(one, n), (dict, list, set, SizeContext))]
    assert containers
    for name in containers:
        assert getattr(one, name) is not getattr(two, name)


def test_attributes_set_after_construction():
    layouts = process_adts(parse_program("type S #unboxed { case A; case B(x: u8); }"), X64)
    solution = layouts.layouts()["S"]
    solution.steps_used, solution.finished = 7, False
    assert (solution.steps_used, solution.finished) == (7, False)
    program = ir.Program.of_layouts(layouts, X64)
    program.normalized, program.functions = True, {"f": ir.Function("f", (), ir.BOOL, "b")}
    assert program.normalized and list(program.functions) == ["f"]


def test_namedtuple_records_behave_as_tuples():
    """The two ways a NamedTuple differs from a frozen dataclass. A record
    with no fields is an empty tuple, so no code tests one for truth. A
    record equals any tuple with the same items, a record of another class
    too, so no ==, in, dict or set mixes such classes."""
    assert not BoolType() and not SingleVariant()
    assert IntType(8, False) == ir.TInt(8, False)
    assert ir.Jump("a") == ir.Return("a")
    assert len({ir.Jump("a"), ir.Return("a")}) == 1
