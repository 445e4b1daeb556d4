"""Value records are NamedTuples: they are quicker to define and to build
than frozen dataclasses. A class stays a dataclass only for a reason named
here, so a new record is a NamedTuple unless this list changes."""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil
import typing

import adtlayout
from adtlayout import ir
from adtlayout.solver import SingleVariant
from adtlayout.syntax import BoolType, IntType

_INSTRUCTION = "an IR instruction: perfbench's self-test rewrites one with dataclasses.replace"
_POS = "a syntax node: its pos is left out of equality"
_VALIDATED = "validated in __post_init__"
_SET_LATER = "attributes set after construction"
_OWN_DICTS = "each instance gets its own dicts (default_factory), filled after construction"

STILL_DATACLASSES = {
    "ir.Const": _INSTRUCTION,
    "ir.Alloc": _INSTRUCTION,
    "ir.GetField": _INSTRUCTION,
    "ir.GetContents": _INSTRUCTION,
    "ir.GetTag": _INSTRUCTION,
    "ir.ReplaceNull": _INSTRUCTION,
    "ir.Eq": _INSTRUCTION,
    "ir.Call": _INSTRUCTION,
    "ir.TupleMake": _INSTRUCTION,
    "ir.Project": _INSTRUCTION,
    "ir.BinOp": _INSTRUCTION,
    "ir.ShiftOp": _INSTRUCTION,
    "ir.SExt": _INSTRUCTION,
    "ir.Bitcast": _INSTRUCTION,
    "ir.IsNull": _INSTRUCTION,
    "ir.Block": _SET_LATER,  # term, by the generator and the normalizer
    "ir.Function": _SET_LATER,  # ret and blocks
    "ir.Program": _SET_LATER,  # normalized and functions, by tests
    "syntax.BitLayout": _POS,
    "syntax.FieldRef": _POS,
    "syntax.Apply": _POS,
    "syntax.Concat": _POS,
    "syntax.Solve": _POS,
    "syntax.Empty": _POS,
    "syntax.PackingDecl": _POS,
    "syntax.Variant": _POS,
    "syntax.AdtDecl": _POS,
    "targets.RefTagging": _VALIDATED,
    "targets.Target": _VALIDATED,
    "targets.AdtEnv": _OWN_DICTS,
    "flatten.SizeContext": _OWN_DICTS,
    "solver.LayoutSolution": _SET_LATER,  # steps_used and finished, by the search
    "interp.Heap": _SET_LATER,  # next_addr, by alloc
}


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
    classes = typing.get_args(ir.Instr)
    assert {f"ir.{cls.__name__}" for cls in classes} == {
        name for name, why in STILL_DATACLASSES.items() if why == _INSTRUCTION}
    for cls in classes:
        names = [f.name for f in dataclasses.fields(cls)]
        ins = cls(*names)
        for name in names:
            changed = dataclasses.replace(ins, **{name: "new"})
            assert type(changed) is cls
            assert [getattr(changed, n) for n in names] == ["new" if n == name else n for n in names]


def test_namedtuple_records_behave_as_tuples():
    """The two ways a NamedTuple differs from a frozen dataclass. A record
    with no fields is an empty tuple, so no code tests one for truth. A
    record equals any tuple with the same items, a record of another class
    too, so no ==, in, dict or set mixes such classes."""
    assert not BoolType() and not SingleVariant()
    assert IntType(8, False) == ir.TInt(8, False)
    assert ir.Jump("a") == ir.Return("a")
    assert len({ir.Jump("a"), ir.Return("a")}) == 1
