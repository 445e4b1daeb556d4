"""Compilation targets as scalar-kind tables, ADT monomorphization, and
unboxing eligibility.

A scalar kind classifies the machine location a scalar may occupy. The
target maps every concrete type to the non-empty set of kinds that can
physically hold it; reference types map to reference-capable kinds only.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from itertools import combinations
from typing import NamedTuple, Optional

from .distinguish import BitPattern, parse_pattern
from .flatten import AnnotationEntry, SizeContext, flatten_annotation
from .syntax import (
    AdtDecl,
    BoolType,
    FloatType,
    IntType,
    NamedType,
    TupleType,
    TypeExpr,
    print_type,
)


class ScalarKind(enum.Enum):
    B32 = "B32"
    B64 = "B64"
    R32 = "R32"
    R64 = "R64"
    REF = "Ref"
    F32 = "F32"
    F64 = "F64"

    @property
    def ref_capable(self) -> bool:
        return self in (ScalarKind.R32, ScalarKind.R64, ScalarKind.REF)

    def width(self, word_width: int) -> int:
        if self is ScalarKind.REF:
            return word_width
        return 64 if self.value.endswith("64") else 32


KindSet = frozenset[ScalarKind]


# Tagging schemes and targets stay frozen dataclasses: `__post_init__`
# validates them.
@dataclass(frozen=True)
class RefTagging:
    """Low-bit discrimination between references and packed values in one
    reference-capable scalar. The two patterns cover the free low bits; their
    free bits are usable for packed data."""

    ref_pattern: BitPattern
    value_pattern: BitPattern

    def __post_init__(self):
        ref, value = self.ref_pattern, self.value_pattern
        if ref.width != value.width:
            raise ValueError("ref_tagging patterns differ in width")
        # the two patterns must disagree at some constant bit, otherwise the
        # collector cannot tell references from values
        if not ref.const & value.const & (ref.ones ^ value.ones):
            raise ValueError("ref_tagging patterns differ at no constant bit")

    @property
    def free_low_bits(self) -> int:
        return self.ref_pattern.width


@dataclass(frozen=True)
class Target:
    name: str
    word_width: int
    kind_table: dict[str, KindSet]  # classes: int32 int64 float32 float64 ref
    ref_tagging: Optional[RefTagging] = None
    # Derived from the table: the widths of its kind classes, which are its
    # kind sets merged where they share a kind (units of two classes never
    # share a scalar, and the scalars of one class have one width); and for
    # every kind set a scalar can have, that is every non-empty subset of a
    # class, its class index.
    class_widths: tuple[int, ...] = field(init=False, repr=False, compare=False)
    class_of: dict[KindSet, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for cls in ("int32", "int64", "float32", "float64", "ref"):
            kinds = self.kind_table.get(cls)
            if not kinds:
                raise ValueError(f"target {self.name}: empty kind set for {cls}")
            widths = {k.width(self.word_width) for k in kinds}
            if len(widths) != 1:
                raise ValueError(f"target {self.name}: mixed-width kind set for {cls}")
        if not all(k.ref_capable for k in self.kind_table["ref"]):
            raise ValueError(f"target {self.name}: non-reference kind in ref set")
        tagging = self.ref_tagging
        if tagging is not None and not 0 < tagging.free_low_bits < self.word_width:
            raise ValueError(
                f"target {self.name}: free_low_bits must be in 1..{self.word_width - 1}"
            )
        classes: list[KindSet] = []
        for kinds in self.kind_table.values():
            joined = [c for c in classes if c & kinds]
            classes = [c for c in classes if not c & kinds] + [kinds.union(*joined)]
        object.__setattr__(self, "class_widths",
                           tuple(next(iter(c)).width(self.word_width) for c in classes))
        object.__setattr__(self, "class_of", {
            frozenset(ks): i for i, c in enumerate(classes)
            for r in range(1, len(c) + 1) for ks in combinations(c, r)})

    def kinds_for_int(self, width: int) -> KindSet:
        return self.kind_table["int32" if width <= 32 else "int64"]

    def kinds_for_float(self, width: int) -> KindSet:
        return self.kind_table["float32" if width == 32 else "float64"]

    @property
    def ref_kinds(self) -> KindSet:
        return self.kind_table["ref"]

    def kind_width(self, kinds: KindSet) -> int:
        return self.class_widths[self.class_of[kinds]]


def _ks(*kinds: ScalarKind) -> KindSet:
    return frozenset(kinds)


X64 = Target(
    name="x64",
    word_width=64,
    kind_table={
        "int32": _ks(ScalarKind.B64, ScalarKind.F64, ScalarKind.R64),
        "int64": _ks(ScalarKind.B64, ScalarKind.F64, ScalarKind.R64),
        "float32": _ks(ScalarKind.B64, ScalarKind.F64, ScalarKind.R64),
        "float64": _ks(ScalarKind.B64, ScalarKind.F64, ScalarKind.R64),
        "ref": _ks(ScalarKind.R64),
    },
    # bit 0 is 0 in references and 1 in packed values; bit 1 is free
    ref_tagging=RefTagging(BitPattern(2, const=0b01), BitPattern(2, const=0b01, ones=0b01)),
)

JVM = Target(
    name="jvm",
    word_width=64,
    kind_table={
        "int32": _ks(ScalarKind.B32),
        "int64": _ks(ScalarKind.B64),
        "float32": _ks(ScalarKind.F32, ScalarKind.B32),
        "float64": _ks(ScalarKind.F64, ScalarKind.B64),
        "ref": _ks(ScalarKind.REF),
    },
    ref_tagging=None,
)

# 64-bit integer fields occupy one logical B64 scalar here; splitting wide
# scalars into machine words happens in later phases, out of scope.
X86_32 = Target(
    name="x86-32",
    word_width=32,
    kind_table={
        "int32": _ks(ScalarKind.B32),
        "int64": _ks(ScalarKind.B64),
        "float32": _ks(ScalarKind.B32, ScalarKind.F32),
        "float64": _ks(ScalarKind.B64, ScalarKind.F64),
        "ref": _ks(ScalarKind.R32),
    },
    ref_tagging=None,
)

BUILTIN_TARGETS = {t.name: t for t in (X64, JVM, X86_32)}


def load_target(source: dict | str) -> Target:
    """Build a target from a JSON kind-table object (or a path to one)."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as f:
            source = json.load(f)
    table = {
        cls: frozenset(ScalarKind(k) for k in kinds)
        for cls, kinds in source["kinds"].items()
    }
    tagging = None
    if source.get("ref_tagging"):
        rt = source["ref_tagging"]
        n = rt["free_low_bits"]
        tagging = RefTagging(_low_bits(rt["ref_pattern"], n), _low_bits(rt["value_pattern"], n))
    return Target(
        name=source["name"],
        word_width=source["word_width"],
        kind_table=table,
        ref_tagging=tagging,
    )


def _low_bits(text: str, n: int) -> BitPattern:
    """A target file's ref_tagging pattern: `n` characters over '0', '1' and
    'u' (free), LSB first."""
    if not isinstance(text, str) or len(text) != n or not set(text) <= set("01u"):
        raise ValueError(f"ref_tagging pattern {text!r} is not {n} characters over 0, 1 and u")
    return parse_pattern(text[::-1])


def get_scalar_kinds(t: TypeExpr, target: Target) -> KindSet:
    """The kinds of scalars that can physically store a value of the type."""
    if isinstance(t, IntType):
        return target.kinds_for_int(t.width)
    if isinstance(t, BoolType):
        return target.kinds_for_int(1)
    if isinstance(t, FloatType):
        return target.kinds_for_float(t.width)
    if isinstance(t, NamedType):
        return target.ref_kinds
    raise KeyError(f"no scalar kind for type {print_type(t)}")


# ---------------------------------------------------------------------------
# Monomorphized ADTs


REF_NONE = "none"
REF_PLAIN = "ref"  # a reference; may share its scalar only under tagging
REF_TAGGED_WORD = "tagged_word"  # an embedded scalar that mixes refs and bits


class FieldSlot(NamedTuple):
    """One normalized field: a value that fits in a single scalar."""

    name: str
    width: int
    kinds: KindSet
    signed: bool = False
    is_float: bool = False
    ref_mode: str = REF_NONE
    adt_ref: Optional[str] = None  # instantiation key of a referenced ADT
    embedded: bool = False  # one scalar of an embedded unboxed ADT
    scalar_index: int = 0  # position within an embedded unboxed group


class MonoVariant(NamedTuple):
    name: str
    source_fields: tuple[tuple[str, TypeExpr], ...]
    fields: tuple[FieldSlot, ...]

    def field_named(self, name: str) -> FieldSlot:
        for f in self.fields:
            if f.name == name:
                return f
        raise KeyError(name)


class MonoAdt(NamedTuple):
    name: str  # canonical instantiation key, e.g. Option<u32>
    variants: tuple[MonoVariant, ...]
    recursive: bool = False
    captured: bool = False
    unboxed_annot: bool = False
    packing: Optional[tuple[Optional[tuple[AnnotationEntry, ...]], ...]] = None

    @property
    def all_nullary(self) -> bool:
        return all(not v.fields for v in self.variants)


class Disposition(NamedTuple):
    boxed: bool
    reason: str  # recursive | captured | annotation | all-nullary | auto | default


# a dataclass: each environment gets its own dict and set (`default_factory`),
# which processing fills
@dataclass
class AdtEnv:
    """Resolution context for monomorphization: declared ADTs plus the
    instantiations processed so far, each with its disposition and layout."""

    decls: dict[str, AdtDecl]
    target: Target
    packings: SizeContext = field(default_factory=SizeContext)  # verified declarations
    resolved: dict[str, "ResolvedAdt"] = field(default_factory=dict)
    recursive_keys: set[str] = field(default_factory=set)


class ResolvedAdt(NamedTuple):
    mono: MonoAdt
    disposition: Disposition
    layout: Optional[object] = None  # LayoutSolution once solved


def instantiation_key(name: str, args: tuple[TypeExpr, ...]) -> str:
    return print_type(NamedType(name, args))


def substitute(t: TypeExpr, bindings: dict[str, TypeExpr]) -> TypeExpr:
    if isinstance(t, TupleType):
        return TupleType(tuple(substitute(e, bindings) for e in t.elems))
    if isinstance(t, NamedType):
        if not t.args and t.name in bindings:
            return bindings[t.name]
        return NamedType(t.name, tuple(substitute(a, bindings) for a in t.args))
    return t


class MonoError(Exception):
    pass


def monomorphize_adt(
    decl: AdtDecl, type_args: tuple[TypeExpr, ...], env: AdtEnv
) -> MonoAdt:
    """Substitute type arguments and normalize every field to scalars:
    tuples flatten to one field per element, boxed ADT fields become
    references, unboxed ADT fields expand to their layout's scalars."""
    if len(type_args) != len(decl.type_params):
        raise MonoError(
            f"{decl.name} expects {len(decl.type_params)} type arguments, got {len(type_args)}"
        )
    bindings = dict(zip(decl.type_params, type_args))
    key = instantiation_key(decl.name, type_args)
    variants = []
    for v in decl.variants:
        source_fields = tuple((n, substitute(t, bindings)) for n, t in v.fields)
        fields: list[FieldSlot] = []
        for fname, ftype in source_fields:
            fields.extend(_normalize_field(fname, ftype, env))
        variants.append(MonoVariant(v.name, source_fields, tuple(fields)))
    return MonoAdt(
        name=key,
        variants=tuple(variants),
        recursive=key in env.recursive_keys,
        captured=decl.captured,
        unboxed_annot=decl.unboxed,
        packing=_flatten_adt_packing(decl, variants, env),
    )


def _normalize_field(name: str, t: TypeExpr, env: AdtEnv) -> list[FieldSlot]:
    """The normalized fields of source field `name`, in the order that
    `ir.Program.spread` walks a value of its type."""
    if isinstance(t, TupleType):
        out: list[FieldSlot] = []
        for i, elem in enumerate(t.elems):
            out.extend(_normalize_field(f"{name}.{i}", elem, env))
        return out
    kinds = get_scalar_kinds(t, env.target)
    if isinstance(t, NamedType):
        ref_key = instantiation_key(t.name, t.args) if t.name in env.decls else None
        info = env.resolved.get(ref_key)
        if info is not None and not info.disposition.boxed:
            return _embed_unboxed(name, ref_key, info, env)
        # a boxed (or in-flight recursive, hence boxed) instantiation, or an
        # opaque reference type such as Array<byte> or string
        return [FieldSlot(name, env.target.word_width, kinds, ref_mode=REF_PLAIN, adt_ref=ref_key)]
    if isinstance(t, FloatType):
        return [FieldSlot(name, t.width, kinds, is_float=True)]
    if isinstance(t, BoolType):
        return [FieldSlot(name, 1, kinds)]
    return [FieldSlot(name, t.width, kinds, signed=t.signed)]


def _embed_unboxed(name: str, ref_key: str, info: ResolvedAdt, env: AdtEnv) -> list[FieldSlot]:
    layout = info.layout
    assert layout is not None, f"unboxed {ref_key} has no layout"
    out: list[FieldSlot] = []
    for i, slot in enumerate(layout.slots):
        if slot.ref_bearing:
            # under tagged pointers the slot's own low bits discriminate
            # references from packed values, so the word must embed opaquely;
            # without tagging a ref slot holds only plain references
            mode = REF_TAGGED_WORD if env.target.ref_tagging else REF_PLAIN
            width = slot.width
        else:
            mode = REF_NONE
            width = layout.used_width(i)
        out.append(
            FieldSlot(f"{name}.{i}", width, slot.kinds, ref_mode=mode,
                      adt_ref=ref_key, embedded=True, scalar_index=i)
        )
    return out


def _flatten_adt_packing(decl: AdtDecl, variants: list[MonoVariant], env: AdtEnv):
    if not decl.has_packing:
        return None
    per_variant: list[Optional[tuple[AnnotationEntry, ...]]] = []
    for i, variant in enumerate(variants):
        exprs = decl.packing_for_variant(i)
        if exprs is None:
            per_variant.append(None)
            continue
        gamma = {f.name: f.width for f in variant.fields}
        sources = {n: print_type(t) for n, t in variant.source_fields}
        ctx = env.packings.with_gamma(gamma, sources)
        per_variant.append(tuple(flatten_annotation(list(exprs), ctx)))
    return tuple(per_variant)


class UnboxOptions(NamedTuple):
    auto_unbox_limit: int = 2
    budget: int = 10_000


def unboxing_eligibility(adt: MonoAdt, options: UnboxOptions = UnboxOptions()) -> Disposition:
    if adt.recursive:
        return Disposition(boxed=True, reason="recursive")
    if adt.captured:
        return Disposition(boxed=True, reason="captured")
    if adt.unboxed_annot:
        return Disposition(boxed=False, reason="annotation")
    if len(adt.variants) == 1 and len(adt.variants[0].fields) <= options.auto_unbox_limit:
        return Disposition(boxed=False, reason="auto")
    if adt.all_nullary:
        return Disposition(boxed=False, reason="all-nullary")
    return Disposition(boxed=True, reason="default")
