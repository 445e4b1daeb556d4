"""Compilation targets as scalar-kind tables, ADT monomorphization, the
IR's types, and unboxing eligibility.

A scalar kind classifies the machine location a scalar may occupy. The
target maps every concrete type to the non-empty set of kinds that can
physically hold it; reference types map to reference-capable kinds only.
The kinds of one class share one width: 64 bits for `int64` and
`float64`, the word width for `ref`.

Monomorphization lowers each source field's type once, to the IR type that
the checker, the normalizer, the interpreter and the program generator
read; no later phase sees the parser's type expressions. A named type that
is not declared, such as `string`, is an opaque reference type: it lowers
to a `TAdt` whose key names no ADT.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from itertools import combinations
from typing import NamedTuple, Optional, Union

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
        if self.word_width < 1:
            raise ValueError(f"target {self.name}: word_width must be positive")
        known = ("int32", "int64", "float32", "float64", "ref")
        unknown = sorted(set(self.kind_table).difference(known))
        if unknown:
            raise ValueError(f"target {self.name}: unknown kind class {unknown[0]}")
        for cls in known:
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
        # a 64-bit value needs a 64-bit scalar, and a reference a word
        for cls, width in (("int64", 64), ("float64", 64), ("ref", self.word_width)):
            have = next(iter(self.kind_table[cls])).width(self.word_width)
            if have != width:
                raise ValueError(
                    f"target {self.name}: {cls} kinds are {have} bits wide, not {width}"
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
    """Build a target from a JSON kind-table object (or a path to one).

    A missing key raises KeyError, and a value of the wrong JSON type, or
    one the target refuses, ValueError."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as f:
            source = json.load(f)
    if not isinstance(source, dict):
        raise ValueError(f"a target is a JSON object, not {json.dumps(source)}")
    kinds = _typed(source, "kinds", dict)
    table = {}
    for cls, names in kinds.items():
        if not isinstance(names, list) or not all(isinstance(k, str) for k in names):
            raise ValueError(f"kinds.{cls} must be a list of kind names, not {json.dumps(names)}")
        table[cls] = frozenset(_kind(cls, k) for k in names)
    tagging = None
    if source.get("ref_tagging") is not None:
        rt = _typed(source, "ref_tagging", dict)
        if rt:
            n = _typed(rt, "free_low_bits", int, "ref_tagging.")
            tagging = RefTagging(_low_bits(rt["ref_pattern"], n),
                                 _low_bits(rt["value_pattern"], n))
    return Target(
        name=_typed(source, "name", str),
        word_width=_typed(source, "word_width", int),
        kind_table=table,
        ref_tagging=tagging,
    )


def _kind(cls: str, name: str) -> ScalarKind:
    """The kind that `name` names in kind class `cls` of a target file; an
    unknown name is refused with its class."""
    try:
        return ScalarKind(name)
    except ValueError:
        raise ValueError(f"kinds.{cls}: {name!r} is not a kind") from None


_JSON_TYPE_NAMES = {dict: "an object", int: "an integer", str: "a string"}


def _typed(obj: dict, key: str, want: type, prefix: str = ""):
    """`obj[key]`, refused unless it has JSON type `want`; a bool is not an
    integer."""
    value = obj[key]
    if not isinstance(value, want) or (want is int and isinstance(value, bool)):
        raise ValueError(
            f"{prefix}{key} must be {_JSON_TYPE_NAMES[want]}, not {json.dumps(value)}"
        )
    return value


def _low_bits(text: str, n: int) -> BitPattern:
    """A target file's ref_tagging pattern: `n` characters over '0', '1' and
    'u' (free), LSB first."""
    if not isinstance(text, str) or len(text) != n or not set(text) <= set("01u"):
        raise ValueError(f"ref_tagging pattern {text!r} is not {n} characters over 0, 1 and u")
    return parse_pattern(text[::-1])


# ---------------------------------------------------------------------------
# IR types


class TInt(NamedTuple):
    width: int
    signed: bool = False


class TFloat(NamedTuple):
    width: int


class TTuple(NamedTuple):
    elems: tuple["IrType", ...]


class TAdt(NamedTuple):
    key: str


class TIntRep(NamedTuple):
    """Packed bits backed by an integer of a known scalar kind; the kind
    tells later phases which values may carry references."""

    width: int
    kind: str


IrType = Union[TInt, TFloat, TTuple, TAdt, TIntRep]

BOOL = TInt(1, False)


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
    """One normalized field: a value that fits in a single scalar, and its
    IR type after normalization."""

    name: str
    width: int
    kinds: KindSet
    type: IrType
    signed: bool = False
    ref_mode: str = REF_NONE


class MonoVariant(NamedTuple):
    name: str
    source_fields: tuple[tuple[str, IrType], ...]  # each source field's IR type
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
    """Substitute type arguments, lower every field's type to its IR type,
    and normalize every field to scalars: tuples flatten to one field per
    element, boxed ADT fields become references, unboxed ADT fields expand
    to their layout's scalars."""
    if len(type_args) != len(decl.type_params):
        raise MonoError(
            f"{decl.name} expects {len(decl.type_params)} type arguments, got {len(type_args)}"
        )
    bindings = dict(zip(decl.type_params, type_args))
    key = instantiation_key(decl.name, type_args)
    variants = []
    for v in decl.variants:
        source_fields: list[tuple[str, IrType]] = []
        fields: list[FieldSlot] = []
        for fname, ftype in v.fields:
            t = _normalize_field(fname, substitute(ftype, bindings), env, fields)
            source_fields.append((fname, t))
        variants.append(MonoVariant(v.name, tuple(source_fields), tuple(fields)))
    return MonoAdt(
        name=key,
        variants=tuple(variants),
        recursive=key in env.recursive_keys,
        captured=decl.captured,
        unboxed_annot=decl.unboxed,
        packing=_flatten_adt_packing(decl, bindings, variants, env),
    )


def _normalize_field(name: str, t: TypeExpr, env: AdtEnv, out: list[FieldSlot]) -> IrType:
    """Append to `out` the normalized fields of source field `name`, in the
    order that `ir.Program.spread` walks a value of its type, and return
    that type lowered to its IR type."""
    if isinstance(t, TupleType):
        return TTuple(tuple(
            _normalize_field(f"{name}.{i}", elem, env, out) for i, elem in enumerate(t.elems)
        ))
    kinds = get_scalar_kinds(t, env.target)
    if isinstance(t, NamedType):
        key = print_type(t)
        info = env.resolved.get(key) if t.name in env.decls else None
        if info is not None and not info.disposition.boxed:
            _embed_unboxed(name, key, info, env, out)
        else:
            # a boxed (or in-flight recursive, hence boxed) instantiation, or an
            # opaque reference type such as Array<byte> or string, which is
            # bits after normalization
            word = env.target.word_width
            rep = TAdt(key) if t.name in env.decls else TIntRep(word, min(k.value for k in kinds))
            out.append(FieldSlot(name, word, kinds, rep, ref_mode=REF_PLAIN))
        return TAdt(key)
    if isinstance(t, FloatType):
        lowered = TFloat(t.width)
    elif isinstance(t, BoolType):
        lowered = BOOL
    else:
        lowered = TInt(t.width, t.signed)
    out.append(FieldSlot(name, lowered.width, kinds, lowered,
                         signed=isinstance(lowered, TInt) and lowered.signed))
    return lowered


def _embed_unboxed(name: str, ref_key: str, info: ResolvedAdt, env: AdtEnv,
                   out: list[FieldSlot]) -> None:
    layout = info.layout
    assert layout is not None, f"unboxed {ref_key} has no layout"
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
        out.append(FieldSlot(f"{name}.{i}", width, slot.kinds, slot.type, ref_mode=mode))


def _flatten_adt_packing(decl: AdtDecl, bindings: dict[str, TypeExpr],
                         variants: list[MonoVariant], env: AdtEnv):
    if not decl.has_packing:
        return None
    per_variant: list[Optional[tuple[AnnotationEntry, ...]]] = []
    for i, variant in enumerate(variants):
        exprs = decl.packing_for_variant(i)
        if exprs is None:
            per_variant.append(None)
            continue
        gamma = {f.name: f.width for f in variant.fields}
        # the source types as written, so that diagnostics print `bool`, not u1
        sources = {n: print_type(substitute(t, bindings)) for n, t in decl.variants[i].fields}
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
