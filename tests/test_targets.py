import json
import math
import pathlib
import random
import re
import time

import pytest

from adtlayout import codec
from adtlayout.pipeline import process_adts
from adtlayout.syntax import parse_program, parse_type
from adtlayout.distinguish import BitPattern
from adtlayout.targets import (
    BUILTIN_TARGETS,
    JVM,
    X64,
    X86_32,
    REF_PLAIN,
    AdtEnv,
    RefTagging,
    ScalarKind,
    TAdt,
    UnboxOptions,
    get_scalar_kinds,
    load_target,
    monomorphize_adt,
    unboxing_eligibility,
)


def ks(*names):
    return frozenset(ScalarKind(n) for n in names)


def test_u2_on_x64():
    assert get_scalar_kinds(parse_type("u2"), X64) == ks("B64", "F64", "R64")


def test_array_byte_on_jvm_is_ref_only():
    assert get_scalar_kinds(parse_type("Array<byte>"), JVM) == ks("Ref")


def test_int_float_intersection_on_x86_32():
    ints = get_scalar_kinds(parse_type("int"), X86_32)
    floats = get_scalar_kinds(parse_type("float"), X86_32)
    assert ints == ks("B32")
    assert floats == ks("B32", "F32")
    assert ints & floats == ks("B32")


def test_every_builtin_target_total():
    types = ["bool", "u1", "u8", "i32", "u33", "i64", "f32", "f64", "Array<byte>", "string"]
    for target in BUILTIN_TARGETS.values():
        for t in types:
            kinds = get_scalar_kinds(parse_type(t), target)
            assert kinds, f"{t} empty on {target.name}"


def test_load_target_roundtrip(tmp_path):
    spec = {
        "name": "custom32",
        "word_width": 32,
        "kinds": {
            "int32": ["B32"],
            "int64": ["B64"],
            "float32": ["F32"],
            "float64": ["F64"],
            "ref": ["R32"],
        },
        "ref_tagging": None,
    }
    p = tmp_path / "target.json"
    p.write_text(json.dumps(spec))
    t = load_target(str(p))
    assert t.word_width == 32
    assert get_scalar_kinds(parse_type("u7"), t) == ks("B32")


def test_load_target_parses_ref_tagging_lsb_first():
    spec = {
        "name": "tag3",
        "word_width": 64,
        "kinds": {cls: ["R64"] for cls in ("int32", "int64", "float32", "float64", "ref")},
        "ref_tagging": {"free_low_bits": 3, "ref_pattern": "0u1", "value_pattern": "1u1"},
    }
    tagging = load_target(spec).ref_tagging
    assert tagging.free_low_bits == 3
    assert tagging.ref_pattern == BitPattern(3, const=0b101, ones=0b100)
    assert tagging.value_pattern == BitPattern(3, const=0b101, ones=0b101)
    assert X64.ref_tagging.free_low_bits == 2


@pytest.mark.parametrize(
    "ref, value",
    [
        (BitPattern(2, const=0b01), BitPattern(1, const=0b1, ones=0b1)),  # widths differ
        (BitPattern(2), BitPattern(2)),  # no constant bit
        (BitPattern(2, const=0b11, ones=0b10), BitPattern(2, const=0b01, ones=0b00)),
    ],
)
def test_ref_tagging_rejects_indistinguishable_patterns(ref, value):
    with pytest.raises(ValueError):
        RefTagging(ref, value)


def env_for(src: str, target=X64) -> AdtEnv:
    decls = parse_program(src)
    return AdtEnv(decls={d.name: d for d in decls}, target=target)


def test_monomorphize_option_u32():
    env = env_for("type Option<T> { case None; case Some(val: T); }")
    mono = monomorphize_adt(env.decls["Option"], (parse_type("u32"),), env)
    assert mono.name == "Option<u32>"
    assert [v.name for v in mono.variants] == ["None", "Some"]
    some = mono.variants[1]
    assert len(some.fields) == 1
    assert some.fields[0].width == 32


def test_monomorphize_flattens_tuples():
    env = env_for("type T { case A(p: (u8, u8)); }")
    mono = monomorphize_adt(env.decls["T"], (), env)
    fields = mono.variants[0].fields
    assert [f.name for f in fields] == ["p.0", "p.1"]
    assert all(f.width == 8 for f in fields)


def test_recursive_flag_via_pipeline():
    decls = parse_program(
        "type List<T> { case Nil; case Cons(head: T, tail: List<T>); }"
    )
    out = process_adts(decls, X64, requests=[parse_type("List<u32>")])
    r = out.resolved["List<u32>"]
    assert r.mono.recursive
    assert r.disposition.boxed and r.disposition.reason == "recursive"


def test_mutual_recursion_detected():
    decls = parse_program(
        "type Even { case Zero; case SuccE(p: Odd); }"
        "type Odd { case SuccO(p: Even); }"
    )
    out = process_adts(decls, X64)
    assert out.resolved["Even"].disposition.reason == "recursive"
    assert out.resolved["Odd"].disposition.reason == "recursive"


def test_monomorphize_idempotent_on_concrete():
    env = env_for("type T { case A(x: u8, y: f32); }")
    m1 = monomorphize_adt(env.decls["T"], (), env)
    m2 = monomorphize_adt(env.decls["T"], (), env)
    assert m1.variants == m2.variants


def test_eligibility_recursive_beats_unboxed_annotation():
    decls = parse_program(
        "type List<T> #unboxed { case Nil; case Cons(head: T, tail: List<T>); }"
    )
    out = process_adts(decls, X64, requests=[parse_type("List<u8>")])
    d = out.resolved["List<u8>"].disposition
    assert d.boxed and d.reason == "recursive"


def test_eligibility_captured():
    decls = parse_program("type F #captured #unboxed { case A(x: u8); case B; }")
    out = process_adts(decls, X64)
    d = out.resolved["F"].disposition
    assert d.boxed and d.reason == "captured"


def test_eligibility_all_nullary_always_unboxed():
    decls = parse_program("type Color { case Red; case Green; case Blue; }")
    out = process_adts(decls, X64)
    d = out.resolved["Color"].disposition
    assert not d.boxed and d.reason == "all-nullary"


def test_eligibility_single_variant_auto_limit():
    decls = parse_program(
        "type S2 { case C(a: u8, b: u8); }"
        "type S3 { case C(a: u8, b: u8, c: u8); }"
    )
    out = process_adts(decls, X64, options=UnboxOptions(auto_unbox_limit=2))
    assert not out.resolved["S2"].disposition.boxed
    assert out.resolved["S2"].disposition.reason == "auto"
    assert out.resolved["S3"].disposition.boxed
    assert out.resolved["S3"].disposition.reason == "default"


def test_eligibility_default_boxed():
    decls = parse_program("type T { case A(x: int); case B(y: float); }")
    out = process_adts(decls, X64)
    assert out.resolved["T"].disposition.boxed


def test_unboxed_field_embeds_inner_scalars():
    decls = parse_program(
        "type Inner #unboxed { case N; case S(v: u8); }"
        "type Outer { case C(o: Inner, extra: u4); }"
    )
    out = process_adts(decls, X64)
    outer = out.resolved["Outer"].mono
    fields = outer.variants[0].fields
    assert [f.name for f in fields] == ["o.0", "extra"]
    assert fields[0].type == out.resolved["Inner"].layout.slots[0].type
    # the embedded scalar only needs the inner layout's used bits
    assert fields[0].width == out.resolved["Inner"].layout.used_width(0)


def test_boxed_field_is_reference():
    decls = parse_program(
        "type Big { case A(x: u64, y: u64, z: u64); }"
        "type Holder { case H(b: Big); }"
    )
    out = process_adts(decls, X64)
    f = out.resolved["Holder"].mono.variants[0].fields[0]
    assert f.ref_mode == REF_PLAIN
    assert f.type == TAdt("Big")
    assert f.width == 64


def test_monomorphize_wrong_arity():
    from adtlayout.targets import MonoError

    env = env_for("type Option<T> { case None; case Some(val: T); }")
    with pytest.raises(MonoError):
        monomorphize_adt(env.decls["Option"], (), env)


def test_infinite_instantiation_chain_rejected():
    from adtlayout.targets import MonoError

    decls = parse_program("type Nest<T> { case C(inner: Nest<(T, T)>); }")
    with pytest.raises(MonoError):
        process_adts(decls, X64, requests=[parse_type("Nest<u8>")])


def _nested(levels: int) -> str:
    return "L<" * levels + "u8" + ">" * levels


@pytest.mark.parametrize("levels", [8, 9, 64])
def test_written_nesting_is_not_polymorphic_recursion(levels):
    """Only growth counts: a field type written many levels deep is laid
    out, down to the parser's 64-bracket limit."""
    decls = parse_program(
        "type L<T> #unboxed { case N; case C(h: T); }"
        f"type U {{ case A(x: {_nested(levels)}); }}"
    )
    out = process_adts(decls, X64)
    assert _nested(levels) in out.resolved and _nested(1) in out.resolved


@pytest.mark.parametrize("source, name", [
    ("type P<T> { case N; case A(x: P<(T, T)>); }", "P"),
    ("type A<T> { case N; case X(x: B<(T, T)>); } type B<T> { case M; case Y(y: A<T>); }", "A"),
    ("type P<T> { case N; case A(x: P<P<T>>); }", "P"),
], ids=["direct", "mutual", "nested"])
def test_polymorphic_recursion_refused(source, name):
    from adtlayout.targets import MonoError

    decls = parse_program(source + f" type U {{ case A(x: {name}<u8>); }}")
    message = f"instantiating {name} nests types deeper than 8 levels; is it polymorphically recursive?"
    with pytest.raises(MonoError, match=f"^{re.escape(message)}$"):
        process_adts(decls, X64)


def test_ground_mention_starts_a_new_chain():
    decls = parse_program("type D<T> { case N; case A(x: T, next: D<(u8, u8)>); }")
    out = process_adts(decls, X64, requests=[parse_type("D<u8>")])
    assert out.order == ["D<u8>", "D<(u8, u8)>"]


def _chain(grow: str, length: int) -> str:
    return "".join(
        f"type A{i}<T> {{ case N; case C(x: A{i + 1}<{grow}>); }}" for i in range(length)
    ) + f"type A{length}<T> {{ case N; case C(x: T); }} type U {{ case A(x: A0<u8>); }}"


@pytest.mark.parametrize("source, name", [
    (_chain("(T, T)", 24), "A15"),
    ("type L<T> { case N; case C(h: T); }" + _chain("L<T>", 200), "A64"),
], ids=["doubling", "deepening"])
def test_type_arguments_built_from_parameters_are_bounded(source, name):
    """Each type instantiates the next at a larger argument, without
    recursion: the arguments would reach 2^24 leaves or 200 levels, and are
    refused at 65536 parts or 64 levels."""
    from adtlayout.targets import MonoError

    message = (
        f"instantiating {name} builds type arguments deeper than 64 levels"
        " or of more than 65536 parts in all"
    )
    with pytest.raises(MonoError, match=f"^{message}$"):
        process_adts(parse_program(source), X64)


@pytest.mark.parametrize("source, name", [
    (
        "type A<T> { case N; case W(w: A<(T, u8)>); case X(x: A<(u8, T)>);"
        " case Y(y: A<(T, u16)>); case Z(z: A<(u16, T)>); }",
        "A",
    ),
    ("type P<T> { case N; case A(x: P<(" + ", ".join(["T"] * 10) + ")>); }", "P"),
], ids=["branching", "widening"])
def test_polymorphic_recursion_named_at_the_parts_bound(source, name):
    """Recursion that branches or widens spends the parts bound before it
    grows 8 levels; the bound's message then names the recursion."""
    from adtlayout.targets import MonoError

    decls = parse_program(source + f" type U {{ case C(u: {name}<u8>); }}")
    message = (
        f"instantiating {name} builds type arguments deeper than 64 levels"
        " or of more than 65536 parts in all; is it polymorphically recursive?"
    )
    with pytest.raises(MonoError, match=f"^{re.escape(message)}$"):
        process_adts(decls, X64)


def test_get_scalar_kinds_unknown_type():
    with pytest.raises(KeyError):
        get_scalar_kinds(parse_type("(u8, u8)"), X64)


def test_recursion_check_order_independent():
    a = parse_program("type L { case Nil; case Cons(head: u8, tail: L); }")
    b = parse_program("type L { case Nil; case Cons(tail: L, head: u8); }")
    for decls in (a, b):
        out = process_adts(decls, X64)
        assert out.resolved["L"].disposition.reason == "recursive"


EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


@pytest.mark.parametrize("name, like", [("wasm32", X86_32), ("wasm-gc", JVM)])
def test_wasm_targets_lay_out_the_corpus(name, like):
    """Wasm needs no solver code of its own. With references as i32
    addresses into linear memory its kind table is x86-32's; with Wasm GC
    references it is jvm's, with a 32-bit word. Each target file lays out
    the whole corpus, and each layout round-trips through the codec."""
    from corpus import CORPUS_SIZE, build_corpus, random_field_values

    target = load_target(str(EXAMPLES / f"{name}.json"))
    assert (target.name, target.word_width) == (name, 32)
    assert target.kind_table == like.kind_table and target.ref_tagging is None
    out = build_corpus(target)
    assert len(out.order) == CORPUS_SIZE
    rng = random.Random(name)
    for key, lay in out.layouts().items():
        assert all(s.width == 32 for s in lay.slots if s.ref_bearing), key
        for vi, variant in enumerate(lay.adt.variants):
            values = random_field_values(lay, vi, rng)
            scalars = codec.encode_variant(lay, vi, values)
            assert codec.variant_of(lay, scalars) == vi
            for f in variant.fields:
                assert codec.decode_field(lay, vi, f.name, scalars) == values[f.name]
    if like is X86_32:
        same = build_corpus(X86_32).layouts()
        assert {k: lay.to_json() for k, lay in out.layouts().items()} == {
            k: lay.to_json() for k, lay in same.items()}


def type_chain(n: int) -> str:
    """`n` types, each holding the one before in one of its three cases."""
    lines = ["type T0 { case A; case B; case C; }"]
    lines += [f"type T{i} {{ case A(x: T{i - 1}); case B; case C; }}" for i in range(1, n)]
    return "\n".join(lines)


def test_chain_of_types_is_processed_in_linear_time():
    """Eight times the types take about eight to eleven times as long to
    discover, order and resolve (the garbage collector's share grows with
    the heap); a discovery quadratic in the instantiations takes over
    twenty times as long at these sizes. A ratio of two times on
    one machine does not depend on that machine's speed; each size keeps
    its least of three runs, taken in turn so that a drift in speed reaches
    both."""
    decls = {n: parse_program(type_chain(n)) for n in (2000, 16000)}
    best = dict.fromkeys(decls, math.inf)
    for _ in range(3):
        for n, d in decls.items():
            start = time.perf_counter()
            out = process_adts(d, X64)
            best[n] = min(best[n], time.perf_counter() - start)
            assert out.order == [f"T{i}" for i in range(n)]
    assert best[16000] < 18 * best[2000]
