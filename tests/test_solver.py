import itertools
import json
import math
import random

import pytest

from adtlayout import codec, solver
from adtlayout.distinguish import tree_depth
from adtlayout.pipeline import process_adts
from adtlayout.progen import gen_decls
from adtlayout.solver import (
    AnnotationInfeasible,
    ExplicitTag,
    ScalarKind,
    SingleVariant,
    score_layout,
    solve_layout,
    trivial_layout,
)
from adtlayout.syntax import parse_program, parse_type
from adtlayout.targets import BUILTIN_TARGETS, JVM, X64, X86_32, UnboxOptions

from corpus import CORPUS_SIZE, CORPUS_SRC, TARGET_NAMES, TARGETS, solve_corpus_and_progen
from oracles import (
    oracle_best_score,
    oracle_per_variant_score,
    reference_access_cost,
    reference_case_cost,
    reference_search_tables,
)
from test_golden import (
    CASES as GOLDEN_CASES,
    WIDE_W0_X86_32,
    WIDE_W1,
    WIDE_W1_X64,
    golden_path,
    layout_json,
    solve_sweep,
)


def solve_source(src: str, target=X64, key=None, budget=10_000, requests=None):
    decls = parse_program(src)
    reqs = [parse_type(r) for r in requests] if requests else None
    out = process_adts(decls, target, requests=reqs, options=UnboxOptions(budget=budget))
    key = key or out.order[0]
    r = out.resolved[key]
    assert r.layout is not None, f"{key} was boxed: {r.disposition}"
    return r.layout


def test_option_u32_single_scalar_with_tag_bit_32():
    lay = solve_source(
        "type Option<T> #unboxed { case None; case Some(val: T); }",
        requests=["Option<u32>"],
    )
    assert len(lay.slots) == 1
    assert lay.slots[0].kind == ScalarKind.B64
    pl = lay.placements[(1, "val")]
    assert (pl.slot, pl.offset, pl.width) == (0, 0, 32)
    scheme = lay.tag_scheme
    assert isinstance(scheme, ExplicitTag)
    assert (scheme.slot, scheme.offset, scheme.width) == (0, 32, 1)
    assert codec.encode_variant(lay, 0, {}) == [0]
    assert codec.encode_variant(lay, 1, {"val": 7}) == [7 | (1 << 32)]


def test_int_float_union_one_scalar():
    lay = solve_source("type T #unboxed { case A(x: int); case B(y: float); }")
    assert len(lay.slots) == 1
    assert lay.slots[0].kind == ScalarKind.B64
    assert lay.placements[(0, "x")].offset == 0
    assert lay.placements[(1, "y")].offset == 0
    assert isinstance(lay.tag_scheme, ExplicitTag)
    assert not lay.tag_scheme.dedicated


def test_all_nullary_enum_bare_tag():
    lay = solve_source("type Color { case Red; case Green; case Blue; }")
    assert len(lay.slots) == 1
    assert lay.slots[0].width == 2
    assert lay.tag_scheme.kind_name == "bare-tag"
    assert [codec.encode_variant(lay, i, {}) for i in range(3)] == [[0], [1], [2]]


def test_trivial_layout_shape():
    decls = parse_program("type T #unboxed { case A(x: int); case B(y: float); }")
    out = process_adts(decls, X64)
    mono = out.resolved["T"].mono
    triv = trivial_layout(mono, X64)
    assert len(triv.slots) == 3  # x, y, tag
    assert triv.score.num_scalars == 3
    assert triv.score.access_cost == 0
    assert triv.score.explicit_tag_cost == 1


def test_trivial_single_variant_no_tag():
    decls = parse_program("type S { case C(a: u8); }")
    out = process_adts(decls, X64)
    triv = trivial_layout(out.resolved["S"].mono, X64)
    assert len(triv.slots) == 1
    assert isinstance(triv.tag_scheme, SingleVariant)


def test_trivial_nullary_only_single_tag_scalar():
    decls = parse_program("type E { case A; case B; }")
    out = process_adts(decls, X64)
    triv = trivial_layout(out.resolved["E"].mono, X64)
    assert len(triv.slots) == 1
    assert triv.tag_scheme.kind_name == "bare-tag"


def test_score_whole_scalar_field():
    lay = solve_source("type S { case C(a: u64); }")
    assert (lay.score.num_scalars, lay.score.access_cost, lay.score.explicit_tag_cost) == (1, 0, 0)


def test_score_option_layout():
    lay = solve_source(
        "type Option<T> #unboxed { case None; case Some(val: T); }",
        requests=["Option<u32>"],
    )
    assert lay.score.num_scalars == 1
    assert lay.score.access_cost == 3  # masked value read + shifted tag read
    assert lay.score.explicit_tag_cost == 0


def test_one_case_pinned_offsets():
    lay = solve_source("type P #unboxed { case C(a: u2, b: u2) #packing 0b_00aabb11; }")
    got = {name: (lay.placements[(0, name)].slot, lay.placements[(0, name)].offset)
           for name in "ab"}
    assert got == {"a": (0, 4), "b": (0, 2)}


def test_one_case_solve_wider_than_any_scalar_is_infeasible():
    """#solve(w, pad) needs 65 bits in one scalar: once w fills it, pad
    fits nowhere."""
    decls = parse_program("type P #unboxed { case C(w: u64, pad: u1) #packing #solve(w, pad); }")
    with pytest.raises(AnnotationInfeasible) as e:
        process_adts(decls, X64)
    assert e.value.fields == ["pad"]


def test_one_case_first_fit_from_lsb():
    lay = solve_source("type S #unboxed { case C(x: u32, y: u32); }")
    got = {name: (lay.placements[(0, name)].slot, lay.placements[(0, name)].offset)
           for name in "xy"}
    assert got == {"x": (0, 0), "y": (0, 32)}


@pytest.mark.parametrize("budget", [0, 10_000])
def test_free_field_leaves_the_solve_scalar(budget):
    """The #solve units are placed before the free fields, and the scalar of
    their #packing entry never stands in for a fresh one."""
    lay = solve_source(
        "type P #unboxed { case C(a: u60, x: u8, y: u16) #packing #solve(x, y); }", budget=budget
    )
    assert [lay.placements[(0, name)].slot for name in "axy"] == [1, 0, 0]


def test_packing_annotation_respected_verbatim():
    lay = solve_source(
        "type P { case C(a: u2, b: u2) #packing 0b_00aabb11; }"
    )
    assert lay.placements[(0, "a")].offset == 4
    assert lay.placements[(0, "b")].offset == 2
    word = codec.encode_variant(lay, 0, {"a": 0b11, "b": 0b01})
    assert word[0] & 0xFF == 0b00110111
    # the written constants are fixed
    assert word[0] & 0b11 == 0b11


def test_solve_request_places_fields_one_scalar():
    lay = solve_source(
        "type P { case C(x: u8, y: u8) #packing #solve(x, y); }"
    )
    px, py = lay.placements[(0, "x")], lay.placements[(0, "y")]
    assert px.slot == py.slot == 0
    spans = sorted([(px.offset, px.width), (py.offset, py.width)])
    assert spans == [(0, 8), (8, 8)]


def test_solve_refuses_a_reference_field():
    decls = parse_program("type P #unboxed { case C(r: string, y: u8) #packing #solve(r, y); }")
    with pytest.raises(AnnotationInfeasible, match="reference fields cannot be packed by #solve"):
        process_adts(decls, X64)


def test_solve_refuses_an_item_with_no_common_kind():
    """One bit literal names a u4 and a u40: on the jvm the first needs a
    B32 and the second a B64, so no scalar can hold the item."""
    src = "type P #unboxed { case C(a: u4, b: u40) #packing #solve(0b_" + "b" * 40 + "aaaa); }"
    with pytest.raises(AnnotationInfeasible, match="no common scalar kind") as e:
        process_adts(parse_program(src), JVM)
    assert e.value.fields == ["a", "b"]


def test_annotation_infeasible_kind_conflict():
    # two fields forced into one scalar with no common kind on the jvm
    src = "type P #unboxed { case C(x: u8, y: f32) #packing #solve(x, y); }"
    decls = parse_program(src)
    with pytest.raises(AnnotationInfeasible) as e:
        process_adts(decls, JVM)
    assert "x" in e.value.fields or "y" in e.value.fields


def test_solver_beats_or_matches_trivial_everywhere():
    rng = random.Random(7)
    widths = [1, 2, 4, 5, 8]
    for _ in range(40):
        n = rng.randint(1, 3)
        cases = []
        for j in range(n):
            fs = ", ".join(
                f"f{j}{k}: u{rng.choice(widths)}" for k in range(rng.randint(0, 3))
            )
            cases.append(f"case C{j}{'(' + fs + ')' if fs else ''};")
        src = f"type T #unboxed {{ {' '.join(cases)} }}"
        decls = parse_program(src)
        out = process_adts(decls, X64)
        mono = out.resolved["T"].mono
        solved = solve_layout(mono, X64)
        triv = trivial_layout(mono, X64)
        assert solved.score.key() <= triv.score.key()


def _exhaustive_adt_corpus():
    """Every ADT shape (up to symmetry) with <= 3 variants of <= 3 fields of
    widths <= 8 from one width pool, and with <= 2 variants from a second
    pool whose shapes need two 64-bit scalars and put equal fields in
    different scalars, so the search's symmetry and cost-bound pruning both
    apply."""
    small = [(), (1,), (2,), (5,), (8,), (1, 2), (2, 8), (5, 8), (8, 8), (1, 2, 8)]
    wide = [(), (1,), (24,), (40,), (33, 33), (40, 24, 1), (20, 20, 20), (32, 32), (40, 40)]
    corpus = []
    for shapes, most in ((small, 3), (wide, 2)):
        for k in range(1, most + 1):
            corpus.extend(list(c) for c in itertools.combinations_with_replacement(shapes, k))
    return corpus


def test_solver_matches_exhaustive_oracle():
    corpus = _exhaustive_adt_corpus()
    assert len(corpus) >= 200
    for shape in corpus:
        cases = []
        for j, ws in enumerate(shape):
            fs = ", ".join(f"f{j}{k}: u{w}" for k, w in enumerate(ws))
            cases.append(f"case C{j}{'(' + fs + ')' if fs else ''};")
        src = f"type T #unboxed {{ {' '.join(cases)} }}"
        out = process_adts(parse_program(src), X64)
        mono = out.resolved["T"].mono
        solved = solve_layout(mono, X64)
        want = oracle_best_score([list(ws) for ws in shape])
        assert solved.score.key() == want, (shape, solved.score, want)


def _widths_source(shape: list[list[int]]) -> str:
    cases = []
    for j, ws in enumerate(shape):
        fs = ", ".join(f"f{j}_{k}: u{w}" for k, w in enumerate(ws))
        cases.append(f"case C{j}{'(' + fs + ')' if fs else ''};")
    return f"type T #unboxed {{ {' '.join(cases)} }}"


@pytest.mark.parametrize("target, width", [("x64", 64), ("x86-32", 32)])
def test_solver_matches_per_variant_oracle(target, width):
    """300 random shapes of 1-4 cases with 0-5 fields of 1-40 bits: the
    solver never scores worse than the per-variant brute force, and scores
    better only with a decision tree, which the oracle omits."""
    rng = random.Random(11)
    shapes = [
        [[rng.randint(1, 40) for _ in range(rng.randint(0, 5))] for _ in range(rng.randint(1, 4))]
        for _ in range(300)
    ]
    for shape in shapes:
        if not any(shape):
            continue
        lay = solve_source(_widths_source(shape), BUILTIN_TARGETS[target])
        got, want = lay.score.key(), oracle_per_variant_score(shape, width)
        assert got == want or got < want and lay.tag_scheme.kind_name == "decision-tree", (
            shape, got, want
        )


def _baseline_shapes() -> list[list[list[int]]]:
    """Two shapes each of 2, 3 and 5 cases with 10 fields, widths drawn
    case by case with random.Random(5)."""
    rng = random.Random(5)
    return [[[rng.randint(1, 32) for _ in range(10)] for _ in range(n)] for n in (2, 2, 3, 3, 5, 5)]


@pytest.mark.parametrize("target, keys", [
    ("x64", [(3, 36), (3, 34), (4, 45), (3, 52), (4, 74), (4, 75)]),
    ("x86-32", [(6, 23), (6, 23), (8, 18), (6, 34), (8, 28), (9, 18)]),
])
def test_many_variant_shapes_finish_at_their_optimum(target, keys):
    for shape, key in zip(_baseline_shapes(), keys):
        lay = solve_source(_widths_source(shape), BUILTIN_TARGETS[target])
        assert (lay.finished, lay.score.key()) == (True, key), shape


@pytest.mark.parametrize("count, scalars", [(600, 75), (1200, 150)])
def test_many_u8_fields_finish(count, scalars):
    fields = ", ".join(f"f{i}: u8" for i in range(count))
    lay = solve_source(f"type D #unboxed {{ case C({fields}); }}")
    assert lay.finished and len(lay.slots) == scalars


def test_two_full_cases_open_a_scalar_for_the_tag():
    """Two cases of 200 u8 fields fill 25 scalars: the tag needs a 26th, and
    a case may keep one field alone there (a bit short of room otherwise)."""
    fields = [", ".join(f"{c}{i}: u8" for i in range(200)) for c in "ab"]
    lay = solve_source(f"type D #unboxed {{ case A({fields[0]}); case B({fields[1]}); }}")
    assert (lay.finished, lay.score.key()) == (True, (26, 748))


def test_determinism_byte_identical():
    src = (
        "type Option<T> #unboxed { case None; case Some(val: T); }"
        "type T #unboxed { case A(x: int); case B(y: float); }"
        "type P { case C(a: u2, b: u2) #packing 0b_00aabb11; }"
    )
    reports = []
    for _ in range(2):
        out = process_adts(parse_program(src), X64, requests=[parse_type("Option<u16>"), parse_type("T"), parse_type("P")])
        blob = json.dumps(
            {k: out.resolved[k].layout.to_json() for k in out.order if out.resolved[k].layout},
            sort_keys=True,
        )
        reports.append(blob)
    assert reports[0] == reports[1]


def test_budget_respected_and_reported():
    src = "type T #unboxed { case A(a: u8, b: u8, c: u8); case B(d: u8, e: u8); }"
    out = process_adts(parse_program(src), X64)
    mono = out.resolved["T"].mono
    for budget in (1, 3, 10, 10_000):
        lay = solve_layout(mono, X64, budget=budget)
        assert lay.steps_used <= budget
        triv = trivial_layout(mono, X64)
        assert lay.score.key() <= triv.score.key()


def test_references_jvm_need_two_scalars():
    src = (
        "type Big { case A(x: u64, y: u64, z: u64); }"
        "type R #unboxed { case N; case S(r: Big); }"
    )
    out = process_adts(parse_program(src), JVM)
    lay = out.resolved["R"].layout
    assert len(lay.slots) == 2
    assert lay.slots[0].ref_bearing
    scheme = lay.tag_scheme
    assert isinstance(scheme, ExplicitTag) and scheme.dedicated


def test_references_x64_tagged_single_scalar():
    src = (
        "type Big { case A(x: u64, y: u64, z: u64); }"
        "type R #unboxed { case N; case S(r: Big); }"
    )
    out = process_adts(parse_program(src), X64)
    lay = out.resolved["R"].layout
    assert len(lay.slots) == 1
    assert lay.slots[0].ref_bearing
    # references keep bit 0 = 0, packed values set bit 0 = 1
    none_word = codec.encode_variant(lay, 0, {})[0]
    assert none_word & 1 == 1
    some_word = codec.encode_variant(lay, 1, {"r": 0x1000})[0]
    assert some_word & 1 == 0
    assert codec.decode_field(lay, 1, "r", [some_word]) == 0x1000
    assert codec.variant_of(lay, [none_word]) == 0
    assert codec.variant_of(lay, [some_word]) == 1


def test_x86_32_no_union_across_widths():
    src = "type T #unboxed { case A(x: u8); case B(y: u48); }"
    out = process_adts(parse_program(src), X86_32)
    lay = out.resolved["T"].layout
    # u8 lives in a B32, u48 in the logical B64: no common kind, two scalars
    assert len(lay.slots) >= 2


def test_case_level_two_scalar_annotation():
    lay = solve_source("type P { case C(x: u8, y: u8) #packing(x, y); }")
    px, py = lay.placements[(0, "x")], lay.placements[(0, "y")]
    assert px.slot == 0 and py.slot == 1
    assert px.offset == py.offset == 0
    assert len(lay.slots) == 2


def test_adt_level_annotation_one_expr_per_variant():
    lay = solve_source(
        "type T #unboxed #packing(0b_00aabb11, #solve(x, y)) "
        "{ case A(a: u2, b: u2); case B(x: u8, y: u8); }"
    )
    # both variants share scalar 0, per entry order
    assert lay.placements[(0, "a")].slot == 0
    assert lay.placements[(1, "x")].slot == 0
    assert lay.placements[(0, "a")].offset == 4
    assert lay.placements[(0, "b")].offset == 2
    # A's written constants hold in the encoding
    word = codec.encode_variant(lay, 0, {"a": 3, "b": 0})[0]
    assert word & 0b11 == 0b11
    assert (word >> 6) & 0b11 == 0


def test_wild_bits_usable_for_tag_but_not_fields():
    lay = solve_source(
        "type W #unboxed { case A(a: u2) #packing 0b_??aa; case B(b: u4); }"
    )
    # b cannot sit inside A's wildcard bits, but the tag may
    pb = lay.placements[(1, "b")]
    assert pb.slot == 0
    from adtlayout.solver import ExplicitTag, TreeTag

    assert isinstance(lay.tag_scheme, (ExplicitTag, TreeTag))
    for vi in range(2):
        values = {f.name: 0 for f in lay.adt.variants[vi].fields}
        assert codec.variant_of(lay, codec.encode_variant(lay, vi, values)) == vi


def test_zero_fill_single_variant_encodes_zero():
    lay = solve_source("type Z #unboxed { case C(x: u32, y: u32); }")
    assert codec.encode_variant(lay, 0, {"x": 0, "y": 0}) == [0]


# the stress-wide benchmark's four shapes: its 2 x 5 x64 shape and the
# golden-file sources
STRESS_WIDE = [
    (
        "type W0 #unboxed { case V0(f0_0: u31, f0_1: u5, f0_2: u8, f0_3: u31, f0_4: u24); "
        "case V1(f1_0: u12, f1_1: u1, f1_2: u31, f1_3: u32, f1_4: u3); }",
        "x64",
    ),
    (WIDE_W1_X64, "x64"),
    (WIDE_W0_X86_32, "x86-32"),
    (WIDE_W1, "x86-32"),
]


@pytest.mark.parametrize(
    "source, target", STRESS_WIDE, ids=["W0-x64", "W1-x64", "W0-x86-32", "W1-x86-32"]
)
def test_stress_wide_searches_finish_within_budget(source, target):
    """Equal fields are tried in one order only and the offset-0 bound cuts
    the rest, so each search runs out of nodes well inside 1000 steps."""
    lay = solve_source(source, BUILTIN_TARGETS[target], budget=1000)
    assert lay.finished


def test_budget_cut_search_is_not_finished():
    """A 5 x 10 mixed-width shape (widths drawn with random.Random(5)) takes
    688 steps to finish its search."""
    cases = [
        "case V0(f0_0: u10, f0_1: u20, f0_2: u31, f0_3: u11, f0_4: u4, f0_5: u6, "
        "f0_6: u26, f0_7: u3, f0_8: u16, f0_9: u23);",
        "case V1(f1_0: u17, f1_1: u30, f1_2: u27, f1_3: u10, f1_4: u4, f1_5: u3, "
        "f1_6: u32, f1_7: u22, f1_8: u14, f1_9: u9);",
        "case V2(f2_0: u9, f2_1: u27, f2_2: u7, f2_3: u11, f2_4: u28, f2_5: u24, "
        "f2_6: u10, f2_7: u4, f2_8: u27, f2_9: u19);",
        "case V3(f3_0: u10, f3_1: u30, f3_2: u11, f3_3: u30, f3_4: u32, f3_5: u21, "
        "f3_6: u31, f3_7: u18, f3_8: u19, f3_9: u31);",
        "case V4(f4_0: u26, f4_1: u10, f4_2: u8, f4_3: u25, f4_4: u12, f4_5: u32, "
        "f4_6: u22, f4_7: u12, f4_8: u6, f4_9: u32);",
    ]
    lay = solve_source(f"type M #unboxed {{ {' '.join(cases)} }}", budget=500)
    assert not lay.finished


def test_annotated_adt_solves_even_with_tiny_budget():
    """An annotated ADT has no trivial fallback; the first descent completes
    regardless of budget so a feasible annotation always yields a layout."""
    src = "type P #unboxed { case A(a: u2, b: u2) #packing 0b_00aabb11; case B(x: u8, y: u8); }"
    decls = parse_program(src)
    out = process_adts(decls, X64, options=UnboxOptions(budget=10_000))
    mono = out.resolved["P"].mono
    lay = solve_layout(mono, X64, budget=1)
    assert lay.placements[(0, "a")].offset == 4
    assert codec.variant_of(lay, codec.encode_variant(lay, 0, {"a": 1, "b": 2})) == 0


def test_many_nullary_cases_resolve_without_recursion_limit():
    """48 nullary cases and one u60 payload: the tree separates over a
    thousand variant pairs, and every case encodes and classifies back to
    itself."""
    cases = " ".join(f"case N{i};" for i in range(48))
    lay = solve_source(f"type S #unboxed {{ {cases} case P(p: u60); }}")
    assert len(lay.slots) == 1
    assert lay.tag_scheme.kind_name == "decision-tree"
    for vi, variant in enumerate(lay.adt.variants):
        values = {f.name: 0 for f in variant.fields}
        assert codec.variant_of(lay, codec.encode_variant(lay, vi, values)) == vi


@pytest.mark.parametrize("n", [16, 32, 48, 100])
def test_many_nullary_cases_give_balanced_trees(n):
    """n nullary cases and one u60 payload on x64: the top-down pass splits
    the cases evenly, so the tree is about log2(n + 1) deep, and the
    complete free-bit search, which would be charged steps, never runs."""
    cases = " ".join(f"case N{i};" for i in range(n))
    lay = solve_source(f"type S #unboxed {{ {cases} case P(p: u60); }}")
    assert lay.tag_scheme.kind_name == "decision-tree"
    assert tree_depth(lay.tag_scheme.tree) <= math.ceil(math.log2(n + 1)) + 2
    assert lay.steps_used == 0


def test_free_bit_search_is_charged_to_the_budget():
    """C1 and C2 can differ only at bit 63, where C3 would have to differ
    from both, so no tree exists, but every pair has a position where it
    could differ. The top-down pass gets stuck, and the complete free-bit
    search refutes the tree two steps past its first descent. A budget
    below that cuts the search: the state gets no tree and the solve is not
    finished, with the same layout."""
    src = "type T #unboxed { case C0(a: u49); case C1(b: u63); case C2(c: u63); case C3; case C4; }"
    full = solve_source(src)
    assert (full.finished, full.steps_used) == (True, 2)
    for budget in (0, 1):
        cut = solve_source(src, budget=budget)
        assert (cut.finished, cut.steps_used) == (False, budget)
        assert cut.score == full.score and cut.tag_scheme == full.tag_scheme


def test_many_fields_in_one_variant_solve_without_recursion_limit():
    """1200 u8 fields in one case: the search goes one level deeper per
    field, and first fit packs eight fields into each 64-bit scalar. That
    first descent meets the bound, and it is not charged to the budget."""
    fields = ", ".join(f"f{i}: u8" for i in range(1200))
    lay = solve_source(f"type D #unboxed {{ case C({fields}); }}", budget=1300)
    assert len(lay.slots) == 150
    assert lay.steps_used == 0


def _masks(state) -> list:
    return [
        (s.width, s.kinds, s.const, s.ones, s.wild, s.field, s.ref_variants, s.tagged)
        for s in state.slots
    ] + [state.placements()]


def test_attempts_copy_the_annotated_base_state(monkeypatch):
    """Each attempt works on a copy of the solve's annotated base state: a
    second solve gives the same report, and after a solve the base holds
    the masks of a fresh `_apply_annotations`. On x86-32, G's reservation
    attempt fails once its free field finds no room below the kept tag bits."""
    source = CORPUS_SRC + "type G #unboxed { case A(x: u8) #packing x; case B(y: u32); }\n"
    failed = []
    attempt = solver._Search.attempt

    def spy(self, quota, reserve):
        state, cost = attempt(self, quota, reserve)
        if state is None and reserve is not None:
            failed.append((self.adt.name, self.target.name))
        return state, cost

    monkeypatch.setattr(solver._Search, "attempt", spy)
    for target in TARGETS:
        layouts = process_adts(parse_program(source), target).layouts()
        for name in ("C19", "C20", "C21", "C22", "G"):
            adt = layouts[name].adt
            search = solver._Search(adt, target, 10_000)
            first = search.run().to_json()
            fresh = solver._State(adt, target)
            solver._apply_annotations(fresh)
            assert _masks(search.base) == _masks(fresh), (name, target.name)
            assert solve_layout(adt, target).to_json() == first == layouts[name].to_json()
    assert ("G", "x86-32") in failed


def test_search_stops_once_no_attempt_can_win(monkeypatch):
    """C23 on x86-32 gets an appended tag scalar from its one-scalar
    attempts, key (2, 1), below the (2, 2) that a layout tagged within two
    scalars costs at least, so no attempt at two scalars runs. Progen seed
    469's T0 on x64 is alike at three scalars: it reports 4 steps, and the
    skipped attempt would have spent one more for no better layout."""
    attempts = []
    attempt = solver._Search.attempt

    def spy(self, quota, reserve):
        attempts.append((self.adt.name, self.entries + sum(quota), reserve))
        return attempt(self, quota, reserve)

    monkeypatch.setattr(solver._Search, "attempt", spy)
    c23 = process_adts(parse_program(CORPUS_SRC), X86_32).layouts()["C23"]
    assert c23.score.key() == (2, 1) and c23.tag_scheme.dedicated
    assert [a for a in attempts if a[0] == "C23"] == [("C23", 1, None), ("C23", 1, 0)]
    attempts.clear()
    t0 = process_adts(gen_decls(random.Random(469)), X64).resolved["T0"].layout
    assert t0.score.key() == (3, 1) and t0.tag_scheme.dedicated
    assert (t0.steps_used, t0.finished) == (4, True)
    assert {m for name, m, _ in attempts if name == "T0"} == {2}


def test_candidate_keys_equal_built_scores(monkeypatch):
    """Each completion candidate's score, computed from its masks before the
    tag is written, equals score_layout's score of the solution built from
    it, and is the score that solution keeps."""
    kinds = set()
    original = solver._complete

    def checking(state, best_key=None, charge=None):
        for cand in solver._candidates(state):
            score, scheme = cand[:2]
            sol = solver._solution(state, cand)
            built = score_layout(len(sol.slots), sol.placements, sol.patterns, sol.tag_scheme)
            assert score == built == sol.score, (state.adt.name, scheme)
            kinds.add(scheme.kind_name)
        return original(state, best_key, charge)

    monkeypatch.setattr(solver, "_complete", checking)
    for target in TARGETS:
        process_adts(parse_program(CORPUS_SRC), target)
    for source, target in GOLDEN_CASES.values():
        process_adts(parse_program(source), BUILTIN_TARGETS[target])
    targets = TARGETS
    for i in range(100):
        process_adts(gen_decls(random.Random(f"keys:{i}")), targets[i % 3])
    assert kinds == {"single-variant", "bare-tag", "explicit-tag", "decision-tree"}


def test_solution_computes_no_score(monkeypatch):
    """A built layout keeps the score its candidate was chosen by, so
    `_solution` reads no access cost."""
    calls, built = [], []
    access_cost, solution = solver._access_cost, solver._solution

    def counting(*args):
        calls.append(args)
        return access_cost(*args)

    def building(state, cand):
        before = len(calls)
        sol = solution(state, cand)
        built.append(len(calls) - before)
        return sol

    monkeypatch.setattr(solver, "_access_cost", counting)
    monkeypatch.setattr(solver, "_solution", building)
    for target in TARGETS:
        process_adts(parse_program(CORPUS_SRC), target)
    assert calls and built and not any(built)


def test_solution_builds_each_pattern_once(monkeypatch):
    """Over the corpus on x64, jvm and x86-32, `_solution` builds one
    `BitPattern` per case and scalar, with its free bits made 0 and the tag
    written in the same pass, and fixes none."""
    built, fixed, counts = [], [], []
    pattern, solution, fix = solver.BitPattern, solver._solution, solver.BitPattern.fix

    def building(*args, **kwargs):
        built.append(args)
        return pattern(*args, **kwargs)

    def fixing(self, mask, value):
        fixed.append(mask)
        return fix(self, mask, value)

    def counting(state, cand):
        n_built, n_fixed = len(built), len(fixed)
        sol = solution(state, cand)
        expected = len(sol.patterns) * len(sol.slots)
        counts.append((len(built) - n_built, len(fixed) - n_fixed, expected))
        return sol

    monkeypatch.setattr(solver, "_solution", counting)
    monkeypatch.setattr(solver, "BitPattern", building)
    monkeypatch.setattr(pattern, "fix", fixing)
    for target in TARGETS:
        process_adts(parse_program(CORPUS_SRC), target)
    assert counts and all(n == expected and not f for n, f, expected in counts), counts


def test_search_tables_equal_the_reference(monkeypatch):
    """`_Search` builds its references, items (equal-field flags
    included), free widths and scalar-count bounds as the reference's one
    comprehension per table does, over every golden report's input (the
    corpus on x64, jvm and x86-32, and annotated inputs with #solve units
    and references) and the solve-sweep inputs."""
    seen = set()
    init = solver._Search.__init__

    def checking(self, adt, target, budget):
        init(self, adt, target, budget)
        tables = (self.refs, self.items, self.free_widths, self.lows, self.highs)
        assert tables == reference_search_tables(adt, target), (adt.name, target.name)
        seen.add(adt.name)

    monkeypatch.setattr(solver._Search, "__init__", checking)
    for source, target in GOLDEN_CASES.values():
        process_adts(parse_program(source), BUILTIN_TARGETS[target])
    solve_sweep()
    # C13 is boxed by default (four u64 fields), so it is never solved
    assert {f"C{i:02}" for i in range(1, CORPUS_SIZE + 1)} - seen == {"C13"}
    assert {"C19", "C20", "C21", "C22", "Lit", "Pr", "Mx"} <= seen


def test_kept_cost_equals_the_reference(monkeypatch):
    """The cost a search state keeps per case (its shifted fields and each
    scalar's offset-0 field) equals the per-field scan of `read_charge`
    over each `read_plan` in `reference_case_cost` at every `cost` and
    `bound` call. The inputs are every golden report's input and the
    solve-sweep inputs, the first 4 `Random(816)` shapes among them, on x64,
    jvm and x86-32; the shapes run to the step budget, so the search places
    and undoes fields many times."""
    calls = {"cost": 0, "bound": 0}
    cost, bound = solver._Search.cost, solver._Search.bound

    def check(search, state, v, name):
        assert cost(search, state, v) == reference_case_cost(search, state, v), (state.adt.name, v)
        calls[name] += 1

    def checking_cost(self, state, v):
        check(self, state, v, "cost")
        return cost(self, state, v)

    def checking_bound(self, state, v, i):
        check(self, state, v, "bound")
        return bound(self, state, v, i)

    monkeypatch.setattr(solver._Search, "cost", checking_cost)
    monkeypatch.setattr(solver._Search, "bound", checking_bound)
    for source, target in GOLDEN_CASES.values():
        process_adts(parse_program(source), BUILTIN_TARGETS[target])
    solve_sweep()
    assert calls["bound"] > 50_000 and calls["cost"] > calls["bound"], calls


def test_placement_log_agrees_with_the_masks(monkeypatch):
    """At every `_candidates` call the state's log holds one entry per
    (case, field), and per case and scalar the OR of its placements'
    intervals is the scalar's field mask for that case. The inputs are the
    corpus and the solve-sweep inputs, the first 4 `Random(816)` shapes
    among them, on x64, jvm and x86-32; the shapes run to the step budget,
    so the log is appended to and popped many times before each completion."""
    checked = []
    candidates = solver._candidates

    def checking(state, *args):
        logged = [(v, f.name) for v, unit, *_ in state.log for _, f in unit.fields]
        every = [(v, f.name) for v, variant in enumerate(state.adt.variants) for f in variant.fields]
        placements = state.placements()
        assert len(logged) == len(set(logged)) and list(placements) == logged, state.adt.name
        assert set(placements) == set(every), state.adt.name
        masks = [[0] * len(state.slots) for _ in range(state.n)]
        for (v, _), pl in placements.items():
            masks[v][pl.slot] |= ((1 << pl.width) - 1) << pl.offset
        assert masks == [[s.field[v] for s in state.slots] for v in range(state.n)], state.adt.name
        checked.append(state.adt.name)
        return candidates(state, *args)

    monkeypatch.setattr(solver, "_candidates", checking)
    for target in TARGETS:
        process_adts(parse_program(CORPUS_SRC), target)
    solve_sweep()
    assert len(checked) > 1000 and any(name == "M" for name in checked), len(checked)


def test_placements_are_built_once_per_completion(monkeypatch):
    """`place` builds no `Placement`. A solve builds one per field at each
    `_candidates` call, and that one dict is every candidate's and the
    solution's, over every golden report's input (the corpus on x64, jvm
    and x86-32, and annotated inputs with #solve units and references)."""
    built, fields, solutions = [], [], []
    placement, candidates, solution = solver.Placement, solver._candidates, solver._solution

    def building(*args):
        built.append(args)
        return placement(*args)

    def completing(state, *args):
        fields.append(sum(len(variant.fields) for variant in state.adt.variants))
        cands = candidates(state, *args)
        assert all(cand[3] is cands[0][3] for cand in cands), state.adt.name
        return cands

    def solving(state, cand):
        sol = solution(state, cand)
        assert sol.placements is cand[3], state.adt.name
        solutions.append(state.adt.name)
        return sol

    monkeypatch.setattr(solver, "Placement", building)
    monkeypatch.setattr(solver, "_candidates", completing)
    monkeypatch.setattr(solver, "_solution", solving)
    for source, target in GOLDEN_CASES.values():
        process_adts(parse_program(source), BUILTIN_TARGETS[target])
    assert solutions and len(fields) > len(solutions)
    assert len(built) == sum(fields), (len(built), sum(fields))


def test_one_layout_and_its_plans_are_built_per_solve(monkeypatch):
    """Each solve builds one layout, for its final best, and the only read
    plans it builds are the ones that layout keeps: one per field, plus one
    for an explicit tag, so scoring builds none. The inputs are every golden
    report's input and the solve-sweep inputs on x64, jvm and x86-32."""
    plans, solutions, kinds = [], [], set()
    plan, solution, run = solver.ReadPlan, solver._solution, solver._Search.run

    def building(*args):
        plans.append(plan(*args))
        return plans[-1]

    def counting(state, cand):
        solutions.append(state.adt.name)
        return solution(state, cand)

    def solving(self):
        n_plans, n_solutions = len(plans), len(solutions)
        sol = run(self)
        assert solutions[n_solutions:] == [self.adt.name], solutions[n_solutions:]
        kept = list(sol.plans.values()) + ([] if sol.tag_plan is None else [sol.tag_plan])
        assert len(sol.plans) == sum(len(variant.fields) for variant in self.adt.variants)
        assert sorted(map(id, plans[n_plans:])) == sorted(map(id, kept)), self.adt.name
        kinds.add(sol.tag_scheme.kind_name)
        return sol

    monkeypatch.setattr(solver, "ReadPlan", building)
    monkeypatch.setattr(solver, "_solution", counting)
    monkeypatch.setattr(solver._Search, "run", solving)
    for source, target in GOLDEN_CASES.values():
        process_adts(parse_program(source), BUILTIN_TARGETS[target])
    solve_sweep()
    assert kinds == {"single-variant", "bare-tag", "explicit-tag", "decision-tree"}, kinds


def test_access_cost_is_the_plan_building_reference(monkeypatch):
    """For every candidate that `_candidates` returns, `_access_cost`, which
    builds no read plan, and the score the candidate keeps equal
    `reference_access_cost`, which charges each read over the plan it
    builds. The inputs are every golden report's input and the solve-sweep
    inputs on x64, jvm and x86-32, and on those targets a type whose
    packings leave its in-place tag at bit 0, below every field."""
    kinds = set()
    candidates = solver._candidates

    def checking(state, *args):
        cands = candidates(state, *args)
        for score, scheme, rows, placements in cands:
            expected = reference_access_cost(placements, rows, scheme)
            assert solver._access_cost(placements, rows, scheme) == expected, state.adt.name
            assert score.access_cost == expected, state.adt.name
            kinds.add(scheme.kind_name)
            if isinstance(scheme, ExplicitTag) and not (scheme.offset or scheme.dedicated):
                kinds.add("explicit-tag at bit 0")
        return cands

    monkeypatch.setattr(solver, "_candidates", checking)
    for source, target in GOLDEN_CASES.values():
        process_adts(parse_program(source), BUILTIN_TARGETS[target])
    solve_sweep()
    low = parse_program("type Low #unboxed { case A(x: u4) #packing 0b_xxxx_??; "
                        "case B(y: u4) #packing 0b_yyyy_??; case C(z: u4) #packing 0b_zzzz_??; }")
    for target in TARGETS:
        process_adts(low, target)
    assert kinds == {"single-variant", "bare-tag", "explicit-tag", "explicit-tag at bit 0",
                     "decision-tree"}, kinds


def test_candidates_take_the_untagged_cost_only_for_a_bound(monkeypatch):
    """`_candidates` takes the field cost before tagging only when the tree
    or the appended-tag bound is compared. Over the corpus on x64, jvm and
    x86-32 that leaves 78 `_access_cost` calls, where taking it for every
    state of several cases made 123, and every report, steps included, is
    its golden file."""
    calls = []
    access_cost = solver._access_cost

    def counting(*args):
        calls.append(args)
        return access_cost(*args)

    monkeypatch.setattr(solver, "_access_cost", counting)
    for target in TARGET_NAMES:
        assert layout_json(CORPUS_SRC, target) == golden_path(f"corpus-{target}").read_text(encoding="utf-8")
    assert len(calls) == 78


def _tag_in_place(rows, s: int, offset: int, width: int):
    """The rows with the variant index written into `width` bits of scalar
    `s` at `offset`."""
    mask = ((1 << width) - 1) << offset
    return [row[:s] + [row[s].fix(mask, v << offset)] + row[s + 1 :] for v, row in enumerate(rows)]


def test_search_cost_is_the_access_cost(monkeypatch):
    """The cost an attempt returns, which `_Search.cost` sums by the rule
    of `read_charge` over each `read_plan`, is `_access_cost` of the
    state's placements with the tag written where the attempt reserved it,
    for every attempt that gives a state."""
    checked = []
    attempt = solver._Search.attempt

    def spy(self, quota, reserve):
        state, cost = attempt(self, quota, reserve)
        if state is not None:
            rows = state.build_patterns()
            if reserve is not None and reserve < len(state.slots):
                top = state.slots[reserve].width - self.tw
                rows = _tag_in_place(rows, reserve, top, self.tw)
            expected = solver._access_cost(state.placements(), rows, SingleVariant())
            assert cost == expected, (self.adt.name, self.target.name, quota, reserve)
            checked.append(reserve)
        return state, cost

    monkeypatch.setattr(solver._Search, "attempt", spy)
    solve_corpus_and_progen()
    assert any(r is None for r in checked) and any(r is not None for r in checked)
