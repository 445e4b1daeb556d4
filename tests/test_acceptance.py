"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers. Run with `pytest tests/test_acceptance.py -v -s`."""

import io
import itertools
import json
import random
import time

import pytest

from adtlayout import codec
from adtlayout.cli import cmd_check, cmd_layout, run_equivalence
from adtlayout.distinguish import classify, derive_decision_tree, print_pattern
from adtlayout.flatten import flatten_expr
from adtlayout.pipeline import process_adts
from adtlayout.solver import solve_layout, trivial_layout
from adtlayout.syntax import parse_packing_expr, parse_program
from adtlayout.targets import BUILTIN_TARGETS, X64
from adtlayout.verify import SizeContext, VerifyError, check_expr, check_program_decls

from corpus import CORPUS_SRC, build_corpus, random_field_values
from oracles import (
    brute_force_distinguishable,
    enumerate_pattern_sets,
    oracle_best_score,
    random_context,
    random_decls,
    random_expr,
    reference_flatten,
)

FLOAT_SUITE = """
packing Float16(sign: 1, exp: 5, frac: 10): 16 = 0b_seeeeeff_ffffffff;
packing Float32(sign: 1, exp: 8, frac: 23): 32 = 0b_seeeeeee_efffffff_ffffffff_ffffffff;
packing TwoFloat16s(s1: 1, e1: 5, f1: 10, s2: 1, e2: 5, f2: 10): 32
    = #concat(Float16(s1, e1, f1), Float16(s2, e2, f2));
"""


def test_criterion_1_flattening_conformance():
    """1000 random well-formed packing expressions match the independent
    inline-and-scan reference exactly, in under 5 seconds."""
    start = time.monotonic()
    rng = random.Random(1730)
    checked = 0
    mismatches = 0
    while checked < 1000:
        delta = random_decls(rng)
        ctx = random_context(rng, delta)
        expr = random_expr(rng, ctx, depth=4, used=set(), max_width=64)
        if expr is None:
            continue
        try:
            check_expr(expr, ctx)
        except VerifyError:
            continue
        got = flatten_expr(expr, ctx)
        assign, pattern, width = reference_flatten(expr, ctx)
        if (got.assignments, print_pattern(got.pattern), got.width) != (assign, pattern, width):
            mismatches += 1
        checked += 1
    elapsed = time.monotonic() - start
    assert mismatches == 0
    assert elapsed < 5.0
    print(f"\ncriterion 1 PASS: 1000 expressions, 0 mismatches, {elapsed:.2f}s")


def test_criterion_2_worked_flatten_example():
    """flatten of 0b_00aa_bb11 equals ({a->4, b->2}, 00xxxx11) exactly."""
    ctx = SizeContext(gamma={"a": 2, "b": 2})
    got = flatten_expr(parse_packing_expr("0b_00aa_bb11"), ctx)
    assert got.assignments == {"a": 4, "b": 2}
    assert print_pattern(got.pattern) == "00xxxx11"
    print("\ncriterion 2 PASS: 0b_00aa_bb11 -> ({a:4, b:2}, 00xxxx11)")


def test_criterion_3_float_declarations(tmp_path):
    """Float16/Float32/TwoFloat16s verify; TwoFloat16s flattens to width 32
    with six pairwise-disjoint intervals."""
    p = tmp_path / "floats.pk"
    p.write_text(FLOAT_SUITE)
    assert cmd_check([str(p)], out=io.StringIO()) == 0
    scope, diags = check_program_decls(parse_program(FLOAT_SUITE))
    assert not diags
    gamma = {"s1": 1, "e1": 5, "f1": 10, "s2": 1, "e2": 5, "f2": 10}
    flat = flatten_expr(
        parse_packing_expr("TwoFloat16s(s1, e1, f1, s2, e2, f2)"),
        scope.with_gamma(gamma),
    )
    assert flat.width == 32
    covered = set()
    for name, off in flat.assignments.items():
        span = set(range(off, off + gamma[name]))
        assert not (span & covered), "intervals overlap"
        covered |= span
    assert len(flat.assignments) == 6
    print("\ncriterion 3 PASS: float suite verifies; TwoFloat16s = 32 bits, 6 disjoint intervals")


def test_criterion_4_roundtrip_corpus():
    """decode(encode(v)) identity over 10^4 random vectors per ADT on every
    built-in target, in under 60 seconds."""
    start = time.monotonic()
    vectors = 10_000
    total_checked = 0
    for target_name, target in BUILTIN_TARGETS.items():
        out = build_corpus(target)
        rng = random.Random(f"acceptance4:{target_name}")
        for key in out.order:
            lay = out.resolved[key].layout
            if lay is None:
                continue  # boxed corpus entries participate as reference targets
            n = len(lay.adt.variants)
            for k in range(vectors):
                vi = k % n
                values = random_field_values(lay, vi, rng)
                scalars = codec.encode_variant(lay, vi, values)
                assert codec.variant_of(lay, scalars) == vi
                for f in lay.adt.variants[vi].fields:
                    assert codec.decode_field(lay, vi, f.name, scalars) == values[f.name]
                total_checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"\ncriterion 4 PASS: {total_checked} vectors round-tripped on 3 targets, {elapsed:.1f}s")


def test_criterion_5_distinguishability_agreement():
    """Exhaustive enumeration over small pattern sets: derivation succeeds
    exactly when checking succeeds, matching brute force; every derived tree
    classifies every variant correctly. Under 120 seconds."""
    start = time.monotonic()
    sets = 0
    derivable = 0
    for patterns in enumerate_pattern_sets(max_total_bits=6):
        expected = brute_force_distinguishable(patterns)
        got_check = not patterns or derive_decision_tree(patterns) is not None
        assert got_check == expected, patterns
        derived = derive_decision_tree(patterns)
        assert (derived is not None) == expected, patterns
        if derived is not None:
            derivable += 1
            _assert_classifies(derived)
        sets += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(
        f"\ncriterion 5 PASS: {sets} pattern sets enumerated, {derivable} derivable, "
        f"check == derive == brute force, {elapsed:.1f}s"
    )


def _assert_classifies(derived):
    tree, resolved = derived
    for v, row in enumerate(resolved):
        free = [
            (s, b)
            for s, pat in enumerate(row)
            for b, ch in enumerate(reversed(pat))
            if ch in "xu"
        ]
        for combo in itertools.product((0, 1), repeat=len(free)):
            words = [
                sum(1 << b for b, ch in enumerate(reversed(pat)) if ch == "1")
                for pat in row
            ]
            for (s, b), bit in zip(free, combo):
                if bit:
                    words[s] |= 1 << b
            assert classify(tree, words) == v


def test_criterion_6_solver_optimality():
    """Solver score equals the exhaustive-oracle optimum on every small ADT
    (>= 200 instances up to symmetry); solver never scores worse than the
    trivial layout on the full corpus."""
    shapes = [
        (),
        (1,),
        (2,),
        (5,),
        (8,),
        (1, 2),
        (2, 8),
        (5, 8),
        (8, 8),
        (1, 2, 8),
    ]
    instances = 0
    for k in (1, 2, 3):
        for combo in itertools.combinations_with_replacement(shapes, k):
            cases = []
            for j, ws in enumerate(combo):
                fs = ", ".join(f"f{j}{i}: u{w}" for i, w in enumerate(ws))
                cases.append(f"case C{j}{'(' + fs + ')' if fs else ''};")
            src = f"type T #unboxed {{ {' '.join(cases)} }}"
            out = process_adts(parse_program(src), X64)
            mono = out.resolved["T"].mono
            solved = solve_layout(mono, X64)
            assert solved.score.key() == oracle_best_score([list(ws) for ws in combo]), combo
            assert solved.score.key() <= trivial_layout(mono, X64).score.key()
            instances += 1
    assert instances >= 200
    # the full 25-type corpus also never beats the solver with the trivial layout
    out = build_corpus(X64)
    for key in out.order:
        r = out.resolved[key]
        if r.layout is None:
            continue
        assert r.layout.score.key() <= trivial_layout(r.mono, X64).score.key()
    print(f"\ncriterion 6 PASS: solver == exhaustive oracle on {instances} ADTs; <= trivial everywhere")


def test_criterion_7_semantic_preservation():
    """cmd_equiv semantics: 500 random programs from seed 42 agree between
    boxed and normalized evaluation, traps included, in under 60 seconds."""
    start = time.monotonic()
    result = run_equivalence(seed=42, count=500)
    elapsed = time.monotonic() - start
    assert result.ok, result.failures[:1]
    assert result.ran == 500
    assert elapsed < 60.0
    print(f"\ncriterion 7 PASS: 500/500 programs agree (seed 42), {elapsed:.1f}s")


def test_criterion_8_eligibility_rules(tmp_path):
    """Recursive -> boxed(recursive); captured -> boxed(captured); 3-case
    nullary enum -> one 2-bit tag scalar; Option<u32> on x64 -> 1 scalar."""
    src = (
        "type List<T> #unboxed { case Nil; case Cons(head: T, tail: List<T>); }\n"
        "type Held #captured #unboxed { case A(x: u8); case B; }\n"
        "type Color { case Red; case Green; case Blue; }\n"
        "type Option<T> #unboxed { case None; case Some(val: T); }\n"
    )
    p = tmp_path / "elig.pk"
    p.write_text(src)
    out = io.StringIO()
    status = cmd_layout(
        [str(p)],
        target="x64",
        as_json=True,
        instantiate=["List<u32>", "Option<u32>"],
        out=out,
    )
    assert status == 0
    report = {e["adt"]: e for e in json.loads(out.getvalue())["adts"]}
    assert report["List<u32>"]["boxed"] and report["List<u32>"]["reason"] == "recursive"
    assert report["Held"]["boxed"] and report["Held"]["reason"] == "captured"
    color = report["Color"]
    assert not color["boxed"]
    assert color["scalars"] == [{"kind": "B64", "width": 2, "ref": False}]
    assert color["tag_scheme"]["kind"] == "bare-tag"
    option = report["Option<u32>"]
    assert not option["boxed"]
    assert len(option["scalars"]) == 1
    print("\ncriterion 8 PASS: recursive/captured boxed; nullary enum = 2-bit tag; Option<u32> = 1 scalar")


def test_criterion_9_determinism(tmp_path):
    """Two cmd_layout --json runs over the corpus are byte-identical."""
    p = tmp_path / "corpus.pk"
    p.write_text(CORPUS_SRC)
    blobs = []
    for _ in range(2):
        out = io.StringIO()
        assert cmd_layout([str(p)], as_json=True, out=out) == 0
        blobs.append(out.getvalue())
    assert blobs[0] == blobs[1]
    print("\ncriterion 9 PASS: byte-identical JSON reports across runs")
