import random

import pytest

from adtlayout.distinguish import BitPattern, print_pattern
from adtlayout.flatten import FlattenedPacking, SolveRequest, flatten_annotation, flatten_expr
from adtlayout.syntax import parse_packing_expr, parse_program
from adtlayout.verify import SizeContext, VerifyError, check_expr, check_program_decls

from oracles import random_context, random_decls, random_expr, reference_flatten

FLOAT_SUITE = """
packing Float16(sign: 1, exp: 5, frac: 10): 16 = 0b_seeeeeff_ffffffff;
packing Float32(sign: 1, exp: 8, frac: 23): 32 = 0b_seeeeeee_efffffff_ffffffff_ffffffff;
packing TwoFloat16s(s1: 1, e1: 5, f1: 10, s2: 1, e2: 5, f2: 10): 32
    = #concat(Float16(s1, e1, f1), Float16(s2, e2, f2));
"""


@pytest.fixture
def delta():
    scope, diags = check_program_decls(parse_program(FLOAT_SUITE))
    assert not diags
    return scope.delta


def ctx(gamma, delta=None):
    return SizeContext(gamma=gamma, delta=delta or {})


def test_worked_example_00aabb11():
    f = flatten_expr(parse_packing_expr("0b_00aa_bb11"), ctx({"a": 2, "b": 2}))
    assert f.assignments == {"a": 4, "b": 2}
    assert print_pattern(f.pattern) == "00xxxx11"
    assert f.width == 8


def test_pattern_masks_count_from_the_lsb():
    f = flatten_expr(parse_packing_expr("0b_00aa_b?11"), ctx({"a": 2, "b": 1}))
    assert f.pattern == BitPattern(8, const=0b11000011, ones=0b00000011, field=0b00111000)


def test_argument_splice_replaces_parameter_run(delta):
    f = flatten_expr(parse_packing_expr("Float16(0b1, 0b1?0?1, fr)"), ctx({"fr": 10}, delta))
    assert print_pattern(f.pattern) == "11u0u1" + "x" * 10
    assert f.pattern.free == 0b0101 << 11


def test_field_rule():
    f = flatten_expr(parse_packing_expr("f"), ctx({"f": 3}))
    assert f.assignments == {"f": 0}
    assert print_pattern(f.pattern) == "xxx"


def test_application_of_float16(delta):
    f = flatten_expr(
        parse_packing_expr("Float16(s1, e1, f1)"),
        ctx({"s1": 1, "e1": 5, "f1": 10}, delta),
    )
    assert f.assignments == {"s1": 15, "e1": 10, "f1": 0}
    assert print_pattern(f.pattern) == "x" * 16


def test_two_float16s_disjoint(delta):
    g = {"s1": 1, "e1": 5, "f1": 10, "s2": 1, "e2": 5, "f2": 10}
    f = flatten_expr(parse_packing_expr("TwoFloat16s(s1,e1,f1,s2,e2,f2)"), ctx(g, delta))
    assert f.width == 32
    assert f.assignments == {"s1": 31, "e1": 26, "f1": 16, "s2": 15, "e2": 10, "f2": 0}
    # six pairwise-disjoint intervals covering all 32 bits
    seen = set()
    for name, off in f.assignments.items():
        span = set(range(off, off + g[name]))
        assert not (span & seen)
        seen |= span
    assert seen == set(range(32))


def test_wild_bits_flatten_unassigned():
    f = flatten_expr(parse_packing_expr("0b_??a"), ctx({"a": 1}))
    assert print_pattern(f.pattern) == "uux"


def test_zero_padding_of_narrow_body():
    scope, diags = check_program_decls(
        parse_program("packing Pad(a: 4): 8 = 0b_aaaa;")
    )
    assert not diags
    f = flatten_expr(parse_packing_expr("Pad(x)"), scope.with_gamma({"x": 4}))
    assert f.width == 8
    assert print_pattern(f.pattern) == "0000xxxx"
    assert f.assignments == {"x": 0}


def test_literal_argument_contributes_constants(delta):
    f = flatten_expr(
        parse_packing_expr("Float16(0b1, 0b10000, fr)"),
        ctx({"fr": 10}, delta),
    )
    assert f.assignments == {"fr": 0}
    assert print_pattern(f.pattern) == "110000" + "x" * 10


def test_field_arg_for_unused_parameter_rejected():
    scope, diags = check_program_decls(parse_program("packing Drop(a:2, b:2): 4 = 0b_aa00;"))
    assert not diags
    with pytest.raises(VerifyError) as e:
        flatten_expr(parse_packing_expr("Drop(x, y)"), scope.with_gamma({"x": 2, "y": 2}))
    assert e.value.diag.code == "E013"


def test_duplicate_field_placement_rejected():
    with pytest.raises(VerifyError) as e:
        flatten_expr(parse_packing_expr("#concat(a, a)"), ctx({"a": 2}))
    assert e.value.diag.code == "E016"


def test_annotation_single_pattern():
    entries = flatten_annotation(
        [parse_packing_expr("0b_00aabb11")], ctx({"a": 2, "b": 2})
    )
    assert len(entries) == 1
    assert isinstance(entries[0], FlattenedPacking)


def test_annotation_solve_request():
    entries = flatten_annotation([parse_packing_expr("#solve(x, y)")], ctx({"x": 8, "y": 8}))
    assert len(entries) == 1
    req = entries[0]
    assert isinstance(req, SolveRequest)
    assert sorted(req.field_names()) == ["x", "y"]
    assert req.width == 16


def test_annotation_two_scalars():
    entries = flatten_annotation(
        [parse_packing_expr("f"), parse_packing_expr("g")], ctx({"f": 4, "g": 4})
    )
    assert len(entries) == 2
    assert all(isinstance(e, FlattenedPacking) for e in entries)
    assert entries[0].assignments == {"f": 0}
    assert entries[1].assignments == {"g": 0}


def test_annotation_duplicate_across_entries():
    with pytest.raises(VerifyError) as e:
        flatten_annotation(
            [parse_packing_expr("f"), parse_packing_expr("#solve(f)")], ctx({"f": 4})
        )
    assert e.value.diag.code == "E016"


def test_width_preservation_and_json():
    c = ctx({"a": 2, "b": 2})
    e = parse_packing_expr("0b_00aa_bb11")
    f = flatten_expr(e, c)
    assert f.width == reference_flatten(e, c)[2]
    assert (f.width, print_pattern(f.pattern), f.assignments) == (8, "00xxxx11", {"a": 4, "b": 2})


def test_conformance_against_reference_evaluator():
    """flatten_expr agrees exactly with the independent inline-and-scan
    reference on randomly generated well-formed expressions."""
    rng = random.Random(20240817)
    checked = 0
    while checked < 300:
        delta = random_decls(rng)
        c = random_context(rng, delta)
        e = random_expr(rng, c, depth=4, used=set(), max_width=64)
        if e is None:
            continue
        try:
            check_expr(e, c)
        except VerifyError:
            continue
        got = flatten_expr(e, c)
        want_assign, want_pattern, want_width = reference_flatten(e, c)
        assert got.assignments == want_assign
        assert print_pattern(got.pattern) == want_pattern
        assert got.width == want_width
        checked += 1
