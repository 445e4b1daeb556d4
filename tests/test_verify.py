import pytest

from adtlayout.distinguish import print_pattern
from adtlayout.flatten import resolve_layout_fields
from adtlayout.syntax import parse_packing_expr, parse_program
from adtlayout.verify import (
    SizeContext,
    VerifyError,
    check_expr,
    check_packing_decl,
    check_program_decls,
)

FLOAT_SUITE = """
packing Float16(sign: 1, exp: 5, frac: 10): 16 = 0b_seeeeeff_ffffffff;
packing Float32(sign: 1, exp: 8, frac: 23): 32 = 0b_seeeeeee_efffffff_ffffffff_ffffffff;
packing TwoFloat16s(s1: 1, e1: 5, f1: 10, s2: 1, e2: 5, f2: 10): 32
    = #concat(Float16(s1, e1, f1), Float16(s2, e2, f2));
"""


@pytest.fixture
def delta():
    decls = parse_program(FLOAT_SUITE)
    scope, diags = check_program_decls(decls)
    assert diags == []
    return scope.delta


def ctx(gamma, delta=None):
    return SizeContext(gamma=gamma, delta=delta or {})


def test_float16_body_size(delta):
    body = delta["Float16"].body
    assert check_expr(body, ctx({"sign": 1, "exp": 5, "frac": 10}, delta)) == 16


def test_concat_size_is_sum(delta):
    g = {"s1": 1, "e1": 5, "f1": 10, "s2": 1, "e2": 5, "f2": 10}
    e = parse_packing_expr("#concat(Float16(s1,e1,f1), Float16(s2,e2,f2))")
    assert check_expr(e, ctx(g, delta)) == 32


def test_empty_size_zero():
    assert check_expr(parse_packing_expr("0b"), ctx({})) == 0


def test_field_size_from_gamma():
    assert check_expr(parse_packing_expr("frac"), ctx({"frac": 10})) == 10


def test_unbound_field():
    with pytest.raises(VerifyError) as e:
        check_expr(parse_packing_expr("nope"), ctx({}))
    assert e.value.diag.code == "E013"


def test_unbound_packing():
    with pytest.raises(VerifyError) as e:
        check_expr(parse_packing_expr("P(a)"), ctx({"a": 2}))
    assert e.value.diag.code == "E013"


def test_argument_exceeds_parameter_width(delta):
    e = parse_packing_expr("Float16(sign, exp, frac)")
    with pytest.raises(VerifyError) as err:
        check_expr(e, ctx({"sign": 2, "exp": 5, "frac": 10}, delta))
    assert err.value.diag.code == "E010"


def test_subsumption_checks_against_larger_width(delta):
    # a body smaller than the declared width is fine (zero padded at the top)
    d = parse_program("packing Small(a: 4): 12 = 0b_aaaa;")[0]
    assert check_packing_decl(d, delta) == []


def test_size_over_64_rejected():
    src = "packing Big(a: 60): 64 = #concat(a, 0b_00000000);"
    d = parse_program(src)[0]
    diags = check_packing_decl(d, {})
    assert diags and diags[0].code == "E010"


@pytest.mark.parametrize("src, message", [
    ("packing P(a: 8): 80 = 0b_aaaaaaaa;", "declared width 80 exceeds 64"),
    ("packing P(a: 0): 8 = 0b_00000000;", "parameter 'a' width 0 out of range"),
])
def test_declared_widths_out_of_range(src, message):
    d = parse_program(src)[0]
    assert [(g.code, g.message) for g in check_packing_decl(d, {})] == [("E010", message)]


def test_float_suite_ok(delta):
    assert set(delta) == {"Float16", "Float32", "TwoFloat16s"}


def test_oversized_body():
    d = parse_program("packing P(a:4): 2 = 0b_aaaa;")[0]
    diags = check_packing_decl(d, {})
    assert diags and diags[0].code == "E010"


def test_solve_in_declaration():
    d = parse_program("packing P(a:4): 8 = #solve(a);")[0]
    diags = check_packing_decl(d, {})
    assert diags and diags[0].code == "E011"


def test_recursive_application():
    d = parse_program("packing P(a:1): 1 = P(a);")[0]
    diags = check_packing_decl(d, {})
    assert diags and diags[0].code in ("E013", "E014")


def test_self_reference_reported_as_recursive():
    d = parse_program("packing Q(a:1): 1 = Q(a);")[0]
    # with the declaration visible in scope the recursion is the diagnosis
    diags = check_packing_decl(d, {"Q": d})
    assert diags and diags[0].code == "E014"


def test_resolve_layout_letters():
    e = parse_packing_expr("0b_seeeeeff_ffffffff")
    got = resolve_layout_fields(e, ["sign", "exp", "frac"])
    assert got == {"s": "sign", "e": "exp", "f": "frac"}


def test_resolve_ambiguous_letter():
    e = parse_packing_expr("0b_ss")
    with pytest.raises(VerifyError) as err:
        resolve_layout_fields(e, ["sign", "size"])
    assert err.value.diag.code == "E012"


def test_resolve_no_letters():
    e = parse_packing_expr("0b_0011")
    assert resolve_layout_fields(e, ["sign"]) == {}


def test_resolve_unmatched_letter():
    e = parse_packing_expr("0b_zz")
    with pytest.raises(VerifyError) as err:
        resolve_layout_fields(e, ["sign"])
    assert err.value.diag.code == "E013"


def test_split_field_run_rejected():
    e = parse_packing_expr("0b_a0a")
    with pytest.raises(VerifyError) as err:
        check_expr(e, ctx({"alpha": 1}))
    assert err.value.diag.code == "E015"


def test_run_length_must_match_width():
    e = parse_packing_expr("0b_aa")
    with pytest.raises(VerifyError) as err:
        check_expr(e, ctx({"alpha": 4}))
    assert err.value.diag.code == "E010"


def test_monotonicity_of_concat():
    g = {"a": 3, "b": 5}
    e1 = parse_packing_expr("a")
    e2 = parse_packing_expr("b")
    e = parse_packing_expr("#concat(a, b)")
    c = ctx(g)
    assert check_expr(e, c) == check_expr(e1, c) + check_expr(e2, c)


def test_duplicate_packing_name():
    decls = parse_program("packing P(a:1): 1 = 0b_a;\npacking P(b:1): 1 = 0b_b;")
    _, diags = check_program_decls(decls)
    assert any(d.code == "E013" for d in diags)


def test_forward_reference_unbound():
    decls = parse_program(
        "packing Uses(x:4): 4 = Later(x);\npacking Later(a:4): 4 = 0b_aaaa;"
    )
    _, diags = check_program_decls(decls)
    assert any(d.code == "E013" for d in diags)


def test_apply_arity_mismatch():
    scope, _ = check_program_decls(parse_program("packing P(a:2, b:2): 4 = 0b_aabb;"))
    with pytest.raises(VerifyError) as e:
        check_expr(parse_packing_expr("P(x)"), scope.with_gamma({"x": 2}))
    assert e.value.diag.code == "E010"


@pytest.mark.parametrize("source, code", [
    ("#solve(a, a)", "E016"),
    ("#solve(#solve(a))", "E011"),
])
def test_solve_entries_are_checked(source, code):
    with pytest.raises(VerifyError) as e:
        check_expr(parse_packing_expr(source), ctx({"a": 2}))
    assert e.value.diag.code == code


def test_verified_declarations_always_flatten():
    """Soundness: an expression that verifies flattens, to the width,
    assignments and pattern of the reference flattening."""
    import random as _random

    from adtlayout.flatten import flatten_expr
    from oracles import random_context, random_decls, random_expr, reference_flatten

    from adtlayout.syntax import Concat, FieldRef

    rng = _random.Random(31337)
    drawn = accepted = rejected = 0
    while drawn < 150:
        delta = random_decls(rng)
        c = random_context(rng, delta)
        e = random_expr(rng, c, depth=3, used=set(), max_width=64)
        if e is None:
            continue
        drawn += 1
        # the last two may place a field twice
        appended = Concat((e, FieldRef(rng.choice(sorted(c.gamma)))))
        for candidate in (e, appended, Concat((e, e))):
            try:
                width = check_expr(candidate, c)
            except VerifyError:
                rejected += 1
                continue
            flat = flatten_expr(candidate, c)
            assert (flat.assignments, print_pattern(flat.pattern), width) == reference_flatten(candidate, c)
            accepted += 1
    assert accepted > 150 and rejected > 0


def test_subsumption_property():
    """Any well-sized expression verifies against every declared width from
    its size up to 64."""
    import random as _random

    from oracles import random_context, random_decls, random_expr
    from adtlayout.syntax import PackingDecl

    rng = _random.Random(777)
    done = 0
    while done < 60:
        delta = random_decls(rng)
        c = random_context(rng, delta)
        e = random_expr(rng, c, depth=2, used=set(), max_width=32)
        if e is None:
            continue
        try:
            n = check_expr(e, c)
        except VerifyError:
            continue
        params = tuple((f, w) for f, w in sorted(c.gamma.items()))
        for n_prime in {n, n + 1, 37, 64}:
            if not n <= n_prime <= 64:
                continue
            decl = PackingDecl("Sub", params, n_prime, e)
            assert check_packing_decl(decl, delta) == []
        done += 1
