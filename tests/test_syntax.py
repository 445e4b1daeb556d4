import json
import pathlib

import pytest
from hypothesis import given, strategies as st

from adtlayout.syntax import (
    AdtDecl,
    Apply,
    BitLayout,
    Concat,
    Empty,
    MAX_NESTING,
    FieldRef,
    NamedType,
    PackingDecl,
    PackingSyntaxError,
    _lex,
    parse_packing_expr,
    parse_program,
    parse_type,
    print_decl,
    print_expr,
)

FLOAT16 = "packing Float16(sign:1, exp:5, frac:10): 16 = 0b_seeeeeff_ffffffff;"


def test_parse_float16_decl():
    decls = parse_program(FLOAT16)
    assert len(decls) == 1
    d = decls[0]
    assert isinstance(d, PackingDecl)
    assert d.name == "Float16"
    assert d.params == (("sign", 1), ("exp", 5), ("frac", 10))
    assert d.width == 16
    assert isinstance(d.body, BitLayout)
    assert d.body.width == 16
    assert "".join(d.body.bits) == "seeeeeffffffffff"


def test_parse_adt_two_variants():
    decls = parse_program("type T { // two cases\n case A(x: int); case B(y: float); }")
    assert len(decls) == 1
    d = decls[0]
    assert isinstance(d, AdtDecl)
    assert [v.name for v in d.variants] == ["A", "B"]
    assert d.variants[0].fields[0][0] == "x"


def test_parse_empty_source():
    assert parse_program("") == []


def test_parse_layout_with_fields():
    e = parse_packing_expr("0b_00aa_bb11")
    assert isinstance(e, BitLayout)
    assert "".join(e.bits) == "00aabb11"


def test_parse_concat_of_applies():
    e = parse_packing_expr("#concat(Float16(s1,e1,f1), Float16(s2,e2,f2))")
    assert isinstance(e, Concat)
    assert len(e.parts) == 2
    assert all(isinstance(p, Apply) for p in e.parts)
    assert e.parts[0].args == (FieldRef("s1"), FieldRef("e1"), FieldRef("f1"))


def test_empty_bit_layout_is_empty():
    assert parse_packing_expr("0b") == Empty()
    assert parse_packing_expr("") == Empty()


def test_underscores_do_not_matter():
    a = parse_packing_expr("0b_00aa_bb11")
    b = parse_packing_expr("0b00aabb11")
    c = parse_packing_expr("0b0_0_a_a_b_b_1_1")
    assert a == b == c


def test_bad_literal_character():
    with pytest.raises(PackingSyntaxError):
        parse_program("packing P(a:1): 2 = 0b!?;")


def test_unbalanced_parens():
    with pytest.raises(PackingSyntaxError):
        parse_packing_expr("#concat(a, b")


def test_unknown_annotation():
    with pytest.raises(PackingSyntaxError) as exc:
        parse_program("type T #frob { case A; }")
    assert exc.value.code == "E002"


def test_packed_is_alias_for_packing():
    d = parse_program("type T #packed(0b_aaaa) { case A(alpha: u4); }")[0]
    assert d.packing is not None


def test_case_level_packing():
    d = parse_program("type T { case A(a: u2, b: u2) #packing 0b_00aabb11; case B; }")[0]
    assert d.variants[0].packing is not None
    assert d.packing is None
    assert d.packing_for_variant(0) is not None
    assert d.packing_for_variant(1) is None


def test_adt_level_packing_arity_checked():
    with pytest.raises(PackingSyntaxError):
        parse_program("type T #packing(0b_aa) { case A(a: u2); case B; }")


def test_mixing_packing_levels_rejected():
    with pytest.raises(PackingSyntaxError):
        parse_program(
            "type T #packing(0b_aa, 0b_bb) { case A(a: u2) #packing(a); case B(b: u2); }"
        )


def test_duplicate_param_rejected():
    with pytest.raises(PackingSyntaxError):
        parse_program("packing P(a:1, a:2): 4 = 0b_0000;")


def test_roundtrip_float_suite():
    src = """
packing Float16(sign: 1, exp: 5, frac: 10): 16 = 0b_seeeeeff_ffffffff;
packing Float32(sign: 1, exp: 8, frac: 23): 32 = 0b_seeeeeee_efffffff_ffffffff_ffffffff;
packing TwoFloat16s(s1: 1, e1: 5, f1: 10, s2: 1, e2: 5, f2: 10): 32
    = #concat(Float16(s1, e1, f1), Float16(s2, e2, f2));
type Opt<T> #unboxed { case None; case Some(val: T); }
type Pair { case P(left: u8, right: (u4, bool)); }
type Packed { case C(a: u2, b: u2) #packing(#solve(a, b)); }
"""
    decls = parse_program(src)
    for d in decls:
        again = parse_program(print_decl(d))
        assert again == [d]


def test_roundtrip_type_parameters_and_type_packing():
    """Several type parameters and a type-level #packing list, one
    expression per case, print as they parse."""
    src = "type P<A, B> #unboxed #packing(0b_0aaaaaaa, 0b_1bbbbbbb) { case L(a: A); case R(b: B); }"
    d = parse_program(src)[0]
    assert d.type_params == ("A", "B") and len(d.packing) == 2
    assert parse_program(print_decl(d)) == [d]


@st.composite
def packing_exprs(draw, depth=2):
    kind = draw(st.sampled_from(["layout", "field", "apply", "concat", "empty"]))
    if depth == 0 and kind in ("apply", "concat"):
        kind = "layout"
    if kind == "empty":
        return Empty()
    if kind == "field":
        return FieldRef(draw(st.sampled_from(["alpha", "beta", "g1", "delta.0"])))
    if kind == "layout":
        bits = draw(st.lists(st.sampled_from("01?abc"), min_size=1, max_size=12))
        return BitLayout(tuple(bits))
    parts = draw(st.lists(packing_exprs(depth=depth - 1), min_size=0, max_size=3))
    if kind == "concat":
        return Concat(tuple(parts))
    return Apply(draw(st.sampled_from(["P", "Float16"])), tuple(parts))


@given(packing_exprs(depth=3))
def test_print_parse_roundtrip(expr):
    assert parse_packing_expr(print_expr(expr)) == expr


@given(st.lists(st.sampled_from("01?ab"), min_size=0, max_size=16), st.data())
def test_underscore_placement_irrelevant(bits, data):
    text = "".join(bits)
    n_cuts = data.draw(st.integers(min_value=0, max_value=4))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(text)), min_size=n_cuts, max_size=n_cuts)))
    pieces = []
    prev = 0
    for c in cuts:
        pieces.append(text[prev:c])
        prev = c
    pieces.append(text[prev:])
    with_underscores = "0b" + "_".join(pieces)
    assert parse_packing_expr(with_underscores) == parse_packing_expr("0b" + text)


def test_duplicate_packing_annotation_rejected():
    with pytest.raises(PackingSyntaxError):
        parse_program("type T #packing(0b_aa) #packing(0b_aa) { case A(a: u2); }")


# a source nesting its field type or #packing `n` levels deep, and the text
# of one level
NESTED = {
    "parens": (lambda n: "type T { case A(x: " + "(" * n + "u8" + ")" * n + "); }", "("),
    "concat": (
        lambda n: "type T #unboxed { case A(x: u8) #packing " + "#concat(" * n + "x" + ")" * n + "; }",
        "#concat(",
    ),
    "generic": (lambda n: "type T { case A(x: " + "L<" * n + "u8" + ">" * n + "); }", "L<"),
}


@pytest.mark.parametrize("shape", sorted(NESTED))
def test_nesting_past_the_limit_is_e001_at_its_bracket(shape):
    source, level = NESTED[shape]
    parse_program(source(MAX_NESTING))
    deep = source(MAX_NESTING + 1)
    with pytest.raises(PackingSyntaxError) as exc:
        parse_program(deep)
    assert (exc.value.code, exc.value.message) == ("E001", "nesting deeper than 64 levels")
    # at the bracket that opens level 65
    assert deep[: exc.value.col].endswith(level * (MAX_NESTING + 1))


def test_digits_are_ascii_only():
    with pytest.raises(PackingSyntaxError) as exc:
        parse_program("packing P(a: \u00b2): 8 = 0b_aaaaaaaa;")
    assert (exc.value.code, exc.value.message, exc.value.col) == (
        "E001", "unexpected character '\u00b2'", 14
    )
    # an Arabic-Indic 3 makes no integer width
    assert parse_type("u\u0663") == NamedType("u\u0663")
    assert parse_program("type T { case A(x: i\u0663); }")[0].variants[0].fields[0][1] == NamedType("i\u0663")


# Pinned tokens: what `_lex` returns for edge inputs, compared with
# tests/golden/lex.json entry by entry. Each entry holds its input and either
# its tokens as [kind, text, line, col] or its first error as printed. A
# change to the file is a change in behaviour: name it in CHANGES.md. To
# write the file after such a change, run `PYTHONPATH=src python tests/test_syntax.py`.
LEX_GOLDEN = pathlib.Path(__file__).parent / "golden" / "lex.json"

LEX_CASES = {
    "crlf": "type T {\r\n  case A(x: u8);\r\n}\r\n",
    "lone-cr": "type T\r{ case A; }",
    "cr-before-token": "a\r\rb\r\n\rc",
    "tab": "type\tT {\tcase A; }",
    "form-feed": "type T\f{ case A; }\f",
    "nbsp": "type\u00a0T { case\u00a0A; }",
    "vertical-tab-and-separators": "a\vb\x1cc\u2028d\u3000e",
    "comment-at-eof-newline": "type T { case A; } // trailing\n",
    "comment-at-eof-no-newline": "type T { case A; } // trailing",
    "comment-only": "// nothing else",
    "comment-lines": "// one\n  // two\nx // three\n\ny",
    "slash": "a / b",
    "slash-at-eof": "a /",
    "superscript-two": "packing P(a: \u00b2): 8 = 0b_aaaaaaaa;",
    "superscript-after-digits": "12\u00b2",
    "arabic-indic-width": "u\u0663",
    "arabic-indic-number": "12\u0663",
    "accented-name": "caf\u00e9 \u00e9t\u00e9",
    "combining-accent": "cafe\u0301",
    "roman-numeral": "x\u2167 \u2167",
    "titlecase-letter": "\u01c5a",
    "underscore-name": "_x __ _",
    "dotted-name": "p.0 p.0.1 p. a..b",
    "lone-dot": ".",
    "hash": "#",
    "hash-space": "# packing",
    "hash-underscore": "#_",
    "hash-digits": "#0 #\u0663 #\u00b2",
    "hash-dot": "#a.b",
    "annotations": "#unboxed #packing(#concat(a, b), #solve(c))",
    "bits-empty": "0b",
    "bits-underscore-x": "0b_0x1?",
    "bits-then-digit": "0b012",
    "bits-then-accent": "0b\u00e9",
    "bits-all": "0b_01?_azAZ_",
    "leading-zeros": "007",
    "number-then-name": "12abc",
    "punctuation": "(){}<>,:;=",
    "unexpected-at": "type T @",
    "unexpected-emoji": "x \U0001f600",
    "empty": "",
    "blank-lines": "\n\n  x\n",
    "decl": "packing Float16(sign: 1, exp: 5, frac: 10): 16 = 0b_seeeeeff_ffffffff;",
}


def render_lex(source: str):
    try:
        return [list(t) for t in _lex(source)]
    except PackingSyntaxError as e:
        return {"error": str(e)}


def render_lex_golden() -> str:
    lines = [
        json.dumps({"name": name, "source": src, "result": render_lex(src)}, separators=(",", ":"))
        for name, src in LEX_CASES.items()
    ]
    return "[\n" + ",\n".join(lines) + "\n]\n"


def test_lex_matches_golden():
    entries = json.loads(LEX_GOLDEN.read_text(encoding="utf-8"))
    assert [e["name"] for e in entries] == list(LEX_CASES)
    for entry in entries:
        assert entry["source"] == LEX_CASES[entry["name"]], entry["name"]
        assert render_lex(entry["source"]) == entry["result"], entry["name"]


if __name__ == "__main__":
    LEX_GOLDEN.write_text(render_lex_golden(), encoding="utf-8")
    print(f"wrote {LEX_GOLDEN}")
