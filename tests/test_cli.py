import io
import json
import os
import subprocess
import sys

import pytest

import adtlayout
from adtlayout.cli import cmd_check, cmd_equiv, cmd_layout, main, run_equivalence
from adtlayout.ir import Const

from corpus import CORPUS_SRC
from test_golden import ANNOTATED_REFS

FLOAT_SUITE = """
packing Float16(sign: 1, exp: 5, frac: 10): 16 = 0b_seeeeeff_ffffffff;
packing Float32(sign: 1, exp: 8, frac: 23): 32 = 0b_seeeeeee_efffffff_ffffffff_ffffffff;
packing TwoFloat16s(s1: 1, e1: 5, f1: 10, s2: 1, e2: 5, f2: 10): 32
    = #concat(Float16(s1, e1, f1), Float16(s2, e2, f2));
"""


@pytest.fixture
def float_file(tmp_path):
    p = tmp_path / "floats.pk"
    p.write_text(FLOAT_SUITE)
    return str(p)


@pytest.fixture
def corpus_file(tmp_path):
    p = tmp_path / "corpus.pk"
    p.write_text(CORPUS_SRC)
    return str(p)


def test_check_float_suite_ok(float_file):
    assert cmd_check([float_file], out=io.StringIO()) == 0


def test_check_solve_in_decl_fails(tmp_path):
    p = tmp_path / "bad.pk"
    p.write_text("packing P(a:4): 8 = #solve(a);")
    err = io.StringIO()
    assert cmd_check([str(p)], out=err) == 1
    assert "E011" in err.getvalue()


@pytest.mark.parametrize("source", [
    "type T { case A(x: " + "(" * 2000 + "u8" + ")" * 2000 + "); }",
    "type T #unboxed { case A(x: u8) #packing " + "#concat(" * 1500 + "x" + ")" * 1500 + "; }",
    "type L<T> { case N; case C(h: T); }\ntype T { case A(x: " + "L<" * 1500 + "u8" + ">" * 1500 + "); }",
    "packing P(a: \u00b2): 8 = 0b_aaaaaaaa;",
], ids=["parens", "concat", "generic", "superscript"])
def test_check_deep_nesting_and_non_ascii_digits_exit_1(tmp_path, source):
    """Each ends in a syntax diagnostic, not a RecursionError or ValueError."""
    p = tmp_path / "bad.pk"
    p.write_text(source, encoding="utf-8")
    err = io.StringIO()
    assert cmd_check([str(p)], out=err) == 1
    assert err.getvalue().startswith("error: E001 at ")


def test_check_missing_file_exit_2():
    assert cmd_check(["/nonexistent/file.pk"], out=io.StringIO()) == 2


def test_layout_option_report(tmp_path):
    p = tmp_path / "opt.pk"
    p.write_text("type Option<T> #unboxed { case None; case Some(val: T); }")
    out = io.StringIO()
    status = cmd_layout([str(p)], as_json=True, instantiate=["Option<u32>"], out=out)
    assert status == 0
    report = json.loads(out.getvalue())
    assert report["v"] == 1
    entry = report["adts"][0]
    assert entry["adt"] == "Option<u32>"
    assert not entry["boxed"]
    assert len(entry["scalars"]) == 1
    assert entry["tag_scheme"] == {
        "kind": "explicit-tag",
        "scalar": 0,
        "width": 1,
        "offset": 32,
    }


def test_layout_recursive_reported_boxed(tmp_path):
    p = tmp_path / "list.pk"
    p.write_text("type List<T> { case Nil; case Cons(head: T, tail: List<T>); }")
    out = io.StringIO()
    status = cmd_layout([str(p)], as_json=True, instantiate=["List<u32>"], out=out)
    assert status == 0
    entry = json.loads(out.getvalue())["adts"][0]
    assert entry["boxed"] and entry["reason"] == "recursive"


def test_layout_nullary_enum_tag_scalar(tmp_path):
    p = tmp_path / "enum.pk"
    p.write_text("type Color { case Red; case Green; case Blue; }")
    out = io.StringIO()
    assert cmd_layout([str(p)], as_json=True, out=out) == 0
    entry = json.loads(out.getvalue())["adts"][0]
    assert entry["scalars"] == [{"kind": "B64", "width": 2, "ref": False}]
    assert entry["tag_scheme"]["kind"] == "bare-tag"


def test_layout_text_output_stable(corpus_file):
    outs = []
    for _ in range(2):
        out = io.StringIO()
        assert cmd_layout([corpus_file], out=out) == 0
        outs.append(out.getvalue())
    assert outs[0] == outs[1]
    assert "adt C05" in outs[0]


def test_layout_json_deterministic(corpus_file):
    blobs = []
    for _ in range(2):
        out = io.StringIO()
        assert cmd_layout([corpus_file], as_json=True, out=out) == 0
        blobs.append(out.getvalue())
    assert blobs[0] == blobs[1]


def test_layout_annotation_infeasible_exit_1(tmp_path):
    p = tmp_path / "bad.pk"
    p.write_text("type P #unboxed { case C(x: u8, y: f32) #packing #solve(x, y); }")
    err = io.StringIO()
    status = cmd_layout([str(p)], target="jvm", out=io.StringIO(), err=err)
    assert status == 1
    assert "x" in err.getvalue() or "y" in err.getvalue()


@pytest.mark.parametrize("target", ["jvm", "x86-32"])
def test_pinned_reference_needs_tagged_references(tmp_path, target, capsys):
    p = tmp_path / "refs.pk"
    p.write_text(ANNOTATED_REFS)
    assert main(["layout", str(p), "--target", target]) == 1
    assert capsys.readouterr().err == (
        "error: packing annotation on Pr admits no layout: conflicting fields x\n"
    )


def test_pinned_reference_that_does_not_fit_exits_1(tmp_path, capsys):
    """On x86-32 a reference to the boxed R is a 32-bit word, and the bit
    written above it makes the annotated scalar 64 bits wide, so the
    reference cannot sit at bit 0, where the annotation pins it."""
    p = tmp_path / "pinned.pk"
    p.write_text(
        "type R { case C(y: u8); case D; }\n"
        "type T #unboxed { case A(r: R) #packing #concat(0b_1, r); case B; }\n"
    )
    assert main(["layout", str(p), "--target", "x86-32"]) == 1
    assert "pinned at scalar 0 bit 0" in capsys.readouterr().err


def test_layout_env_var_target(tmp_path, monkeypatch):
    p = tmp_path / "t.pk"
    p.write_text("type T { case A(x: u8); }")
    monkeypatch.setenv("ADTLAYOUT_TARGET", "x86-32")
    out = io.StringIO()
    assert cmd_layout([str(p)], as_json=True, out=out) == 0
    entry = json.loads(out.getvalue())["adts"][0]
    assert entry["scalars"][0]["kind"] == "B32"


def test_equiv_small_run_exit_0(corpus_file):
    out = io.StringIO()
    assert cmd_equiv([corpus_file], seed=7, programs=12, out=out) == 0
    assert "12/12" in out.getvalue()


def test_equiv_zero_programs_vacuous():
    out = io.StringIO()
    assert cmd_equiv([], seed=7, programs=0, out=out) == 0


def test_equiv_injected_fault_detected():
    """Harness self-test: corrupting one constant in the normalized program
    must surface as a disagreement with a reproducer."""

    def sabotage(post):
        for fn in post.functions.values():
            for blk in fn.blocks.values():
                for i, ins in enumerate(blk.instrs):
                    if isinstance(ins, Const) and isinstance(ins.value, int):
                        blk.instrs[i] = Const(ins.dst, ins.type, ins.value ^ 1)
                        return

    result = run_equivalence(seed=3, count=40, mutate_normalized=sabotage)
    assert not result.ok
    assert "boxed=" in result.failures[0]


def test_main_argparse_roundtrip(float_file, capsys):
    assert main(["check", float_file]) == 0
    assert main(["layout", float_file, "--json"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["v"] == 1


def test_unbox_limit_flag(tmp_path):
    p = tmp_path / "s3.pk"
    p.write_text("type S3 { case C(a: u8, b: u8, c: u8); }")
    out = io.StringIO()
    assert cmd_layout([str(p)], as_json=True, out=out) == 0
    assert json.loads(out.getvalue())["adts"][0]["boxed"]
    out = io.StringIO()
    assert cmd_layout([str(p)], as_json=True, unbox_limit=3, out=out) == 0
    entry = json.loads(out.getvalue())["adts"][0]
    assert not entry["boxed"] and entry["reason"] == "auto"


@pytest.mark.parametrize("budget", ["0", "3"])
def test_layout_tiny_budget_still_packs(tmp_path, budget, capsys):
    """Each case's first descent is not charged, so any budget gives at
    least the first-fit layout: one scalar, not one per field."""
    p = tmp_path / "s.pk"
    p.write_text("type S #unboxed { case A(x: u8, y: u8); case B(z: u8); }")
    assert main(["layout", str(p), "--target", "x64", "--budget", budget, "--json"]) == 0
    entry = json.loads(capsys.readouterr().out)["adts"][0]
    assert len(entry["scalars"]) == 1
    assert entry["steps"] <= int(budget)


def test_custom_target_file(tmp_path):
    spec = {
        "name": "w32",
        "word_width": 32,
        "kinds": {
            "int32": ["B32"],
            "int64": ["B64"],
            "float32": ["F32"],
            "float64": ["F64"],
            "ref": ["R32"],
        },
    }
    tfile = tmp_path / "w32.json"
    tfile.write_text(json.dumps(spec))
    p = tmp_path / "t.pk"
    p.write_text("type T { case A(x: u8); }")
    out = io.StringIO()
    assert cmd_layout([str(p)], target=str(tfile), as_json=True, out=out) == 0
    assert json.loads(out.getvalue())["adts"][0]["scalars"][0]["kind"] == "B32"


@pytest.fixture
def small_file(tmp_path):
    p = tmp_path / "small.pk"
    p.write_text("type S #unboxed { case A; case B(x: u8); }")
    return str(p)


@pytest.mark.parametrize("command", ["check", "layout"])
def test_unknown_target_is_usage_error(small_file, command, capsys):
    assert main([command, small_file, "--target", "nope"]) == 2
    assert "error: unknown target 'nope'" in capsys.readouterr().err


def test_instantiate_syntax_error_is_usage_error(small_file, capsys):
    assert main(["layout", small_file, "--instantiate", "S<"]) == 2
    assert "error: E001" in capsys.readouterr().err


def test_instantiate_unknown_type_exit_1(small_file, capsys):
    assert main(["layout", small_file, "--instantiate", "Nope<u8>"]) == 1
    assert "error: unknown type Nope<u8>" in capsys.readouterr().err


def test_equiv_negative_program_count_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["equiv", "--programs", "-3"])
    assert exc.value.code == 2
    assert "--programs" in capsys.readouterr().err


_W32_KINDS = {
    "int32": ["B32"],
    "int64": ["B64"],
    "float32": ["F32"],
    "float64": ["F64"],
    "ref": ["R32"],
}
_X64_KINDS = {cls: ["B64", "F64", "R64"] for cls in ("int32", "int64", "float32", "float64")}
_X64_KINDS["ref"] = ["R64"]


@pytest.mark.parametrize("command", ["check", "layout"])
@pytest.mark.parametrize(
    "text, message",
    [
        ('{"name": "t"', "malformed target file"),
        ('["w32"]', "malformed target file"),
        (json.dumps({"name": "w32", "word_width": 32}), "lacks 'kinds'"),
        (json.dumps({"word_width": 32, "kinds": _W32_KINDS}), "lacks 'name'"),
        (json.dumps({"name": "w32", "kinds": _W32_KINDS}), "lacks 'word_width'"),
        (json.dumps({"name": "rt", "word_width": 32, "kinds": _W32_KINDS, "ref_tagging": {
            "free_low_bits": 2, "ref_pattern": "0", "value_pattern": "1u"}}),
         "malformed target file"),
        (json.dumps({"name": "rt", "word_width": 32, "kinds": _W32_KINDS, "ref_tagging": {
            "free_low_bits": 2, "ref_pattern": "uu", "value_pattern": "uu"}}),
         "malformed target file"),
        (json.dumps({"name": "rt", "word_width": 32, "kinds": _W32_KINDS, "ref_tagging": {
            "free_low_bits": 2, "ref_pattern": "0z", "value_pattern": "1q"}}),
         "malformed target file"),
        (json.dumps({"name": "rt", "word_width": 2, "kinds": _W32_KINDS, "ref_tagging": {
            "free_low_bits": 2, "ref_pattern": "0u", "value_pattern": "1u"}}),
         "free_low_bits must be in 1..1"),
        # each class needs kinds of one width, and `ref` reference kinds
        (json.dumps({"name": "w32", "word_width": 32, "kinds": {**_W32_KINDS, "int32": []}}),
         "target w32: empty kind set for int32"),
        (json.dumps({"name": "w32", "word_width": 32,
                     "kinds": {**_W32_KINDS, "int32": ["B32", "B64"]}}),
         "target w32: mixed-width kind set for int32"),
        (json.dumps({"name": "w32", "word_width": 32, "kinds": {**_W32_KINDS, "ref": ["B32"]}}),
         "target w32: non-reference kind in ref set"),
        # a class outside the five, empty or not, is refused by name
        (json.dumps({"name": "w32", "word_width": 32, "kinds": {**_W32_KINDS, "extra": []}}),
         "unknown kind class extra"),
        (json.dumps({"name": "w32", "word_width": 32, "kinds": {**_W32_KINDS, "extra": ["F32"]}}),
         "unknown kind class extra"),
        # each value of the wrong JSON type is refused where the file is
        # read, by its key; a bool is not an integer
        ('[{"name": "w32"}]', 'a target is a JSON object, not [{"name": "w32"}]'),
        (json.dumps({"name": 5, "word_width": 32, "kinds": _W32_KINDS}),
         "name must be a string, not 5"),
        (json.dumps({"name": "w64", "word_width": 64.0, "kinds": _X64_KINDS,
                     "ref_tagging": {"free_low_bits": 2, "ref_pattern": "00",
                                     "value_pattern": "1u"}}),
         "word_width must be an integer, not 64.0"),
        (json.dumps({"name": "w32", "word_width": "32", "kinds": _W32_KINDS}),
         'word_width must be an integer, not "32"'),
        (json.dumps({"name": "w32", "word_width": True, "kinds": _W32_KINDS}),
         "word_width must be an integer, not true"),
        (json.dumps({"name": "w0", "word_width": 0, "kinds": {**_W32_KINDS, "ref": ["Ref"]}}),
         "target w0: word_width must be positive"),
        (json.dumps({"name": "w32", "word_width": 32, "kinds": list(_W32_KINDS)}),
         'kinds must be an object, not ["int32"'),
        (json.dumps({"name": "w32", "word_width": 32, "kinds": {**_W32_KINDS, "int32": "B32"}}),
         'kinds.int32 must be a list of kind names, not "B32"'),
        # a kind name is refused with the class it sits in
        (json.dumps({"name": "w32", "word_width": 32, "kinds": {**_W32_KINDS, "int32": ["Q64"]}}),
         "kinds.int32: 'Q64' is not a kind"),
        (json.dumps({"name": "rt", "word_width": 32, "kinds": _W32_KINDS, "ref_tagging": "0u"}),
         'ref_tagging must be an object, not "0u"'),
        (json.dumps({"name": "rt", "word_width": 32, "kinds": _W32_KINDS, "ref_tagging": {
            "free_low_bits": True, "ref_pattern": "0", "value_pattern": "1"}}),
         "ref_tagging.free_low_bits must be an integer, not true"),
    ],
)
def test_malformed_target_file_is_usage_error(
    small_file, tmp_path, command, text, message, capsys
):
    tfile = tmp_path / "bad.json"
    tfile.write_text(text)
    assert main([command, small_file, "--target", str(tfile)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


_NARROW_KINDS = {"int32": ["B32"], "int64": ["B32"], "float32": ["F32"], "float64": ["F64"],
                 "ref": ["Ref"]}


@pytest.mark.parametrize(
    "kinds, source, message",
    [
        (_NARROW_KINDS, "type W #unboxed { case A(x: u64); case B; }",
         "int64 kinds are 32 bits wide, not 64"),
        ({**_NARROW_KINDS, "int64": ["B64"], "float64": ["F32"]},
         "type W #unboxed { case A(x: f64); case B; }",
         "float64 kinds are 32 bits wide, not 64"),
        ({**_NARROW_KINDS, "int64": ["B64"], "ref": ["R32"]},
         "type B { case A(x: u8); case C; } type U #unboxed { case A(b: B); case N; }",
         "ref kinds are 32 bits wide, not 64"),
    ],
)
def test_target_file_with_a_misfit_class_is_usage_error(
    tmp_path, kinds, source, message, capsys
):
    """A 64-bit value class narrower than 64 bits, or a reference class
    other than a word wide, is a malformed target file, not an input that
    admits no layout."""
    tfile = tmp_path / "narrow.json"
    tfile.write_text(json.dumps({"name": "narrow", "word_width": 64, "kinds": kinds}))
    p = tmp_path / "w.pk"
    p.write_text(source)
    assert main(["layout", str(p), "--target", str(tfile)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "width, cases",
    [(1, "case N; case M(y: u8);"), (2, "case N; case M(y: u8); case P; case Q;")],
    ids=["word-1-three-cases", "word-2-five-cases"],
)
def test_tag_wider_than_a_reference_scalar_is_kept_out_of_it(tmp_path, width, cases, capsys):
    """A reference scalar one word wide cannot keep a tag wider than the
    word free: that reservation is skipped, and the tag goes to another
    scalar, where it once ended in a negative shift."""
    tfile = tmp_path / "narrow.json"
    tfile.write_text(json.dumps({"name": f"w{width}", "word_width": width,
                                 "kinds": {**_NARROW_KINDS, "int64": ["B64"]}}))
    p = tmp_path / "u.pk"
    p.write_text(f"type B {{ case A(x: u8); case C; }} type U #unboxed {{ case A(b: B); {cases} }}")
    assert main(["layout", str(p), "--target", str(tfile)]) == 0
    out, err = capsys.readouterr()
    assert f"scalars: [s0:Ref:{width}:ref, s1:B32:32]" in out
    assert "tag: explicit-tag s1@" in out and err == ""


@pytest.mark.parametrize("flag, value", [("--budget", "-1"), ("--unbox-limit", "-4")])
def test_layout_negative_numbers_rejected(small_file, flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["layout", small_file, flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_target_file_ref_tagging_matches_builtin_x64(tmp_path, corpus_file):
    """A target file that spells out x64's kinds and low-bit tagging yields
    the same layouts as the built-in x64."""
    kinds = ["B64", "F64", "R64"]
    spec = {
        "name": "x64",
        "word_width": 64,
        "kinds": {"int32": kinds, "int64": kinds, "float32": kinds, "float64": kinds,
                  "ref": ["R64"]},
        "ref_tagging": {"free_low_bits": 2, "ref_pattern": "0u", "value_pattern": "1u"},
    }
    tfile = tmp_path / "x64.json"
    tfile.write_text(json.dumps(spec))
    from_file, builtin = io.StringIO(), io.StringIO()
    assert cmd_layout([corpus_file], target=str(tfile), as_json=True, out=from_file) == 0
    assert cmd_layout([corpus_file], target="x64", as_json=True, out=builtin) == 0
    assert from_file.getvalue() == builtin.getvalue()


def test_polymorphic_recursion_short_diagnostic(tmp_path, capsys):
    p = tmp_path / "poly.pk"
    p.write_text("type L<T> #unboxed { case N; case C(h: T, t: L<(T, T)>); }")
    assert main(["layout", str(p), "--instantiate", "L<u8>"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "L" in err and "8 levels" in err
    assert len(err.encode()) < 200


@pytest.mark.parametrize("command", ["check", "layout"])
@pytest.mark.parametrize("source", ["type E { }", "type E #unboxed { }"])
def test_type_without_cases_is_syntax_error(tmp_path, source, command, capsys):
    p = tmp_path / "empty.pk"
    p.write_text(source + "\n")
    assert main([command, str(p)]) == 1
    assert capsys.readouterr().err == "error: E001 at 1:1: type E has no cases\n"


@pytest.mark.parametrize("command", ["check", "layout"])
@pytest.mark.parametrize(
    "source, message",
    [
        (
            "type L<T> #unboxed { case N; case C(h: T, t: L<(T, T)>); }"
            " type U { case A(x: L<u8>); }",
            "error: instantiating L nests types deeper than 8 levels",
        ),
        ("type F { case A; } type U { case A(x: F<u8>); }",
         "error: F expects 0 type arguments, got 1"),
        ("packing P(a: 4): 2 = 0b_aaaa; type T { case C(x: u4); }",
         "E010 at 1:1: body of 'P' has size 4 > declared width 2"),
        # declarations that could never be applied
        ("packing P(a: 2): 4 = #concat(a, a);", "E016 at 1:22: field 'a' placed twice\n"),
        ("packing Pair(hi: 4, lo: 4): 8 = 0b_hhhh_llll; packing Q(a: 4): 8 = Pair(a, a);",
         "E016 at 1:68: field 'a' placed twice\n"),
        ("packing D(x: 2, y: 2): 2 = x; packing Q(a: 2, b: 2): 2 = D(a, b);",
         "E013 at 1:58: parameter 'y' of D is unused; cannot place b\n"),
        # annotations
        ("type T #unboxed { case A(x: u8) #packing #concat(x, nope); }",
         "error: E013 at 1:53: unbound field 'nope'\n"),
        ("type T #unboxed { case A(x: u8) #packing Nope(x); }",
         "error: E013 at 1:42: unbound packing 'Nope'\n"),
        # a field whose type unboxes into several scalars is declared but has
        # no width of its own
        ("type R { case A(x: u8); }\n"
         "type P #unboxed { case C(r: R, y: u8) #packing #concat(r, y); }",
         "error: E013 at 2:56: field 'r' of unboxed type R spreads over scalars "
         "that a #packing cannot name\n"),
        ("type R { case A(x: u8); }\n"
         "type P #unboxed { case C(r: R, y: u8) #packing #solve(r, y); }",
         "error: E013 at 2:55: field 'r' of unboxed type R spreads over scalars "
         "that a #packing cannot name\n"),
        ("type Q #unboxed { case C(t: (u4, u4)) #packing t; }",
         "error: E013 at 1:48: field 't' of unboxed type (u4, u4) spreads over scalars "
         "that a #packing cannot name\n"),
        # a bit letter names a source field, so it cannot name one of the
        # scalars that a spread field is normalized into
        ("type R { case A(x: u8); }\n"
         "type P #unboxed { case C(r: R, y: u8) #packing 0b_rrrrrrrryyyyyyyy; }",
         "error: E013 at 2:48: field 'r' of unboxed type R spreads over scalars "
         "that a #packing cannot name\n"),
        ("type Q #unboxed { case C(t: (u4, u4), y: u8) #packing 0b_ttttyyyyyyyy; }",
         "error: E013 at 1:55: field 't' of unboxed type (u4, u4) spreads over scalars "
         "that a #packing cannot name\n"),
        ("packing P(a: 8): 8 = a; type T #unboxed { case A(x: u8, y: u8) #packing P(x, y); }",
         "error: E010 at 1:73: P expects 1 arguments, got 2\n"),
        ("type T #unboxed { case A(x: u8, y: u8) #packing #concat(x, #solve(y)); }",
         "error: E011 at 1:60: #solve cannot be nested\n"),
        ("packing P(a: 4): 8 = a; type T #unboxed { case A(x: u8) #packing P(x); }",
         "error: E010 at 1:66: argument for P.a has size 8 > parameter width 4\n"),
        ("type T #unboxed { case A(x: u40, y: u40) #packing #concat(x, y); }",
         "error: E010 at 1:51: expression size 80 exceeds the largest scalar (64 bits)\n"),
        # a dotted field name could equal the name of a tuple field's scalar
        ("type T #unboxed { case C(a: (u8, u8), a.0: u16); }",
         "error: E001 at 1:39: field name a.0 holds a '.'\n"),
    ],
    ids=["polymorphic-recursion", "wrong-arity", "packing-too-wide", "concat-reuse",
         "argument-reuse", "unused-parameter", "unbound-field", "unbound-packing",
         "unboxed-field-concat", "unboxed-field-solve", "tuple-field",
         "unboxed-field-letter", "tuple-field-letter",
         "packing-arity", "nested-solve", "argument-width", "wider-than-64", "dotted-field"],
)
def test_check_and_layout_reject_alike(tmp_path, source, message, command, capsys):
    p = tmp_path / "bad.pk"
    p.write_text(source + "\n")
    assert main([command, str(p)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(message) and "Traceback" not in err


@pytest.mark.parametrize("command", ["check", "layout"])
def test_packing_names_the_scalars_of_a_tuple(tmp_path, command):
    """`#concat` may name the scalars `t.0` and `t.1` of a tuple field."""
    p = tmp_path / "tuple.pk"
    p.write_text("type Q #unboxed { case C(t: (u4, u4), y: u8) #packing #concat(t.0, t.1, y); }\n")
    assert main([command, str(p)]) == 0


@pytest.mark.parametrize("command", ["check", "layout"])
@pytest.mark.parametrize(
    "source, message",
    [
        ("type A { case X(a: u8, a: u16); }",
         "error: E001 at 1:10: case X has two fields named a\n"),
        ("type A #unboxed { case X; case X(b: u8); }",
         "error: E001 at 1:27: type A has two cases named X\n"),
        ("type A { case X; } type A { case Y(b: u8); }", "error: type A is declared twice\n"),
    ],
    ids=["field", "case", "type"],
)
def test_duplicate_names_rejected(tmp_path, source, message, command, capsys):
    p = tmp_path / "dup.pk"
    p.write_text(source + "\n")
    assert main([command, str(p)]) == 1
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("command", ["check", "layout"])
def test_type_declared_in_two_files_rejected(tmp_path, command, capsys):
    first, second = tmp_path / "a.pk", tmp_path / "b.pk"
    first.write_text("type A { case X; }\n")
    second.write_text("type A { case Y(b: u8); }\n")
    assert main([command, str(first), str(second)]) == 1
    assert capsys.readouterr().err == "error: type A is declared twice\n"


def _doubling_chain(levels: int) -> str:
    """P0 lays out one bit; each P<k> applies P<k-1> to P<k-1>(a)."""
    lines = ["packing P0(a: 1): 1 = 0b_a;"]
    lines += [f"packing P{k}(a: 1): 1 = P{k - 1}(P{k - 1}(a));" for k in range(1, levels + 1)]
    return "\n".join(lines) + "\n"


def _linear_chain(length: int) -> str:
    """P0 lays out one bit; each P<k> applies P<k-1>, and a type uses the last."""
    lines = ["packing P0(a: 1): 1 = 0b_a;"]
    lines += [f"packing P{k}(a: 1): 1 = P{k - 1}(a);" for k in range(1, length)]
    lines.append(f"type T #unboxed {{ case A(x: u1) #packing P{length - 1}(x); }}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("command", ["check", "layout"])
def test_doubling_chain_flattens_each_body_once(tmp_path, command, monkeypatch, capsys):
    """Each body is flattened once and spliced at every application, so 31
    declarations that each apply the one before twice need a few hundred
    flatten steps, not 2**31; more than 1000 fails instead of hanging."""
    from adtlayout import flatten

    calls = [0]
    real = flatten.flatten_expr

    def counted(expr, ctx):
        calls[0] += 1
        assert calls[0] <= 1000, "a packing body is flattened more than once"
        return real(expr, ctx)

    monkeypatch.setattr(flatten, "flatten_expr", counted)
    p = tmp_path / "doubling.pk"
    p.write_text(_doubling_chain(30))
    assert main([command, str(p)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["check", "layout"])
def test_long_linear_chain_lays_out(tmp_path, command, capsys):
    """A chain of 1000 declarations, each applying the one before, checks and
    lays out without a RecursionError: an applied body is already flattened."""
    p = tmp_path / "chain.pk"
    p.write_text(_linear_chain(1000))
    assert main([command, str(p), "--json"] if command == "layout" else [command, str(p)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    if command == "layout":
        (entry,) = json.loads(out)["adts"]
        assert entry["adt"] == "T" and not entry["boxed"]


def test_importing_the_cli_loads_no_equiv_module():
    """Only `equiv` runs the IR modules, so `layout` and `check` neither
    compile nor define them: a fresh interpreter that imports the CLI has
    none of them loaded."""
    code = ("import sys, adtlayout.cli; print(sorted(set(sys.modules) & {"
            "'adtlayout.ir', 'adtlayout.interp', 'adtlayout.norm', 'adtlayout.progen', 'adtlayout.progtext'}))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(adtlayout.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    assert done.stdout == "[]\n"
