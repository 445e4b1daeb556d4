import itertools
import math
import random
import re
import time
import typing

import pytest

from adtlayout import codec, interp, ir, norm, progen, progtext
from adtlayout.interp import Outcome, eval_program
from adtlayout.ir import (
    BOOL,
    Alloc,
    BinOp,
    Bitcast,
    Block,
    Branch,
    Call,
    Const,
    Eq,
    Function,
    GetContents,
    GetField,
    GetTag,
    IrTypeError,
    Jump,
    Program,
    Project,
    ReplaceNull,
    Return,
    Switch,
    TAdt,
    TFloat,
    TInt,
    Trap,
    TTuple,
    TupleMake,
    check_program,
    dominator_spans,
)
from adtlayout.pipeline import process_adts
from adtlayout.solver import TreeTag
from adtlayout.syntax import parse_program, parse_type
from adtlayout.targets import BUILTIN_TARGETS, X64


def make_program(src: str, target=X64, requests=None) -> Program:
    decls = parse_program(src)
    reqs = [parse_type(r) for r in requests] if requests else None
    return Program.of_layouts(process_adts(decls, target, requests=reqs), target)


OPTION_SRC = "type Option #unboxed { case None; case Some(val: u32); }"


def option_program(body: list, term, extra_blocks=None) -> Program:
    program = make_program(OPTION_SRC)
    fn = Function("main", (), TInt(32, False), "entry", {})
    fn.blocks["entry"] = Block("entry", body, term)
    for blk in extra_blocks or []:
        fn.blocks[blk.label] = blk
    program.functions["main"] = fn
    return program


def test_alloc_then_getfield():
    program = option_program(
        [
            Const("v", TInt(32, False), 3),
            Alloc("o", "Option", 1, ("v",)),
            GetField("x", "Option", 1, 0, "o"),
        ],
        Return("x"),
    )
    fn = program.functions["main"]
    check_program(program)
    assert eval_program(program) == Outcome(None, 3)
    post = norm.normalize_program(program)
    check_program(post)
    assert eval_program(post) == Outcome(None, 3)


def test_gettag_becomes_shift_and_mask():
    program = option_program(
        [
            Const("v", TInt(32, False), 3),
            Alloc("o", "Option", 1, ("v",)),
            GetTag("t", "Option", "o"),
        ],
        Return("t"),
    )
    post = norm.normalize_program(program)
    check_program(post)
    ops = [type(i).__name__ for i in post.functions["main"].blocks["entry"].instrs]
    assert "ShiftOp" in ops and "BinOp" in ops
    assert "GetTag" not in ops
    assert eval_program(post) == Outcome(None, 1)


@pytest.mark.parametrize("nullary, width, target", [(10, 62, "x64"), (12, 29, "x86-32")])
def test_gettag_over_decision_tree(nullary, width, target):
    """The golden decision-tree layouts: `gettag` of each case, payload all
    ones, gives the case index boxed and through the generated classify
    helper."""
    cases = " ".join(f"case N{i};" for i in range(nullary))
    src = f"type S #unboxed {{ {cases} case P(p: u{width}); }}"
    program = make_program(src, BUILTIN_TARGETS[target])
    assert isinstance(program.layouts["S"].tag_scheme, TreeTag)
    for case in range(nullary + 1):
        args = ("v",) if case == nullary else ()
        program.functions["main"] = Function("main", (), TInt(32, False), "entry", {
            "entry": Block("entry", [
                Const("v", TInt(width, False), (1 << width) - 1),
                Alloc("o", "S", case, args),
                GetTag("t", "S", "o"),
            ], Return("t")),
        })
        check_program(program)
        post = norm.normalize_program(program)
        check_program(post)
        assert "classify$S" in post.functions
        assert eval_program(program) == eval_program(post) == Outcome(None, case)


def test_wrong_case_access_traps_both_sides():
    program = option_program(
        [
            Const("v", TInt(32, False), 3),
            Alloc("o", "Option", 1, ("v",)),
            GetField("x", "Option", 0, 0, "o") if False else GetContents("x", "Option", 0, "o"),
        ],
        Return("x") if False else Trap("unreachable"),
    )
    # contents of case 0 (None) read from a Some value: bad-case trap
    pre = eval_program(program)
    post_program = norm.normalize_program(program)
    post = eval_program(post_program)
    assert pre == post == Outcome("bad-case", None)


def test_null_access_traps_boxed():
    src = "type Boxed { case B(a: u64, b: u64, c: u64); }"
    program = make_program(src)
    fn = Function("main", (), TInt(32, False), "entry", {})
    fn.blocks["entry"] = Block(
        "entry",
        [
            Const("n", TAdt("Boxed"), None),
            GetTag("t", "Boxed", "n") if False else GetField("x", "Boxed", 0, 0, "n"),
        ],
        Trap("unreachable"),
    )
    program.functions["main"] = fn
    with pytest.raises(IrTypeError):
        check_program(program)  # null may only feed replace-null


def test_replace_null_gives_default():
    program = option_program(
        [
            Const("n", TAdt("Option"), None),
            ReplaceNull("d", "Option", "n"),
            GetTag("t", "Option", "d"),
        ],
        Return("t"),
    )
    assert eval_program(program) == Outcome(None, 0)
    post = norm.normalize_program(program)
    assert eval_program(post) == Outcome(None, 0)


def test_replace_null_passthrough():
    program = option_program(
        [
            Const("v", TInt(32, False), 5),
            Alloc("o", "Option", 1, ("v",)),
            ReplaceNull("d", "Option", "o"),
            GetField("x", "Option", 1, 0, "d"),
        ],
        Return("x"),
    )
    assert eval_program(program) == Outcome(None, 5)
    assert eval_program(norm.normalize_program(program)) == Outcome(None, 5)


def test_default_equals_first_variant_default_fields():
    """eq(replacenull(null), alloc-of-default) is true for every corpus ADT."""
    from corpus import CORPUS_SRC

    decls = parse_program(CORPUS_SRC)
    out = process_adts(decls, X64)
    for key in out.order:
        program = Program.of_layouts(out, X64)
        mono = out.resolved[key].mono
        first = mono.variants[0]
        instrs = [Const("n", TAdt(key), None), ReplaceNull("d", key, "n")]
        args = []
        heapless = True
        for i, (fname, ftype) in enumerate(first.source_fields):
            from adtlayout.ir import type_of_expr

            try:
                t = type_of_expr(ftype, program.adts)
            except TypeError:
                heapless = False
                break
            if isinstance(t, TInt):
                instrs.append(Const(f"a{i}", t, 0))
            elif isinstance(t, TFloat):
                instrs.append(Const(f"a{i}", t, 0))
            elif isinstance(t, TAdt):
                instrs.append(Const(f"z{i}", TAdt(t.key), None))
                instrs.append(ReplaceNull(f"a{i}", t.key, f"z{i}"))
            else:
                heapless = False
                break
            args.append(f"a{i}")
        if not heapless:
            continue  # tuple/opaque-field defaults are covered elsewhere
        instrs.append(Alloc("fresh", key, 0, tuple(args)))
        instrs.append(Eq("same", TAdt(key), "d", "fresh"))
        fn = Function("main", (), BOOL, "entry", {})
        fn.blocks["entry"] = Block("entry", instrs, Return("same"))
        program.functions["main"] = fn
        check_program(program)
        assert eval_program(program) == Outcome(None, 1), key
        post = norm.normalize_program(program)
        check_program(post)
        assert eval_program(post) == Outcome(None, 1), key


def test_generated_equality_laws():
    """Over 10^3 random value pairs: generated equality is reflexive and
    symmetric, and agrees with the boxed interpreter's structural equality."""
    rng = random.Random(99)
    pairs = 0
    i = 0
    while pairs < 1000:
        i += 1
        target = BUILTIN_TARGETS[["x64", "jvm", "x86-32"][i % 3]]
        program, _ = progen.generate_program(f"eqlaws:{i}", target)
        key = rng.choice(sorted(program.adts))
        # main returns (eq(a,a), eq(b,b), eq(a,b), eq(b,a)) over fresh pairs
        blk = Block("entry")
        g = progen._Gen(rng, program)
        pool: dict = {}
        names = []
        for p in range(8):
            a = g.alloc_of(blk, pool, key, 0)
            b = g.alloc_of(blk, pool, key, 0)
            blk.instrs.append(Eq(f"raa{p}", TAdt(key), a, a))
            blk.instrs.append(Eq(f"rbb{p}", TAdt(key), b, b))
            blk.instrs.append(Eq(f"rab{p}", TAdt(key), a, b))
            blk.instrs.append(Eq(f"rba{p}", TAdt(key), b, a))
            names.extend([f"raa{p}", f"rbb{p}", f"rab{p}", f"rba{p}"])
            pairs += 1
        fn = Function("pairs", (), TTuple(tuple(BOOL for _ in names)), "entry", {})
        # pre grammar has no tuple construction: return them via eq-chains is
        # noisy, so check each flag through its own single-return program
        program.functions = {}
        for name in names:
            f = Function(f"get_{name}", (), BOOL, "entry", {})
            f.blocks["entry"] = Block("entry", list(blk.instrs), Return(name))
            program.functions[f.name] = f
        post = norm.normalize_program(program)
        for p in range(8):
            pre_raa = eval_program(program, f"get_raa{p}")
            pre_rbb = eval_program(program, f"get_rbb{p}")
            assert pre_raa == pre_rbb == Outcome(None, 1)  # reflexive
            assert eval_program(post, f"get_raa{p}") == Outcome(None, 1)
            pre_rab = eval_program(program, f"get_rab{p}")
            pre_rba = eval_program(program, f"get_rba{p}")
            assert pre_rab == pre_rba  # symmetric
            # normalized equality agrees with boxed structural equality
            assert eval_program(post, f"get_rab{p}") == pre_rab
            assert eval_program(post, f"get_rba{p}") == pre_rba
    assert pairs >= 1000


def test_type_preservation_on_random_programs():
    for i in range(60):
        target = BUILTIN_TARGETS[["x64", "jvm", "x86-32"][i % 3]]
        program, _ = progen.generate_program(f"types:{i}", target)
        check_program(program)
        post = norm.normalize_program(program)
        check_program(post)  # the post grammar accepts every rewrite


def test_semantic_preservation_sample():
    for i in range(120):
        target = BUILTIN_TARGETS[["x64", "jvm", "x86-32"][i % 3]]
        program, decls = progen.generate_program(f"sem:{i}", target)
        pre = eval_program(program)
        post = norm.normalize_program(program)
        got = eval_program(post)
        assert pre == got, progtext.print_bundle(program, decls)


def test_progtext_roundtrip():
    program, decls = progen.generate_program("roundtrip:1", X64)
    text = progtext.print_bundle(program, decls)
    again, decls2 = progtext.parse_bundle(text)
    assert eval_program(again) == eval_program(program)
    assert progtext.print_bundle(again, decls2) == text


def test_progtext_roundtrip_over_generated_programs():
    """Every op the generator emits survives print -> parse_bundle -> print,
    and the reparsed program evaluates to the same outcome."""
    ops = set()
    for i in range(60):
        for name in ("x64", "jvm", "x86-32"):
            program, decls = progen.generate_program(f"text:{i}", BUILTIN_TARGETS[name])
            text = progtext.print_bundle(program, decls)
            again, decls2 = progtext.parse_bundle(text)
            assert progtext.print_bundle(again, decls2) == text
            assert eval_program(again) == eval_program(program), text
            for blk in again.functions["main"].blocks.values():
                ops.update(type(x).__name__ for x in blk.instrs + [blk.term])
    emitted = {
        "Const", "Alloc", "GetField", "GetContents", "GetTag", "ReplaceNull", "Eq",
        "Branch", "Switch", "Return",
    }
    assert emitted <= ops, emitted - ops


def test_eval_switch_and_branch():
    program = option_program(
        [
            Const("v", TInt(32, False), 1),
            Alloc("o", "Option", 1, ("v",)),
            GetTag("t", "Option", "o"),
        ],
        Switch("t", ((0, "zero"), (1, "one")), "zero"),
        extra_blocks=[
            Block("zero", [Const("a", TInt(32, False), 10)], Return("a")),
            Block("one", [Const("b", TInt(32, False), 20)], Return("b")),
        ],
    )
    assert eval_program(program) == Outcome(None, 20)
    assert eval_program(norm.normalize_program(program)) == Outcome(None, 20)


def test_boxed_alloc_keeps_shape_after_normalization():
    src = "type Boxed { case B(a: u64, b: u64, c: u64); }"
    program = make_program(src)
    fn = Function("main", (), TInt(32, False), "entry", {})
    fn.blocks["entry"] = Block(
        "entry",
        [
            Const("x", TInt(64, False), 1),
            Const("y", TInt(64, False), 2),
            Const("z", TInt(64, False), 3),
            Alloc("o", "Boxed", 0, ("x", "y", "z")),
            GetTag("t", "Boxed", "o"),
        ],
        Return("t"),
    )
    program.functions["main"] = fn
    post = norm.normalize_program(program)
    ops = [type(i).__name__ for i in post.functions["main"].blocks["entry"].instrs]
    assert "Alloc" in ops  # rule 2: boxed allocation survives, operands normalized
    assert eval_program(post) == Outcome(None, 0)


def test_progen_deterministic():
    a1, d1 = progen.generate_program("det:5", BUILTIN_TARGETS["x64"])
    a2, d2 = progen.generate_program("det:5", BUILTIN_TARGETS["x64"])
    assert progtext.print_bundle(a1, d1) == progtext.print_bundle(a2, d2)


def test_embedded_tagged_ref_slot_keeps_low_bits():
    """An unboxed ADT whose scalar mixes a reference with packed bits must
    embed opaquely: the inner word's low discrimination bits survive a
    round trip through an outer unboxed ADT."""
    src = (
        "type T0 { case C0(a: u64, b: u64, c: u64); }"
        "type T1 #unboxed { case C0(f0: i5); case C1(f1: bool, f2: T0); }"
        "type T2 #unboxed { case C0(g0: u16, g1: T1); }"
    )
    program = make_program(src)
    fn = Function("main", (), BOOL, "entry", {})
    fn.blocks["entry"] = Block(
        "entry",
        [
            Const("b1", TInt(1, False), 1),
            Const("n", TAdt("T0"), None),
            ReplaceNull("t0", "T0", "n"),
            Alloc("t1", "T1", 1, ("b1", "t0")),
            Const("g", TInt(16, False), 7),
            Alloc("t2", "T2", 0, ("g", "t1")),
            GetField("back", "T2", 0, 1, "t2"),
            GetField("flag", "T1", 1, 0, "back"),
        ],
        Return("flag"),
    )
    program.functions["main"] = fn
    check_program(program)
    assert eval_program(program) == Outcome(None, 1)
    post = norm.normalize_program(program)
    check_program(post)
    assert eval_program(post) == Outcome(None, 1)


def test_replace_null_semantic_op():
    from adtlayout.interp import Heap, default_value, observe

    program = make_program(
        "type Option #unboxed { case None; case Some(val: u32); }"
        "type T { case A(x: int); case B(y: float); }"
    )
    heap = Heap()
    got = default_value(program, heap, "Option")
    assert observe(program, heap, got, TAdt("Option")) == ("adt", "Option", 0, ())
    t_default = default_value(program, heap, "T")
    assert observe(program, heap, t_default, TAdt("T")) == ("adt", "T", 0, (0,))


def test_call_packs_multi_scalar_returns():
    """A function returning an unboxed multi-scalar value: the normalized
    callee packs the scalars into a tuple at the return, and the call site
    unpacks them again."""
    src = "type Pair #unboxed { case P(a: u32, b: u48); case Q; }"
    program = make_program(src)
    helper = Function("mk", (("x", TInt(32, False)),), TAdt("Pair"), "entry", {})
    helper.blocks["entry"] = Block(
        "entry",
        [Const("w", TInt(48, False), 0xBEEF), Alloc("p", "Pair", 0, ("x", "w"))],
        Return("p"),
    )
    main = Function("main", (), TInt(32, False), "entry", {})
    main.blocks["entry"] = Block(
        "entry",
        [Const("seven", TInt(32, False), 7)],
        Return("out"),
    )
    from adtlayout.ir import Call as IrCall

    main.blocks["entry"].instrs.append(IrCall("pair", "mk", ("seven",)))
    main.blocks["entry"].instrs.append(GetField("out", "Pair", 0, 0, "pair"))
    program.functions["mk"] = helper
    program.functions["main"] = main
    check_program(program)
    assert eval_program(program) == Outcome(None, 7)
    post = norm.normalize_program(program)
    check_program(post)
    assert eval_program(post) == Outcome(None, 7)
    # the normalized callee really returns a tuple of scalar words
    from adtlayout.ir import TTuple as _TT

    mk_post = post.functions["mk"]
    assert isinstance(mk_post.ret, _TT) and len(mk_post.ret.elems) >= 2
    ops = [type(i).__name__ for b in post.functions["main"].blocks.values() for i in b.instrs]
    assert "Project" in ops


def test_equivalence_corpus_includes_traps():
    """Trap equality is not vacuous: a visible share of the seed-42 corpus
    ends in a trap, and normalization preserves each one."""
    from collections import Counter

    counts = Counter()
    for i in range(60):
        target = BUILTIN_TARGETS[["x64", "jvm", "x86-32"][i % 3]]
        program, _ = progen.generate_program(f"42:{i}", target)
        out = eval_program(program)
        counts[out.trap] += 1
        if out.trap is not None:
            assert eval_program(norm.normalize_program(program)).trap == out.trap
    assert counts["bad-case"] >= 1


def test_boxed_read_of_zero_scalar_field_still_checks_case():
    """A field that normalizes to zero scalars (unit-like embedded ADT) read
    from a boxed record must keep the null/case traps."""
    src = (
        "type Unit #unboxed { case U; }"
        "type Rec #unboxed { case A; case B(x: Unit, y: Unit, f: bool); case C(p: Rec, q: Rec); }"
    )
    program = make_program(src)
    fn = Function("main", (), TAdt("Unit"), "entry", {})
    fn.blocks["entry"] = Block(
        "entry",
        [
            Const("n", TAdt("Rec"), None),
            ReplaceNull("d", "Rec", "n"),  # default: case A
            GetField("u", "Rec", 1, 1, "d"),  # case B read on a case A value
        ],
        Return("u"),
    )
    program.functions["main"] = fn
    check_program(program)
    assert eval_program(program) == Outcome("bad-case", None)
    post = norm.normalize_program(program)
    check_program(post)
    assert eval_program(post) == Outcome("bad-case", None)


def test_annotated_packing_through_normalization():
    """Programs over an ADT with a hand-written packing still evaluate
    identically after normalization, and the layout honors the pins."""
    src = (
        "packing Float16(sign: 1, exp: 5, frac: 10): 16 = 0b_seeeeeff_ffffffff;"
        "type Half #unboxed { case H(sign: u1, exp: u5, frac: u10)"
        " #packing Float16(sign, exp, frac); case NaNish; }"
    )
    program = make_program(src)
    lay = program.layouts["Half"]
    assert lay.placement_of(0, "sign").offset == 15
    fn = Function("main", (), TInt(10, False), "entry", {})
    fn.blocks["entry"] = Block(
        "entry",
        [
            Const("s", TInt(1, False), 1),
            Const("e", TInt(5, False), 0b10000),
            Const("f", TInt(10, False), 37),
            Alloc("h", "Half", 0, ("s", "e", "f")),
            GetField("back", "Half", 0, 2, "h"),
            GetTag("t", "Half", "h"),
        ],
        Return("back"),
    )
    program.functions["main"] = fn
    check_program(program)
    pre = eval_program(program)
    post = norm.normalize_program(program)
    check_program(post)
    assert pre == eval_program(post) == Outcome(None, 37)


def test_gen_equality_fn_direct():
    """The generated equality function can be evaluated on its own: equal
    encodings answer 1, different variants or fields answer 0."""
    from adtlayout import codec
    from adtlayout.norm import Normalizer

    program = make_program("type Option #unboxed { case None; case Some(val: u32); }")
    n = Normalizer(program)
    fname = n.equality_fn("Option")
    post = n.post
    check_program(post)
    lay = program.layouts["Option"]
    none = codec.encode_variant(lay, 0, {})
    some3 = codec.encode_variant(lay, 1, {"val": 3})
    some4 = codec.encode_variant(lay, 1, {"val": 4})
    from adtlayout.interp import _Machine

    def run(a, b):
        m = _Machine(post)
        return m.call(post.functions[fname], a + b, depth=0)

    assert run(none, none) == 1
    assert run(some3, some3) == 1
    assert run(some3, some4) == 0
    assert run(none, some3) == 0


def test_tuple_values_flow_through_alloc_and_eq():
    """Contents of a multi-field case is the only tuple producer; it can
    feed a tuple-typed field of another ADT and tuple equality, boxed and
    unboxed alike."""
    src = (
        "type Src #unboxed { case E(a: u8, b: u8); }"
        "type UnboxedHolder #unboxed { case C(p: (u8, u8)); case N; }"
        "type BoxedHolder { case C(p: (u8, u8), q: u64, r: u64); }"
    )
    program = make_program(src)
    fn = Function("main", (), BOOL, "entry", {})
    fn.blocks["entry"] = Block(
        "entry",
        [
            Const("x", TInt(8, False), 11),
            Const("y", TInt(8, False), 22),
            Alloc("s", "Src", 0, ("x", "y")),
            GetContents("t", "Src", 0, "s"),
            Alloc("u", "UnboxedHolder", 0, ("t",)),
            Const("q", TInt(64, False), 1),
            Alloc("bx", "BoxedHolder", 0, ("t", "q", "q")),
            GetField("t2", "UnboxedHolder", 0, 0, "u"),
            GetField("t3", "BoxedHolder", 0, 0, "bx"),
            Eq("same", TTuple((TInt(8, False), TInt(8, False))), "t2", "t3"),
        ],
        Return("same"),
    )
    program.functions["main"] = fn
    check_program(program)
    assert eval_program(program) == Outcome(None, 1)
    post = norm.normalize_program(program)
    check_program(post)
    assert eval_program(post) == Outcome(None, 1)


def test_progtext_functions_with_params_and_calls():
    from adtlayout.progtext import parse_function_text, print_function

    text = """fn helper(%a: u8, %b: (u8, u16)) -> u8 {
entry:
  %c = eq<u8>(%a, %a)
  br %c, yes, no
yes:
  %d = call helper(%a, %b)
  jmp done
done:
  ret %d
no:
  trap explicit
}"""
    fn = parse_function_text(text)
    assert fn.name == "helper"
    assert fn.params[1][1] == TTuple((TInt(8, False), TInt(16, False)))
    assert fn.blocks["yes"].instrs == [Call("d", "helper", ("a", "b"))]
    assert fn.blocks["yes"].term == Jump("done")
    printed = print_function(fn)
    assert parse_function_text(printed) == fn


def test_equivalence_over_annotated_adts():
    """Random programs over hand-packed ADTs: normalization must respect the
    pinned layouts without changing semantics."""
    src = (
        "packing Float16(sign: 1, exp: 5, frac: 10): 16 = 0b_seeeeeff_ffffffff;"
        "type Half #unboxed { case H(sign: u1, exp: u5, frac: u10)"
        " #packing Float16(sign, exp, frac); case Missing; }"
        "type Nibbles { case C(a: u2, b: u2) #packing 0b_00aabb11; }"
        "type Loose #unboxed { case C(x: u8, y: u8) #packing #solve(x, y); case D(z: u16); }"
        "type Wild #unboxed { case A(a: u2) #packing 0b_??aa; case B(b: u2) #packing 0b_bb00; }"
    )
    import random as _random

    from adtlayout.pipeline import process_adts
    from adtlayout.syntax import parse_program

    for i in range(120):
        target = BUILTIN_TARGETS[["x64", "jvm", "x86-32"][i % 3]]
        program = Program.of_layouts(process_adts(parse_program(src), target), target)
        gen = progen._Gen(_random.Random(f"annot:{i}"), program)
        program.functions["main"] = gen.run()
        check_program(program)
        pre = eval_program(program)
        post = norm.normalize_program(program)
        check_program(post)
        assert eval_program(post) == pre, (i, target.name)


U32 = TInt(32, False)


def _pre(*texts: str) -> Program:
    """A source-level program over Option whose functions are given as text."""
    program = make_program(OPTION_SRC)
    for text in texts:
        fn = progtext.parse_function_text(text)
        program.functions[fn.name] = fn
    return program


def _post(body: list, term) -> Program:
    program = option_program(body, term)
    program.normalized = True
    return program


def _post_box(body: list, term) -> Program:
    """A normalized program whose main takes a boxed record `b`, holding a
    tuple source field that spreads over normalized fields 0 and 1."""
    program = make_program("type Box { case B(t: (u8, u16)); case C; }")
    program.normalized = True
    fn = Function("main", (("b", TAdt("Box")),), TInt(8, False), "entry", {})
    fn.blocks["entry"] = Block("entry", body, term)
    program.functions["main"] = fn
    return program


CHECKER_CASES = [
    ("undefined-name", lambda: _pre("""fn main() -> u32 {
entry:
  ret %x
}"""), "use of undefined name x"),
    ("no-dominating-definition", lambda: _pre("""fn main(%c: bool) -> u32 {
entry:
  br %c, a, b
a:
  %x = const<u32> 1
  jmp b
b:
  ret %x
}"""), "x used in b without dominating definition"),
    ("use-before-definition", lambda: _pre("""fn main() -> u32 {
entry:
  %y = eq<u32>(%x, %x)
  %x = const<u32> 1
  ret %x
}"""), "x used before its definition in entry"),
    ("assigned-twice", lambda: _pre("""fn main() -> u32 {
entry:
  %x = const<u32> 1
  %x = const<u32> 2
  ret %x
}"""), "name x assigned twice"),
    ("duplicate-parameter", lambda: _pre("""fn main(%a: u32, %a: u32) -> u32 {
entry:
  ret %a
}"""), "duplicate parameter a"),
    ("no-terminator", lambda: _pre("""fn main() -> u32 {
entry:
  %x = const<u32> 1
}"""), "block entry lacks a terminator"),
    ("wrong-return-type", lambda: _pre("""fn main() -> u32 {
entry:
  %x = const<u8> 1
  ret %x
}"""), "main returns u8, expected u32"),
    ("branch-on-non-bool", lambda: _pre("""fn main() -> u32 {
entry:
  %x = const<u32> 1
  br %x, a, a
a:
  ret %x
}"""), "branch condition must be u1"),
    ("switch-on-adt", lambda: _pre("""fn main() -> u32 {
entry:
  %n = const<Option> null
  %r = replacenull<Option>(%n)
  switch %r, [0: a], b
a:
  %x = const<u32> 1
  ret %x
b:
  %y = const<u32> 2
  ret %y
}"""), "switch operand must be an integer"),
    ("normalized-switch-on-tuple", lambda: _post(
        [Const("a", U32, 1), TupleMake("t", ("a",))], Switch("t", ((0, "entry"),), "entry")
    ), "switch operand must be an integer"),
    ("jump-to-unknown-block", lambda: _pre("""fn main() -> u32 {
entry:
  jmp nowhere
}"""), "jump to unknown block nowhere"),
    ("null-outside-replace-null", lambda: _pre("""fn main() -> Option {
entry:
  %n = const<Option> null
  ret %n
}"""), "null ADT constant used outside replace-null"),
    ("non-null-adt-constant", lambda: _pre("""fn main() -> Option {
entry:
  %n = const<Option> 3
  ret %n
}"""), "ADT constants can only be null"),
    ("getfield-wrong-type", lambda: _pre("""fn main() -> u32 {
entry:
  %v = const<u32> 3
  %x = getfield<Option#1.0>(%v)
  ret %x
}"""), "field access on a value of the wrong type"),
    ("alloc-argument-mismatch", lambda: _pre("""fn main() -> Option {
entry:
  %v = const<u8> 3
  %o = alloc<Option#1>(%v)
  ret %o
}"""), "alloc Option#1: argument types mismatch"),
    ("call-argument-mismatch", lambda: _pre("""fn f(%a: u32) -> u32 {
entry:
  ret %a
}""", """fn main() -> u32 {
entry:
  %v = const<u8> 3
  %r = call f(%v)
  ret %r
}"""), "call f: argument types mismatch"),
    ("unknown-callee", lambda: _pre("""fn main() -> u32 {
entry:
  %r = call g()
  ret %r
}"""), "call to unknown function g"),
    ("pre-only-after-normalization", lambda: _post(
        [Const("v", U32, 3), ReplaceNull("t", "Option", "v")], Return("t")
    ), "ReplaceNull is not a normalized instruction"),
    ("post-only-before-normalization", lambda: option_program(
        [Const("a", U32, 1), BinOp("b", "and", "a", "a")], Return("b")
    ), "BinOp only exists after normalization"),
    ("normalized-binop-early-read", lambda: _post(
        [BinOp("y", "and", "x", "x"), Const("x", U32, 1)], Return("x")
    ), "x used before its definition in entry"),
    ("normalized-tuple-early-read", lambda: _post(
        [TupleMake("t", ("x",)), Const("x", U32, 1)], Return("x")
    ), "x used before its definition in entry"),
    ("no-entry-block", lambda: _pre("""fn main() -> u32 {
}"""), "main has no entry block"),
    ("unreachable-block", lambda: _pre("""fn main() -> u32 {
entry:
  %x = const<u32> 1
  ret %x
dead:
  ret %nope
}"""), "block dead is unreachable from the entry"),
    # instructions naming an ADT, case or field the program lacks
    ("const-unknown-adt", lambda: _pre("""fn main() -> u32 {
entry:
  %n = const<Nope> null
  %r = replacenull<Nope>(%n)
  %t = gettag<Nope>(%r)
  ret %t
}"""), "unknown ADT Nope"),
    ("alloc-unknown-case", lambda: _pre("""fn main() -> Option {
entry:
  %o = alloc<Option#7>()
  ret %o
}"""), "Option has no case #7"),
    ("getfield-unknown-field", lambda: _pre("""fn main(%o: Option) -> u32 {
entry:
  %x = getfield<Option#1.3>(%o)
  ret %x
}"""), "Option#1 has no field 3"),
    ("contents-negative-case", lambda: _pre("""fn main(%o: Option) -> u32 {
entry:
  %x = contents<Option#-1>(%o)
  ret %x
}"""), "Option has no case #-1"),
    ("gettag-unknown-adt", lambda: _pre("""fn main(%o: Option) -> u32 {
entry:
  %t = gettag<Nope>(%o)
  ret %t
}"""), "unknown ADT Nope"),
    ("replacenull-unknown-adt", lambda: _pre("""fn main() -> u32 {
entry:
  %n = const<Option> null
  %r = replacenull<Nope>(%n)
  %t = gettag<Option>(%r)
  ret %t
}"""), "unknown ADT Nope"),
    ("eq-unknown-adt", lambda: _pre("""fn main(%o: Option) -> bool {
entry:
  %e = eq<(u8, Nope)>(%o, %o)
  ret %e
}"""), "unknown ADT Nope"),
    ("normalized-getfield-unknown-field", lambda: _post_box(
        [GetField("x", "Box", 0, 5, "b")], Return("x")
    ), "Box#0 has no field 5"),
    ("normalized-gettag-unknown-adt", lambda: _post(
        [Const("o", U32, 1), GetTag("t", "Nope", "o")], Return("t")
    ), "unknown ADT Nope"),
    # normalized getfield takes a normalized field index: field 1 of Box#0
    # is the tuple's u16, so returning it as u8 is the error
    ("normalized-getfield-tuple-element", lambda: _post_box(
        [GetField("x", "Box", 0, 1, "b")], Return("x")
    ), "main returns u16, expected u8"),
    ("normalized-getfield-on-unboxed", lambda: _post(
        [Const("a", U32, 1), Bitcast("o", "a", TAdt("Option")), GetField("x", "Option", 1, 0, "o")],
        Return("x"),
    ), "normalized GetField on unboxed ADT Option"),
    ("project-out-of-range", lambda: _post(
        [Const("a", U32, 1), TupleMake("t", ("a",)), Project("y", "t", 5)], Return("a")
    ), "project of element 5 from a 1-tuple"),
    ("bitcast-unknown-adt", lambda: _post(
        [Const("a", U32, 1), Bitcast("b", "a", TAdt("Nope"))], Return("b")
    ), "unknown ADT Nope"),
]


@pytest.mark.parametrize(
    "build, message", [pytest.param(b, m, id=name) for name, b, m in CHECKER_CASES]
)
def test_checker_rejects_with_its_message(build, message):
    with pytest.raises(IrTypeError, match=re.escape(message)):
        check_program(build())


def test_ir_types_of_different_classes_never_compare_equal():
    """IR types are NamedTuples, which compare as tuples: two classes whose
    fields took the same values would be equal and hash alike, and the
    checker, which compares types with == and !=, could not tell them
    apart. Every class is built from the same values, one per field type."""
    classes = typing.get_args(ir.IrType)
    for width, flag, text in [(1, False, "u1"), (8, True, "B64"), (64, False, "R64")]:
        value = {int: width, bool: flag, str: text, tuple: (TInt(width, flag),)}
        types = [
            cls(*(value[getattr(h, "__origin__", h)] for h in typing.get_type_hints(cls).values()))
            for cls in classes
        ]
        for a, b in itertools.combinations(types, 2):
            assert a != b and not a == b, (a, b)
        assert len(set(types)) == len(classes)


@pytest.mark.parametrize("target", ["x64", "jvm", "x86-32"])
def test_nested_fields_agree_boxed_and_normalized(target):
    """Tuple fields and ADTs embedded in unboxed and boxed ones, read whole
    (observation), by getfield, by eq and as replace-null defaults: every
    entry of the nested bundle gives the same outcome boxed and normalized."""
    from corpus import NESTED_BUNDLE, NESTED_ENTRIES

    program, _ = progtext.parse_bundle(f"target {target}\n{NESTED_BUNDLE}")
    check_program(program)
    post = norm.normalize_program(program)
    check_program(post)
    for entry in NESTED_ENTRIES:
        pre = eval_program(program, entry)
        assert pre.trap is None, entry
        assert eval_program(post, entry) == pre, entry
    assert eval_program(program, "eq") == Outcome(None, 0)  # every eq as expected
    assert eval_program(program, "defaults").value[2] == 0  # Outer's first case


@pytest.mark.parametrize("inputs, message", [
    ([], "main takes 1 argument, 0 given"),
    ([1, 2], "main takes 1 argument, 2 given"),
])
def test_eval_rejects_a_wrong_argument_count(inputs, message):
    program = _pre("""fn main(%a: u32) -> u32 {
entry:
  ret %a
}""")
    check_program(program)
    with pytest.raises(IrTypeError, match=re.escape(message)):
        eval_program(program, inputs=inputs)
    assert eval_program(program, inputs=[7]) == Outcome(None, 7)


@pytest.mark.parametrize("target", ["x64", "jvm", "x86-32"])
def test_spread_takes_every_normalized_field(target):
    """Walked with `Program.spread`, the source fields of every corpus and
    nested-bundle variant take exactly its normalized fields, and each part
    of an unboxed ADT takes that ADT's embedded scalars in order."""
    from corpus import CORPUS_SRC, NESTED_BUNDLE

    decls = NESTED_BUNDLE.split("fn ", 1)[0]
    for src in (CORPUS_SRC, decls):
        program = make_program(src, BUILTIN_TARGETS[target])

        def part(t, key, taken):
            if key is not None and program.is_unboxed(key):
                assert [(f.adt_ref, f.scalar_index) for f in taken] == [
                    (key, i) for i in range(len(taken))
                ]
            else:
                assert len(taken) == 1 and not taken[0].embedded

        for mono in program.adts.values():
            for variant in mono.variants:
                fields = iter(variant.fields)
                for _, t in variant.source_fields:
                    program.spread(t, fields, part)
                assert next(fields, None) is None, (mono.name, variant.name)


OPAQUE_FIELD = """
type T { case A(s: string, x: u8); case B; }
fn main() -> T {
entry:
  %n = const<T> null
  %r = replacenull<T>(%n)
  ret %r
}
"""

# Holder takes two scalars, so the tuple's second element spreads over two
# normalized values and the first over one
TUPLE_OF_SPREAD = """
type Box { case K(v: u8, w: u32); case E(q: u64); case F; }
type Holder #unboxed { case H(b: Box, t: u8); case Z; }
type T { case T(a: u8, h: Holder); }
fn main() -> (u8, Holder) {
entry:
  %a = const<u8> 3
  %v = const<u8> 4
  %w = const<u32> 5
  %k = alloc<Box#0>(%v, %w)
  %t = const<u8> 6
  %h = alloc<Holder#0>(%k, %t)
  %r = alloc<T#0>(%a, %h)
  %c = contents<T#0>(%r)
  ret %c
}
"""


@pytest.mark.parametrize("target", ["x64", "jvm", "x86-32"])
@pytest.mark.parametrize("bundle, want", [
    pytest.param(OPAQUE_FIELD, ("adt", "T", 0, (("null",), 0)), id="opaque-field"),
    pytest.param(
        TUPLE_OF_SPREAD, (3, ("adt", "Holder", 0, (("adt", "Box", 0, (4, 5)), 6))),
        id="tuple-of-spread",
    ),
])
def test_observation_agrees_boxed_and_normalized(target, bundle, want):
    """Observation walks types: a boxed record's opaque field is observed as
    null, and a normalized tuple gives each element the values its type
    expands to."""
    program, _ = progtext.parse_bundle(f"target {target}\n{bundle}")
    check_program(program)
    post = norm.normalize_program(program)
    check_program(post)
    assert eval_program(program) == Outcome(None, want)
    assert eval_program(post) == Outcome(None, want)


JUMP_BUNDLE = """
type T { case A(x: u8, y: u16); case B; }
fn main() -> u8 {
b0:
  %x = const<u8> 7
  %y = const<u16> 9
  %r = alloc<T#0>(%x, %y)
  jmp b1
b1:
  %v = getfield<T#0.0>(%r)
  ret %v
}
"""


@pytest.mark.parametrize("target", ["x64", "jvm", "x86-32"])
def test_jump_agrees_boxed_and_normalized(target):
    program, _ = progtext.parse_bundle(f"target {target}\n{JUMP_BUNDLE}")
    check_program(program)
    post = norm.normalize_program(program)
    check_program(post)
    assert eval_program(program) == Outcome(None, 7)
    assert eval_program(post) == Outcome(None, 7)


def chain_bundle(n: int) -> str:
    """A bundle whose `main` is a chain of n blocks: each compares a
    parameter with itself and branches to the next block on both arms."""
    lines = ["target x64", "fn main(%x0: u8) -> u8 {"]
    for i in range(n):
        lines += [f"b{i}:", f"  %c{i} = eq<u8>(%x0, %x0)", f"  br %c{i}, b{i + 1}, b{i + 1}"]
    return "\n".join(lines + [f"b{n}:", "  ret %x0", "}"])


def test_chain_checks_and_normalizes_in_linear_time():
    """Four times the blocks take about four times as long to check,
    normalize and check again; a checker quadratic in the blocks takes
    about twenty times as long. A ratio of two times on one machine does
    not depend on that machine's speed; each size keeps its least of five
    runs, taken in turn so that a drift in speed reaches both."""
    programs = {n: progtext.parse_bundle(chain_bundle(n))[0] for n in (1000, 4000)}
    best = dict.fromkeys(programs, math.inf)
    for _ in range(5):
        for n, program in programs.items():
            start = time.perf_counter()
            check_program(program)
            check_program(norm.normalize_program(program))
            best[n] = min(best[n], time.perf_counter() - start)
    assert best[4000] < 8 * best[1000]


DIAMOND = """target x64
fn main(%c: bool) -> u8 {
entry:
  %x = const<u8> 1
  br %c, left, right
left:
  jmp merge
right:
  jmp merge
merge:
  %m = eq<u8>(%x, %x)
  br %m, loop, done
loop:
  %l = eq<u8>(%x, %x)
  br %l, merge, done
done:
  ret %x
}
"""


def test_diamond_with_a_back_edge_checks():
    """`merge` has three predecessors, one of them over the back edge from
    `loop`; the entry dominates every block, so its `%x` may be read at the
    merge and in the loop."""
    program, _ = progtext.parse_bundle(DIAMOND)
    check_program(program)
    check_program(norm.normalize_program(program))


@pytest.mark.parametrize("define, name", [
    pytest.param("left:\n  %a = const<u8> 2\n", "a", id="defined-in-one-arm"),
    pytest.param("left:\n", "l", id="defined-in-the-loop-body"),
])
def test_diamond_refuses_a_definition_that_does_not_dominate_the_merge(define, name):
    text = DIAMOND.replace("left:\n", define).replace("%m = eq<u8>(%x", f"%m = eq<u8>(%{name}")
    program, _ = progtext.parse_bundle(text)
    with pytest.raises(IrTypeError, match=f"{name} used in merge without dominating definition"):
        check_program(program)


def _random_cfg(rng: random.Random) -> tuple[Function, dict[str, list[str]]]:
    """A function of 1-12 empty blocks, each ending in a jmp, br, switch or
    ret to random blocks (so back edges and self-loops occur), and each
    block's successors in order."""
    labels = [f"b{i}" for i in range(rng.randint(1, 12))]
    fn = Function("main", (("c", BOOL), ("k", U32)), U32, "b0", {})
    succs = {}
    for label in labels:
        to = [rng.choice(labels) for _ in range(3)]
        kind = rng.randrange(4)
        fn.blocks[label] = Block(label, [], [
            Jump(to[0]), Branch("c", to[0], to[1]), Switch("k", ((0, to[0]), (1, to[1])), to[2]),
            Return("k"),
        ][kind])
        succs[label] = to[:(1, 2, 3, 0)[kind]]
    return fn, succs


def test_dominance_agrees_with_the_set_fixed_point():
    """On 3000 random CFGs the block order is breadth-first, and each
    block's dominator-tree interval holds exactly the blocks it dominates."""
    from oracles import reference_dominators

    rng = random.Random(5)
    for _ in range(3000):
        fn, succs = _random_cfg(rng)
        want = reference_dominators("b0", succs)
        order = fn.block_order()
        assert order == list(want)
        spans = dominator_spans(fn, order)
        for a, (first, end) in spans.items():
            for b, (at, _) in spans.items():
                assert (first <= at < end) == (a in want[b]), (succs, a, b)


@pytest.mark.parametrize("ref", ["getfield<T#0.x>", "alloc<T#z>", "alloc<T#٣>"])
def test_case_ref_needs_ascii_digits(ref):
    """A case or field index that is not ASCII digits is a ProgTextError,
    as an Arabic-Indic three is, which `int` would read as 3."""
    call = "(%r)" if ref.startswith("getfield") else "()"
    bundle = (
        "target x64\ntype T { case A(x: u8); case B; case C; case D; }\n"
        f"fn main() -> u8 {{\nb0:\n  %r = alloc<T#1>()\n  %v = {ref}{call}\n  ret %v\n}}\n"
    )
    with pytest.raises(progtext.ProgTextError, match="digits"):
        progtext.parse_bundle(bundle)


@pytest.mark.parametrize(
    "header, body",
    [
        # a constant or a switch key that is not a number
        ("fn main() -> u8 {", "  %x = const<u8> z\n  ret %x"),
        ("fn main() -> u8 {", "  %x = const<u8> 1\n  switch %x, [z: b1], b1\nb1:\n  ret %x"),
        # an Arabic-Indic three, which `int` and `\d` would read as 3
        ("fn main() -> u8 {", "  %x = const<u٣> 3\n  ret %x"),
        ("fn main() -> u8 {", "  %x = const<u8> ٣\n  ret %x"),
        ("fn main(%a: u٣) -> u8 {", "  ret %a"),
        # widths outside 1..64
        ("fn main() -> u8 {", "  %x = const<u0> 0\n  ret %x"),
        ("fn main(%a: u100) -> u8 {", "  ret %a"),
        ("fn main() -> f16 {", "  %x = const<f16> 0\n  ret %x"),
    ],
    ids=["const-name", "switch-key-name", "width-arabic-indic", "const-arabic-indic",
         "param-arabic-indic", "width-0", "width-100", "float-16"],
)
def test_numbers_and_widths_need_ascii_digits(header, body):
    """Every number and width in program text is ASCII digits, and a width
    is 1..64, as the declaration language has it; anything else is a
    ProgTextError rather than a ValueError or a silent reading."""
    bundle = f"target x64\ntype T {{ case A(x: u8); }}\n{header}\nb0:\n{body}\n}}\n"
    with pytest.raises(progtext.ProgTextError, match="ASCII digits"):
        progtext.parse_bundle(bundle)


@pytest.mark.parametrize(
    "body, match",
    [
        ("  %x = const<u8> 1\n  ret %x junk", "expected %name"),
        ("  jmp b1 b2\nb1:\n  ret %a", "expected a label"),
        ("  %v = eq<u8>(%a,%b) trailing\n  ret %a", r"expected \(\.\.\.\)"),
        ("  %x = const<(u8> 0\n  ret %a", r"expected \(\.\.\.\)"),
        ("  %r = alloc<T#0>(%a\n  ret %a", r"expected \(\.\.\.\)"),
        ("  %r = alloc<T#0>(%a)\n  %v = gettag<T>x%r]\n  ret %a", r"expected \(\.\.\.\)"),
    ],
    ids=["ret-junk", "jmp-two-labels", "eq-trailing", "tuple-unclosed", "alloc-unclosed",
         "gettag-no-parens"],
)
def test_malformed_lines_are_refused(body, match):
    """A line with text after its last part, a name or label holding a
    space, or a bracketed part whose brackets are missing is a ProgTextError
    rather than a misreading."""
    bundle = (
        "target x64\ntype T { case A(x: u8); }\n"
        f"fn main(%a: u8, %b: u8) -> u8 {{\nb0:\n{body}\n}}\n"
    )
    with pytest.raises(progtext.ProgTextError, match=match):
        progtext.parse_bundle(bundle)


def test_declaration_errors_give_bundle_positions():
    """A diagnostic in the bundle's type declarations counts the target
    line, comments and blank lines before it."""
    with pytest.raises(progtext.ProgTextError, match="E001 at 4:24"):
        progtext.parse_bundle("target x64\n# note\n\ntype T { case A(x: u8) }")


def test_packing_declaration_errors_refuse_the_bundle():
    """A packing declaration that does not verify refuses the bundle with
    the diagnostic `check` gives, though no type applies it."""
    bundle = "target x64\npacking P(a: 2): 1 = 0b_aa;\ntype T { case A(x: u8); }\n"
    with pytest.raises(progtext.ProgTextError, match="E010 at 2:1: body of 'P' has size 2"):
        progtext.parse_bundle(bundle)


# a function whose parameter and result are one three-scalar unboxed value
THREE_SCALAR_PARAM = """
type P #unboxed { case A(x: u64, y: u64, z: u64); }
fn id(%p: P) -> P {
b0:
  ret %p
}
fn main() -> P {
b0:
  %x = const<u64> 1
  %y = const<u64> 2
  %z = const<u64> 3
  %p = alloc<P#0>(%x, %y, %z)
  %q = call id(%p)
  ret %q
}
"""


@pytest.mark.parametrize("target", ["x64", "jvm", "x86-32"])
def test_multi_scalar_parameter_agrees_boxed_and_normalized(target):
    """A parameter of an unboxed type becomes one parameter per scalar, and
    the value passed through it is the one passed in."""
    program, _ = progtext.parse_bundle(f"target {target}\n{THREE_SCALAR_PARAM}")
    check_program(program)
    assert len(program.layouts["P"].slots) == 3
    post = norm.normalize_program(program)
    check_program(post)
    assert [n for n, _ in post.functions["id"].params] == ["p.0", "p.1", "p.2"]
    want = Outcome(None, ("adt", "P", 0, (1, 2, 3)))
    assert eval_program(program) == want
    assert eval_program(post) == want
