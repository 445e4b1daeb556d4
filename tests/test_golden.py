"""Golden snapshots, compared byte for byte: `layout --json` output, and
the normalized functions of the nested bundle on each target.

The layout snapshots pin the layouts, tag schemes, scores and step counts
that the solver reports today, and the normalized-code snapshots pin every
instruction, name and block label that normalization emits, so a refactor
can show that it changes none of them. A change to a golden file is a
change in behaviour: name it and give the reason in CHANGES.md. To write the files of the named cases after such a
change, or for a new case, run `PYTHONPATH=src python tests/test_golden.py
STEM...`; it writes only the stems it is given.
"""

from __future__ import annotations

import io
import json
import pathlib
import random
import sys
import tempfile

import pytest

from adtlayout.cli import _layout_report, cmd_layout
from adtlayout.norm import normalize_program
from adtlayout.pipeline import process_adts
from adtlayout.progen import gen_decls
from adtlayout.progtext import parse_bundle
from adtlayout.syntax import parse_program
from adtlayout.targets import BUILTIN_TARGETS

from corpus import CORPUS_SRC, NESTED_BUNDLE, TARGET_NAMES

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def _nullary_plus_payload(n: int, width: int) -> str:
    cases = " ".join(f"case N{i};" for i in range(n))
    return f"type S #unboxed {{ {cases} case P(p: u{width}); }}\n"


# 2 x 5 mixed-width fields; the second program's W1 in the stress-wide inputs
WIDE_W1 = (
    "type W1 #unboxed { case V0(f0_0: u8, f0_1: u1, f0_2: u12, f0_3: u8, f0_4: u3); "
    "case V1(f1_0: u5, f1_1: u12, f1_2: u3, f1_3: u3, f1_4: u5); }\n"
)

# 1 x 10 mixed-width fields; single-variant shapes from the stress-wide inputs
WIDE_W1_X64 = (
    "type W1 #unboxed { case V0(f0_0: u32, f0_1: u12, f0_2: u2, f0_3: u3, f0_4: u16, "
    "f0_5: u2, f0_6: u2, f0_7: u32, f0_8: u12, f0_9: u16); }\n"
)
WIDE_W0_X86_32 = (
    "type W0 #unboxed { case V0(f0_0: u20, f0_1: u8, f0_2: u16, f0_3: u7, f0_4: u24, "
    "f0_5: u3, f0_6: u12, f0_7: u16, f0_8: u7, f0_9: u3); }\n"
)

# #packing shapes the corpus lacks: #concat of two declaration applications,
# a body narrower than its declared width (zero padding), arguments spliced
# into parameter runs (with '?' bits, and a literal narrower than its
# parameter), a type-level #packing list and a #solve with a bit-literal item
ANNOTATED = """\
packing Pair(hi: 4, lo: 4): 8 = 0b_hhhh_llll;
packing Nib(a: 4): 8 = 0b_aaaa;
packing Tagged(t: 2, v: 6): 8 = 0b_ttvv_vvvv;
type Cat #unboxed { case C(p: u4, q: u4, r: u4, s: u4) #packing #concat(Pair(p, q), Pair(r, s)); }
type Pad #unboxed { case A(x: u4) #packing Nib(x); case B(y: u4) #packing #concat(0b_1000, y); }
type Spl #unboxed {
    case A(v: u6) #packing Tagged(0b_??, v);
    case B(w: u6) #packing Tagged(0b_10, w);
    case C(c: u6) #packing Tagged(0b_1, c);
}
type Lst #unboxed #packing(0b_00aa, 0b_bb11) { case A(a: u2); case B(b: u2); }
type Lit #unboxed { case A(x: u8, y: u8) #packing #solve(x, 0b_1010, y); case B(z: u16); }
"""

# reference fields next to annotations: a reference pinned by #packing, a
# #solve unit with constant bits in a reference-tagged scalar, and a #solve
# unit beside a free reference. Targets without tagged references reject Pr.
ANNOTATED_REFS = """\
type Box { case B(a: u64, b: u64, c: u64); }
type Pr #unboxed { case A(p: Box) #packing p; case B(x: u8, y: u8) #packing #solve(x, 0b_1010, y); case C; }
type Mx #unboxed { case A(p: Box, t: u4); case B(x: u8, y: u16) #packing #solve(0b_11, x); }
"""

# progen.gen_decls(random.Random(1984)) and (2975), printed: on x64 and on
# x86-32 the top-down tree pass gets stuck on T1, and its decision tree comes
# from the complete free-bit search (2 charged steps on x64)
PROGEN_1984 = """\
type T0 {
  case C0(f00: i32, f01: u8);
  case C1(f10: u2, f11: f64);
}
type T1 #unboxed {
  case C0(f00: T0);
  case C1(f10: bool, f11: T0);
  case C2(f20: f64, f21: T0);
}
"""
PROGEN_2975 = """\
type T0 {
  case C0(f00: u64);
  case C1;
  case C2(f20: u8, f21: u8);
}
type T1 #unboxed {
  case C0(f00: u32, f01: T0, f02: f64);
  case C1(f10: i31, f11: f64, f12: f32);
  case C2;
}
type T2 #unboxed {
  case C0;
}
"""


def layout_json(source: str, target: str) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "input.pk"
        path.write_text(source, encoding="utf-8")
        out = io.StringIO()
        assert cmd_layout([str(path)], target=target, as_json=True, out=out) == 0
    return out.getvalue()


def normalized_code(bundle: str, target: str) -> str:
    """The normalized functions of a bundle: functions and blocks in sorted
    order, each instruction and terminator as its `repr`."""
    program, _ = parse_bundle(f"target {target}\n{bundle}")
    post = normalize_program(program)
    lines = []
    for name in sorted(post.functions):
        fn = post.functions[name]
        head = f"fn {name} {fn.params!r} -> {fn.ret!r} ({fn.semantic_ret!r})"
        lines.append(f"{head} entry {fn.entry}")
        for label in sorted(fn.blocks):
            blk = fn.blocks[label]
            lines.append(f"  {label}:")
            lines.extend(f"    {ins!r}" for ins in blk.instrs)
            lines.append(f"    {blk.term!r}")
    return "\n".join(lines) + "\n"


def many_variant_shapes(seed: int, count: int) -> list[str]:
    """The first `count` of the 8-case shapes drawn from `Random(seed)`:
    case v of `type M #unboxed` has `randint(0, 16)` fields of type
    `u{randint(1, 40)}`. At the default budget most of `Random(816)`'s stop
    at the step budget, so they pin its accounting."""
    rng = random.Random(seed)
    shapes = []
    for _ in range(count):
        cases = []
        for v in range(8):
            fields = ", ".join(f"f{v}_{k}: u{rng.randint(1, 40)}" for k in range(rng.randint(0, 16)))
            cases.append(f"case V{v}({fields});" if fields else f"case V{v};")
        shapes.append("type M #unboxed { " + " ".join(cases) + " }\n")
    return shapes


def solve_sweep() -> str:
    """One line per input and target: the `layout --json` report of
    `progen.gen_decls(random.Random(s))` for s in 0..299, and of the first 4
    `Random(816)` many-variant shapes, with each layout's `finished` flag,
    on x64, jvm and x86-32 at the default budget."""
    inputs = [(f"progen:{s}", gen_decls(random.Random(s))) for s in range(300)]
    inputs += [(f"shape816:{i}", parse_program(src))
               for i, src in enumerate(many_variant_shapes(816, 4))]
    lines = []
    for name, decls in inputs:
        for target in TARGET_NAMES:
            result = process_adts(decls, BUILTIN_TARGETS[target])
            report = _layout_report(result)
            for entry in report["adts"]:
                if not entry["boxed"]:
                    entry["finished"] = result.resolved[entry["adt"]].layout.finished
            lines.append(json.dumps({"input": name, "target": target, "report": report},
                                    sort_keys=True))
    return "\n".join(lines) + "\n"


# golden file stem -> (source, target) of a layout report, STEM.json
CASES = {
    "corpus-x64": (CORPUS_SRC, "x64"),
    "corpus-jvm": (CORPUS_SRC, "jvm"),
    "corpus-x86-32": (CORPUS_SRC, "x86-32"),
    "nullary10-u62-x64": (_nullary_plus_payload(10, 62), "x64"),  # decision tree
    "nullary12-u29-x86-32": (_nullary_plus_payload(12, 29), "x86-32"),  # decision tree
    "wide-w1-x86-32": (WIDE_W1, "x86-32"),  # explicit tag
    "wide-w1-x64": (WIDE_W1_X64, "x64"),  # single variant
    "wide-w0-x86-32": (WIDE_W0_X86_32, "x86-32"),  # single variant
    "annotated-x64": (ANNOTATED, "x64"),
    "annotated-x86-32": (ANNOTATED, "x86-32"),
    "annotated-refs-x64": (ANNOTATED_REFS, "x64"),
    "progen1984-x64": (PROGEN_1984, "x64"),  # tree from the complete search
    "progen2975-x86-32": (PROGEN_2975, "x86-32"),  # tree from the complete search
}

# golden file stem -> target of the nested bundle's normalized code, STEM.txt
NORMALIZED_CASES = {f"nested-norm-{t}": t for t in TARGET_NAMES}

# one JSON report per line over random and many-variant inputs, STEM.json
SWEEP = "solve-sweep"


def golden_path(name: str) -> pathlib.Path:
    return GOLDEN_DIR / (f"{name}.json" if name in CASES or name == SWEEP else f"{name}.txt")


def render(name: str) -> str:
    if name in CASES:
        return layout_json(*CASES[name])
    if name == SWEEP:
        return solve_sweep()
    return normalized_code(NESTED_BUNDLE, NORMALIZED_CASES[name])


@pytest.mark.parametrize("name", sorted(CASES))
def test_layout_matches_golden(name):
    assert render(name) == golden_path(name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(NORMALIZED_CASES))
def test_normalized_code_matches_golden(name):
    assert render(name) == golden_path(name).read_text(encoding="utf-8")


def test_solve_sweep_matches_golden():
    assert render(SWEEP) == golden_path(SWEEP).read_text(encoding="utf-8")


def main(stems: list[str]) -> int:
    known = sorted({**CASES, **NORMALIZED_CASES, SWEEP: None})
    if not stems:
        print(f"usage: {sys.argv[0]} STEM... (one of: {', '.join(known)})", file=sys.stderr)
        return 2
    unknown = [s for s in stems if s not in known]
    if unknown:
        print(f"unknown golden case: {', '.join(unknown)}", file=sys.stderr)
        return 2
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in stems:
        golden_path(name).write_text(render(name), encoding="utf-8")
        print(f"wrote {golden_path(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
