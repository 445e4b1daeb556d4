"""The error contract over seeded random edits: every edited source ends in
`check` and `layout` with exit status 0 or 1 and no exception, and every
edited program bundle either parses or raises a ProgTextError.

The edits insert tokens of the declaration language (non-ASCII letters and
digits, and a `.0` that makes a name dotted, among them), delete spans and
duplicate spans, all drawn from `random.Random(1)`."""

from __future__ import annotations

import io
import random
import time

from adtlayout import cli, progen, progtext
from adtlayout.targets import BUILTIN_TARGETS

from corpus import CORPUS_SRC, NESTED_BUNDLE, TARGET_NAMES

# the stress workloads' shapes: many nullary cases beside a payload too wide
# for an in-place tag, and cases of many mixed-width fields
STRESS_SRC = (
    "type T0 #unboxed { " + " ".join(f"case N{i};" for i in range(18)) + " case P(p: u62); }\n"
    "type W0 #unboxed { case V0(f0_0: u31, f0_1: u5, f0_2: u8, f0_3: u31, f0_4: u24); "
    "case V1(f1_0: u12, f1_1: bool, f1_2: (u31, f32), f1_3: u32, f1_4: i3); }\n"
)

SOURCE_TOKENS = [
    "type", "case", "packing", "#unboxed", "#captured", "#packing", "#concat", "#solve", "#",
    "(", ")", "{", "}", "<", ">", ",", ":", ";", "=", "0b", "0b_01?a", "007", "64", "u0", "u65",
    "u8", "i64", "f64", "bool", "T", "C05", "p.0", ".0", "_x", "//", "\n", "\r\n", "\t", "\xa0",
    "é", "²", "u٣", "٣", "Ⅷ", "@",
]
BUNDLE_TOKENS = SOURCE_TOKENS + [
    "%", "%x", "=", "const<u8>", "alloc<", "getfield<", ">(", "#1", ".0", "[", "]", "b0:", "null",
    "ret", "br", "switch", "jmp", "trap", "fn", "->", "target", "x64", "u٣", "٣",
]

SOURCE_EDITS = 500
BUNDLE_EDITS = 1000
# far above what one run takes; a run past it is a blow-up, not noise
MAX_RUN_S = 2.0


def _edit(text: str, rng: random.Random, tokens: list[str]) -> str:
    """One to three edits: an inserted token, a deleted span or a
    duplicated span."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        op = rng.random()
        if op < 0.5:
            text = text[:i] + rng.choice(tokens) + text[i:]
        elif op < 0.75:
            text = text[:i] + text[i + rng.randint(1, 12) :]
        else:
            j = min(len(text), i + rng.randint(1, 40))
            text = text[:i] + text[i:j] + text[i:]
    return text


def _timed(run):
    start = time.perf_counter()
    result = run()
    assert time.perf_counter() - start < MAX_RUN_S
    return result


def test_edited_sources_exit_0_or_1(tmp_path):
    rng = random.Random(1)
    targets = sorted(BUILTIN_TARGETS)
    path = tmp_path / "edited.pk"
    statuses = set()
    dotted = 0  # edits refused for a '.' in a declared field name
    for _ in range(SOURCE_EDITS):
        text = _edit(rng.choice((CORPUS_SRC, STRESS_SRC)), rng, SOURCE_TOKENS)
        path.write_text(text, encoding="utf-8")
        files = [str(path)]
        out = io.StringIO()
        status = _timed(lambda: cli.cmd_check(files, out=out))
        assert status in (0, 1), text
        dotted += "holds a '.'" in out.getvalue()
        target = rng.choice(targets)
        status = _timed(
            lambda: cli.cmd_layout(
                files, target=target, budget=2000, out=io.StringIO(), err=io.StringIO()
            )
        )
        assert status in (0, 1), text
        statuses.add(status)
    # the edits are mild enough that some texts still lay out, and some
    # insert a dotted field name
    assert statuses == {0, 1} and dotted


def test_edited_bundles_parse_or_raise_progtext_error():
    rng = random.Random(1)
    bundles = [f"target x64\n{NESTED_BUNDLE}"]
    for name in TARGET_NAMES:
        program, decls = progen.generate_program(f"contract:{name}", BUILTIN_TARGETS[name])
        bundles.append(progtext.print_bundle(program, decls))
    outcomes = set()
    for _ in range(BUNDLE_EDITS):
        text = _edit(rng.choice(bundles), rng, BUNDLE_TOKENS)
        try:
            _timed(lambda: progtext.parse_bundle(text))
            outcomes.add("parsed")
        except progtext.ProgTextError:
            outcomes.add("refused")
    assert outcomes == {"parsed", "refused"}
