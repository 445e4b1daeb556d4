"""Make every stored benchmark input anew from its named seed.

    python3 perfbench/make_inputs.py    # rewrite perfbench/inputs/*.json

The inputs are stored, not made at run time, so that a later change to
`progen` or to this generator cannot change what a workload measures
without a visible diff. The benchmark's tests check that the stored files
equal what this makes.
"""

from __future__ import annotations

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
INPUTS = os.path.join(HERE, "inputs")

# seed names; changing one changes a workload, so it is a benchmark change
EQUIV_SEED = "perfbench:equiv:v1"
STRESS_TAGS_SEED = "perfbench:stress-tags:v1"
STRESS_WIDE_SEED = "perfbench:stress-wide:v1"

EQUIV_PROGRAMS = 48
LAYOUT_TARGETS = ("x64", "jvm", "x86-32")
_WIDE_WIDTHS = (1, 2, 3, 4, 5, 7, 8, 12, 16, 20, 24, 31, 32)


def _corpus() -> dict:
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    try:
        from corpus import CORPUS_SRC
    finally:
        sys.path.pop(0)
    return {
        "workload": "corpus",
        "seed": None,
        "programs": [{"target": t, "source": CORPUS_SRC} for t in LAYOUT_TARGETS],
    }


def _equiv() -> dict:
    from adtlayout import progen, progtext
    from adtlayout.targets import BUILTIN_TARGETS

    bundles = []
    for i in range(EQUIV_PROGRAMS):
        target = BUILTIN_TARGETS[LAYOUT_TARGETS[i % len(LAYOUT_TARGETS)]]
        program, decls = progen.generate_program(f"{EQUIV_SEED}:{i}", target)
        bundles.append(progtext.print_bundle(program, decls))
    return {"workload": "equiv", "seed": EQUIV_SEED, "bundles": bundles}


def _tags_shape(rng: random.Random, name: str, word: int) -> str:
    """Many nullary cases plus one payload wide enough that no in-place tag
    fits, so the solver falls back to a decision tree."""
    nullary = rng.randint(16, 19)
    width = word - rng.randint(2, 4)
    cases = " ".join(f"case N{i};" for i in range(nullary))
    return f"type {name} #unboxed {{ {cases} case P(p: u{width}); }}"


def _stress_tags() -> dict:
    rng = random.Random(STRESS_TAGS_SEED)
    programs = []
    for target, word in (("x64", 64), ("x86-32", 32)):
        programs.append({"target": target, "source": _tags_shape(rng, "T0", word) + "\n"})
    return {"workload": "stress-tags", "seed": STRESS_TAGS_SEED, "programs": programs}


def _wide_shape(rng: random.Random, name: str, variants: int, fields: int) -> str:
    cases = []
    for v in range(variants):
        fs = ", ".join(f"f{v}_{k}: u{rng.choice(_WIDE_WIDTHS)}" for k in range(fields))
        cases.append(f"case V{v}({fs});")
    return f"type {name} #unboxed {{ {' '.join(cases)} }}"


def _stress_wide() -> dict:
    rng = random.Random(STRESS_WIDE_SEED)
    programs = []
    for target, shapes in (
        ("x64", ((2, 5), (1, 10))),
        ("x86-32", ((1, 10), (2, 5))),
    ):
        src = [_wide_shape(rng, f"W{k}", nv, nf) for k, (nv, nf) in enumerate(shapes)]
        programs.append({"target": target, "source": "\n".join(src) + "\n"})
    return {"workload": "stress-wide", "seed": STRESS_WIDE_SEED, "programs": programs}


MAKERS = {
    "corpus": _corpus,
    "equiv": _equiv,
    "stress-tags": _stress_tags,
    "stress-wide": _stress_wide,
}


def input_path(workload: str) -> str:
    return os.path.join(INPUTS, f"{workload}.json")


def render(workload: str) -> str:
    return json.dumps(MAKERS[workload](), indent=1, sort_keys=True) + "\n"


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(INPUTS, exist_ok=True)
    for workload in MAKERS:
        with open(input_path(workload), "w", encoding="utf-8") as f:
            f.write(render(workload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
