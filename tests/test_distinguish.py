import itertools
import json
import pathlib
import random
from typing import Optional

import pytest

from adtlayout import distinguish
from adtlayout.distinguish import (
    BitPattern,
    Leaf,
    Node,
    Patterns,
    classify,
    derive_decision_tree,
    derive_tree,
    parse_pattern,
    print_pattern,
    shared_free_run,
    tag_width_for,
    tree_depth,
)

from oracles import (
    brute_force_distinguishable,
    enumerate_pattern_sets,
    oracle_min_tree_depth,
    reference_derive_tree,
)


def test_constant_bit_separates():
    assert derive_decision_tree([["0xxx"], ["1xxx"]]) is not None


def test_fully_assigned_is_indistinguishable():
    assert derive_decision_tree([["xxxx"], ["xxxx"]]) is None


def test_two_free_bits_encode_three_cases():
    assert derive_decision_tree([["??".replace("?", "u")], ["uu"], ["uu"]]) is not None


def test_single_free_bit_cannot_encode_three():
    # u vs 0 vs 1 on one bit: the free bit cannot differ from both constants
    assert derive_decision_tree([["u"], ["0"], ["1"]]) is None


def test_derive_simple_tree():
    got = derive_decision_tree([["0u"], ["10"], ["11"]])
    assert got is not None
    tree, resolved = got
    assert isinstance(tree, Node)
    # A's free bit was chosen and recorded; every variant's resolved word
    # classifies back to it
    for v, row in enumerate(resolved):
        word = int(row[0].replace("x", "0"), 2)
        assert classify(tree, [word]) == v
    assert classify(tree, [0b10]) == 1
    assert classify(tree, [0b11]) == 2


def test_two_variants_one_shared_free_bit():
    got = derive_decision_tree([["u"], ["u"]])
    assert got is not None
    tree, resolved = got
    assert isinstance(tree, Node)
    assert {classify(tree, [0]), classify(tree, [1])} == {0, 1}
    # chosen bits became constants the encoder must emit
    assert {resolved[0][0], resolved[1][0]} == {"0", "1"}


def test_derive_fails_when_indistinguishable():
    assert derive_decision_tree([["xx"], ["xx"]]) is None


def test_single_variant_trivial_tree():
    got = derive_decision_tree([["xxxx"]])
    assert got is not None
    tree, _ = got
    assert tree == Leaf(0)


def test_field_bits_route_both_ways():
    # A = [x, 0], B = [0, u], C = [1, 1] (MSB first); splitting must cope
    # with A flowing into both branches of a test on its field bit
    patterns = [["x0"], ["0u"], ["11"]]
    assert derive_decision_tree(patterns) is not None
    got = derive_decision_tree(patterns)
    assert got is not None
    tree, resolved = got
    # classification must hold for every value of A's field bit
    for afield in (0, 1):
        a_word = (afield << 1) | 0
        assert classify(tree, [a_word]) == 0
    b_bit = int(resolved[1][0][1], 2)
    assert classify(tree, [0b00 | b_bit]) == 1
    assert classify(tree, [0b11]) == 2


def test_find_tag_interval_first_fit():
    rows = [[parse_pattern(s) for s in row] for row in [["uuxx", "uu"], ["uuuu", "uu"]]]
    assert shared_free_run(rows, 0, 2) == 2
    assert shared_free_run(rows, 0, 1) == 2
    # a four-bit tag does not fit the shared free bits of scalar 0
    assert shared_free_run(rows, 0, 4) is None
    assert shared_free_run(rows, 1, 2) == 0


def test_tag_width():
    assert tag_width_for(1) == 0
    assert tag_width_for(2) == 1
    assert tag_width_for(3) == 2
    assert tag_width_for(4) == 2
    assert tag_width_for(5) == 3


def test_agreement_with_brute_force_enumeration():
    """Whether derive_decision_tree finds a tree agrees with an
    independent brute-force enumeration over every small pattern set, and
    every derived tree classifies correctly under all field-bit values."""
    count = 0
    for patterns in enumerate_pattern_sets(max_total_bits=4):
        expected = brute_force_distinguishable(patterns)
        assert (not patterns or derive_decision_tree(patterns) is not None) == expected, patterns
        derived = derive_decision_tree(patterns)
        assert (derived is not None) == expected, patterns
        if derived is not None:
            _assert_tree_classifies(patterns, derived)
        count += 1
    assert count > 500


def test_derived_trees_match_min_depth_oracle():
    """Over 1000 distinguishable four-variant pattern sets of at most 10
    free bits, every derived tree classifies, none is deeper than the least
    depth over every free-bit assignment plus one, and at least 95 % reach
    that least depth."""
    rng = random.Random(0)
    matched = total = 0
    while total < 1000:
        shape = [rng.randint(1, 3) for _ in range(rng.randint(1, 2))]
        patterns = [["".join(rng.choice("01xu") for _ in range(w)) for w in shape] for _ in range(4)]
        if sum(p.count("u") for row in patterns for p in row) > 10:
            continue
        derived = derive_decision_tree(patterns)
        if derived is None:
            continue
        _assert_tree_classifies(patterns, derived)
        least = oracle_min_tree_depth(patterns)
        depth = tree_depth(derived[0])
        assert least is not None and least <= depth <= least + 1, (patterns, depth, least)
        matched += depth == least
        total += 1
    assert matched >= 950, matched


def test_fallback_search_is_charged_after_its_first_backtrack(monkeypatch):
    """Where the top-down pass finds no admissible split, the complete
    free-bit search runs: its first descent is free, each later node calls
    `charge`, and a refused charge leaves no tree."""
    runs = []
    resolve = distinguish._resolve_free_bits

    def spy(rows, charge=None):
        runs.append(len(rows))
        return resolve(rows, charge)

    monkeypatch.setattr(distinguish, "_resolve_free_bits", spy)

    def rows(*texts):
        return [[parse_pattern(t)] for t in texts]

    # the pass sends B and C to one side at bit 0, their only position left
    assert derive_tree(rows("01", "1u", "1u"), lambda: False) is not None
    assert runs == [3]
    # found only after backtracking
    stuck = ("01", "0u", "u0", "uu")
    assert derive_tree(rows(*stuck), lambda: False) is None
    charged = []
    derived = derive_tree(rows(*stuck), lambda: charged.append(1) or True)
    assert derived is not None and len(charged) == 2
    assert derived == derive_tree(rows(*stuck))
    patterns = [[t] for t in stuck]
    _assert_tree_classifies(patterns, derive_decision_tree(patterns))
    assert runs == [3, 4, 4, 4, 4]


def _assert_tree_classifies(patterns, derived):
    tree, resolved = derived
    shape = [len(s) for s in resolved[0]]
    for v, row in enumerate(resolved):
        free_or_field = [
            (s, b)
            for s, pat in enumerate(row)
            for b, ch in enumerate(reversed(pat))
            if ch in "xu"
        ]
        for combo in itertools.product((0, 1), repeat=len(free_or_field)):
            words = []
            for s, pat in enumerate(row):
                word = 0
                for b, ch in enumerate(reversed(pat)):
                    if ch == "1":
                        word |= 1 << b
                words.append(word)
            for (s, b), bit in zip(free_or_field, combo):
                if bit:
                    words[s] |= 1 << b
            assert classify(tree, words) == v, (patterns, v, words)


from hypothesis import given, settings, strategies as st


@st.composite
def pattern_sets(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    shape = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    return [
        ["".join(draw(st.sampled_from("01xu")) for _ in range(w)) for w in shape]
        for _ in range(n)
    ]


@given(pattern_sets())
@settings(max_examples=300, deadline=None)
def test_check_matches_brute_force_random(patterns):
    total_u = sum(p.count("u") for row in patterns for p in row)
    if total_u > 10:
        return  # keep the brute-force side tractable
    found = not patterns or derive_decision_tree(patterns) is not None
    assert found == brute_force_distinguishable(patterns)


@given(pattern_sets())
@settings(max_examples=200, deadline=None)
def test_derived_trees_always_classify(patterns):
    derived = derive_decision_tree(patterns)
    if derived is None:
        return
    tree, resolved = derived
    for v, row in enumerate(resolved):
        words = []
        for pat in row:
            word = 0
            for b, ch in enumerate(reversed(pat)):
                if ch == "1":
                    word |= 1 << b
            words.append(word)
        assert classify(tree, words) == v


@given(st.text(alphabet="01xu", max_size=64))
def test_print_pattern_inverts_parse_pattern(text):
    assert print_pattern(parse_pattern(text)) == text


@st.composite
def bit_patterns(draw):
    """A pattern of width 0-64 whose ones are constant bits and whose field
    bits are not."""
    width = draw(st.integers(0, 64))
    masks = st.integers(0, (1 << width) - 1)
    const = draw(masks)
    return BitPattern(width, const, draw(masks) & const, draw(masks) & ~const)


@given(bit_patterns())
def test_parse_pattern_inverts_print_pattern(p):
    assert parse_pattern(print_pattern(p)) == p


def test_derive_tree_is_the_mask_form_of_derive_decision_tree():
    for patterns in enumerate_pattern_sets(max_total_bits=4):
        rows = [[parse_pattern(p) for p in row] for row in patterns]
        by_masks = derive_tree(rows)
        by_strings = derive_decision_tree(patterns)
        if by_strings is None:
            assert by_masks is None, patterns
            continue
        tree, resolved = by_strings
        assert by_masks == (tree, [[parse_pattern(p) for p in row] for row in resolved])


# Pinned trees: `derive_tree` over seeded pattern sets, compared with
# tests/golden/trees.json entry by entry. Each entry holds its pre-tag
# patterns, so the test runs no solver. A change to the file is a change in
# behaviour: name it in CHANGES.md. To write the file after such a change,
# run `PYTHONPATH=src python tests/test_distinguish.py`.
TREES_GOLDEN = pathlib.Path(__file__).parent / "golden" / "trees.json"


def _random_sets(rng: random.Random, count: int, scalars: int) -> list[Patterns]:
    """`count` sets of 3-6 cases over `scalars` scalars of 2-8 bits, each
    bit drawn from `0 1 u u x`."""
    out = []
    for _ in range(count):
        n = rng.randint(3, 6)
        widths = [rng.randint(2, 8) for _ in range(scalars)]
        out.append([["".join(rng.choice("01uux") for _ in range(w)) for w in widths] for _ in range(n)])
    return out


def _solver_sets(source: str, target) -> dict[str, Patterns]:
    """The pre-tag patterns that the solver hands `derive_tree` while laying
    out `source`, by type name (the first set of each type)."""
    from adtlayout import solver
    from adtlayout.pipeline import process_adts
    from adtlayout.syntax import parse_program

    seen: dict[str, Patterns] = {}
    current = []
    candidates, derive = solver._candidates, distinguish.derive_tree

    def spy_candidates(state, *args, **kwargs):
        current.append(state.adt.name)
        try:
            return candidates(state, *args, **kwargs)
        finally:
            current.pop()

    def spy_derive(rows, charge=None):
        seen.setdefault(current[-1], [[print_pattern(p) for p in row] for row in rows])
        return derive(rows, charge)

    solver._candidates, distinguish.derive_tree = spy_candidates, spy_derive
    try:
        process_adts(parse_program(source), target)
    finally:
        solver._candidates, distinguish.derive_tree = candidates, derive
    return seen


def tree_cases() -> dict[str, Patterns]:
    """The pinned pattern sets by name."""
    from adtlayout.targets import X64, X86_32

    from corpus import CORPUS_SRC

    cases: dict[str, Patterns] = {}
    for k, ps in enumerate(_random_sets(random.Random(3), 400, 1)):
        cases[f"random1-{k}"] = ps
    for k, ps in enumerate(_random_sets(random.Random(4), 100, 2)):
        cases[f"random2-{k}"] = ps
    for target, width in ((X64, 62), (X86_32, 29)):
        nullary = " ".join(f"case N{i};" for i in range(18))
        source = f"type T0 #unboxed {{ {nullary} case P(p: u{width}); }}"
        cases[f"stress-tags-{target.name}"] = _solver_sets(source, target)["T0"]
    cases["C16-x64"] = _solver_sets(CORPUS_SRC, X64)["C16"]
    for n in (16, 40, 100):
        cases[f"nullary{n}-u60"] = [["u" * 64]] * n + [["uuuu" + "x" * 60]]
    return cases


def render_tree(patterns: Patterns) -> Optional[dict]:
    derived = derive_tree([[parse_pattern(s) for s in row] for row in patterns])
    if derived is None:
        return None
    tree, rows = derived
    return {"tree": tree.to_json(), "resolved": [[print_pattern(p) for p in row] for row in rows]}


def render_trees(cases: dict[str, Patterns]) -> str:
    lines = [
        json.dumps({"name": name, "patterns": ps, "result": render_tree(ps)}, separators=(",", ":"))
        for name, ps in cases.items()
    ]
    return "[\n" + ",\n".join(lines) + "\n]\n"


def test_trees_match_golden():
    entries = json.loads(TREES_GOLDEN.read_text(encoding="utf-8"))
    assert len(entries) == 506
    for entry in entries:
        assert render_tree(entry["patterns"]) == entry["result"], entry["name"]


# The tree pass over member bitsets (`distinguish._build`) against its first
# form over member lists (`oracles.reference_build`): the same trees and the
# same resolved rows. Both sides get a complete search charged the same
# budget, so a set whose search would run long gives None on both.
ROW_KINDS = (
    (0.5, "u"),  # all free, as nullary cases are
    (0.7, "uuu01"),  # free with constants
    (0.9, "uuux"),  # free with fields
    (1.0, "01ux"),  # a mix of all four
)


def _mixed_sets(rng: random.Random, count: int) -> list[Patterns]:
    """`count` sets of 2-40 cases over 1-3 scalars, with 0-3 bits more than
    the cases need to be told apart, so that nodes run out of positions. A
    case is all free, free with constants, free with fields or a mix, drawn
    by `ROW_KINDS`; up to two cases hold fields but for the one or two
    positions that the set picks, each free or constant, so that their last
    usable position comes early."""
    out = []
    for _ in range(count):
        n = rng.randint(2, 40)
        total = max(2, (n - 1).bit_length() + rng.randint(0, 3))
        cuts = sorted(rng.sample(range(1, total), min(rng.randint(0, 2), total - 1)))
        widths = [b - a for a, b in zip([0] + cuts, cuts + [total])]
        keep = rng.sample(range(total), rng.randint(1, 2))
        texts = []
        for _ in range(n):
            draw = rng.random()
            alphabet = next(letters for bound, letters in ROW_KINDS if draw < bound)
            texts.append("".join(rng.choice(alphabet) for _ in range(total)))
        for _ in range(rng.choice((0, 0, 1, 2))):
            lone = "".join(rng.choice("u01") if i in keep else "x" for i in range(total))
            texts.insert(rng.randint(0, len(texts)), lone)
        patterns = []
        for text in texts:
            row, at = [], 0
            for w in widths:
                row.append(text[at : at + w])
                at += w
            patterns.append(row)
        out.append(patterns)
    return out


def _both_derivations(patterns: Patterns, budget: int = 200):
    def charge():
        spent.append(1)
        return len(spent) <= budget

    derived = []
    for derive in (derive_tree, reference_derive_tree):
        spent: list[int] = []
        derived.append(derive([[parse_pattern(s) for s in row] for row in patterns], charge))
    return derived


def test_tree_pass_matches_the_reference_on_mixed_sets(monkeypatch):
    resolve, searched = distinguish._resolve_free_bits, []

    def spy(rows, charge=None):
        searched.append(len(rows))
        return resolve(rows, charge)

    monkeypatch.setattr(distinguish, "_resolve_free_bits", spy)
    trees = 0
    for patterns in _mixed_sets(random.Random(28), 200):
        got, want = _both_derivations(patterns)
        assert got == want, patterns
        trees += got is not None
    # the sets reach trees, refusals and the complete search
    assert 50 < trees < 150
    assert len(searched) > 20


# Cases with no constant or field bit, lone at the one position left to a
# node where other cases hold fields: a pass that leaves them out of the lone
# members builds another tree here, a fault that few random sets show.
LONE_UNMARKED = (
    [["u" * 6]] * 10 + [["xuu1uu"], ["u" * 6], ["uxuuxx"]] + [["u" * 6]] * 5 + [["uuuxuu"]]
)


def test_tree_pass_matches_the_reference_on_pinned_sets():
    for entry in json.loads(TREES_GOLDEN.read_text(encoding="utf-8")):
        got, want = _both_derivations(entry["patterns"])
        assert got == want, entry["name"]
    got, want = _both_derivations(LONE_UNMARKED)
    assert got is not None and got == want


if __name__ == "__main__":
    TREES_GOLDEN.write_text(render_trees(tree_cases()), encoding="utf-8")
    print(f"wrote {TREES_GOLDEN}")
