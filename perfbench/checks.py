"""Correctness checks on the program's outputs, written from the report
format and the layout rules rather than from the solver's code.

Each check raises WrongOutput naming what is wrong. None compares against a
stored copy of an earlier output.
"""

from __future__ import annotations

import random
from typing import Iterable


class WrongOutput(Exception):
    pass


def _bits(pattern: str) -> list[str]:
    """A report pattern is MSB first; index the result from the LSB."""
    return list(reversed(pattern))


def _classify(scheme: dict, scalars: list[int]) -> int:
    """The variant index the reported tag scheme reads from scalar values."""
    kind = scheme["kind"]
    if kind == "single-variant":
        return 0
    if kind in ("bare-tag", "explicit-tag"):
        word = scalars[scheme["scalar"]] >> scheme["offset"]
        return word & ((1 << scheme["width"]) - 1)
    if kind == "decision-tree":
        node = scheme["tree"]
        while "variant" not in node:
            bit = (scalars[node["scalar"]] >> node["bit"]) & 1
            node = node["one"] if bit else node["zero"]
        return node["variant"]
    raise WrongOutput(f"unknown tag scheme {kind!r}")


def _tree_depth(node: dict) -> int:
    if "variant" in node:
        return 0
    return 1 + max(_tree_depth(node["zero"]), _tree_depth(node["one"]))


def _access_cost(bits: list[str], offset: int, width: int) -> int:
    """0 for a bare read, 1 when a mask is needed, 2 when a shift is."""
    if offset > 0:
        return 2
    return 1 if any(ch != "0" for ch in bits[width:]) else 0


def expected_score(entry: dict) -> tuple[int, int, int]:
    """(scalars, access cost, explicit-tag cost) recomputed from a report
    entry by the scoring rule: each field pays its access cost, the tag
    pays its own (2 per decision-tree level), and a scalar that holds only
    the tag costs 1 more."""
    variants = entry["variants"]
    scheme = entry["tag_scheme"]
    access = 0
    for v in variants:
        for pl in v["fields"].values():
            access += _access_cost(_bits(v["patterns"][pl["scalar"]]), pl["offset"], pl["width"])
    dedicated = 0
    if scheme["kind"] in ("bare-tag", "explicit-tag"):
        s, off, width = scheme["scalar"], scheme["offset"], scheme["width"]
        if off > 0:
            access += 2
        else:
            access += max(_access_cost(_bits(v["patterns"][s]), 0, width) for v in variants)
        if not any(pl["scalar"] == s for v in variants for pl in v["fields"].values()):
            dedicated = 1
    elif scheme["kind"] == "decision-tree":
        access += 2 * _tree_depth(scheme["tree"])
    return (len(entry["scalars"]), access, dedicated)


def check_layout(entry: dict, trivial_score, rng: random.Random, fills: int = 4) -> None:
    """Check one layout of a `layout --json` report.

    - every field interval lies inside its scalar, on the pattern's field bits;
    - no two intervals of one variant overlap;
    - every pair of variants differs at a bit constant in both;
    - the tag scheme maps each variant's pattern to that variant's index,
      for `fills` random fills of its field bits;
    - the reported score follows from the layout and is no worse than the
      trivial layout's (`trivial_score`, a solver.Score).
    """
    name = entry["adt"]
    widths = [s["width"] for s in entry["scalars"]]
    variants = entry["variants"]
    grids = []
    for vi, v in enumerate(variants):
        pats = v["patterns"]
        if [len(p) for p in pats] != widths or any(set(p) - set("01x") for p in pats):
            raise WrongOutput(f"{name} case {v['name']}: patterns do not fit the scalars")
        grid = [_bits(p) for p in pats]
        covered: list[set[int]] = [set() for _ in widths]
        for fname, pl in v["fields"].items():
            s, off, w = pl["scalar"], pl["offset"], pl["width"]
            if not (0 <= s < len(widths) and 0 <= off and w > 0 and off + w <= widths[s]):
                raise WrongOutput(f"{name}.{v['name']}.{fname}: interval outside its scalar")
            span = set(range(off, off + w))
            if covered[s] & span:
                raise WrongOutput(f"{name}.{v['name']}.{fname}: overlaps another field")
            covered[s] |= span
        for s, bits in enumerate(grid):
            if {b for b, ch in enumerate(bits) if ch == "x"} != covered[s]:
                raise WrongOutput(f"{name} case {v['name']}: field bits disagree with intervals")
        grids.append(grid)

    for u in range(len(grids)):
        for v in range(u + 1, len(grids)):
            if not any(
                a in "01" and c in "01" and a != c
                for su, sv in zip(grids[u], grids[v])
                for a, c in zip(su, sv)
            ):
                raise WrongOutput(f"{name}: cases {u} and {v} are not distinguishable")

    scheme = entry["tag_scheme"]
    for vi, grid in enumerate(grids):
        for _ in range(fills):
            scalars = []
            for bits in grid:
                word = 0
                for b, ch in enumerate(bits):
                    if ch == "1" or (ch == "x" and rng.random() < 0.5):
                        word |= 1 << b
                scalars.append(word)
            got = _classify(scheme, scalars)
            if got != vi:
                raise WrongOutput(f"{name}: case {vi} classified as {got}")

    sc = entry["score"]
    reported = (sc["scalars"], sc["access_cost"], sc["explicit_tag_cost"])
    if reported != expected_score(entry):
        raise WrongOutput(f"{name}: reported score {reported}, layout gives {expected_score(entry)}")
    key = (reported[0], reported[1] + reported[2])
    if key > trivial_score.key():
        raise WrongOutput(f"{name}: score {key} worse than the trivial layout's {trivial_score.key()}")


def layout_totals(entries: Iterable[dict]) -> dict[str, int]:
    """layout_scalars and layout_cost summed over report entries."""
    scalars = cost = 0
    for e in entries:
        scalars += len(e["scalars"])
        cost += e["score"]["access_cost"] + e["score"]["explicit_tag_cost"]
    return {"layout_scalars": scalars, "layout_cost": cost}


def check_roundtrips(vectors, trips) -> None:
    """decode_field(encode_variant(v)) == v and variant_of gives v's case."""
    if len(vectors) != len(trips):
        raise WrongOutput("codec batch incomplete")
    for (key, vi, values), (got_v, decoded) in zip(vectors, trips):
        if got_v != vi:
            raise WrongOutput(f"codec: {key} case {vi} classified as {got_v}")
        if decoded != values:
            raise WrongOutput(f"codec: {key} case {vi} decoded {decoded}, encoded {values}")


def check_equivalence(outcomes) -> None:
    """Normalized evaluation agrees with boxed evaluation, traps included."""
    for i, (boxed, normalized) in enumerate(outcomes):
        if boxed != normalized:
            raise WrongOutput(f"program {i}: boxed {boxed}, normalized {normalized}")


def count_instrs(program) -> int:
    return sum(len(b.instrs) for fn in program.functions.values() for b in fn.blocks.values())
