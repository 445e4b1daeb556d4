"""The four workloads: their stored inputs, the job a run repeats, and the
work each job counts.

A job calls only into adtlayout. Everything built from `--seed` (the codec
batch) is made before timing starts, and every check runs after a job ends
(see run.py and checks.py). Every job of a workload does identical work.
"""

from __future__ import annotations

import json
import os
import random

from adtlayout import cli, codec, interp, ir, norm, pipeline, progtext, solver, syntax
from adtlayout.targets import BUILTIN_TARGETS, REF_PLAIN

import checks

INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "inputs")
WORKLOADS = ("corpus", "equiv", "stress-tags", "stress-wide")

# codec batch: this many random vectors per variant of every corpus layout
VECTORS_PER_VARIANT = 4


def load(workload: str, seed: int):
    """Read the stored inputs of one workload (part of set-up time)."""
    with open(os.path.join(INPUTS, f"{workload}.json"), encoding="utf-8") as f:
        data = json.load(f)
    if workload == "equiv":
        return EquivWorkload(data["bundles"])
    return LayoutWorkload(data["programs"], seed, with_codec=workload == "corpus")


def layout_json(result: pipeline.ProgramLayouts) -> str:
    """What `adtlayout layout --json` prints for one program."""
    return json.dumps(cli._layout_report(result), sort_keys=True)


def random_field_values(layout, variant: int, rng: random.Random) -> dict[str, int]:
    """A random in-range value per normalized field; references get aligned
    word-sized addresses. (Kept here rather than imported from the tests'
    `corpus.py`, so that a change to the tests cannot change the batch.)"""
    values = {}
    for f in layout.adt.variants[variant].fields:
        if f.ref_mode == REF_PLAIN:
            values[f.name] = rng.randrange(0, 1 << (f.width - 4)) * 8
        elif f.signed:
            values[f.name] = rng.randint(-(1 << (f.width - 1)), (1 << (f.width - 1)) - 1)
        else:
            values[f.name] = rng.randrange(0, 1 << f.width)
    return values


class LayoutWorkload:
    """corpus, stress-tags, stress-wide: each program is one source text
    taken through `adtlayout layout --json` for one target; the corpus also
    round-trips its codec batch over the resulting layouts."""

    def __init__(self, programs: list[dict], seed: int, with_codec: bool):
        self.programs = [(BUILTIN_TARGETS[p["target"]], p["source"]) for p in programs]
        self.seed = seed
        self.with_codec = with_codec
        self.vectors: list[list[tuple[str, int, dict[str, int]]]] = [[] for _ in programs]

    def prepare(self, output) -> None:
        """Draw the codec batch from the seed, over the first job's layouts."""
        if not self.with_codec:
            return
        rng = random.Random(f"perfbench:codec:{self.seed}")
        for i, (_, result, _, _) in enumerate(output):
            for key, layout in result.layouts().items():
                for v in range(len(layout.adt.variants)):
                    for _ in range(VECTORS_PER_VARIANT):
                        self.vectors[i].append((key, v, random_field_values(layout, v, rng)))

    def job(self):
        out = []
        for (target, source), vectors in zip(self.programs, self.vectors):
            result = pipeline.process_adts(syntax.parse_program(source), target)
            text = layout_json(result)
            layouts = result.layouts()
            trips = []
            for key, v, values in vectors:
                layout = layouts[key]
                scalars = codec.encode_variant(layout, v, values)
                decoded = {name: codec.decode_field(layout, v, name, scalars) for name in values}
                trips.append((codec.variant_of(layout, scalars), decoded))
            out.append((target, result, text, trips))
        return out

    # -- work counts and checks, all outside the timed job --

    def counts(self, output) -> dict[str, int]:
        entries = [e for _, _, text, _ in output for e in json.loads(text)["adts"]]
        return {
            "programs": len(output),
            "instantiations": len(entries),
            **checks.layout_totals(e for e in entries if not e["boxed"]),
            "roundtrips": sum(len(v) for v in self.vectors),
        }

    def fingerprint(self, output):
        return [(text, trips) for _, _, text, trips in output]

    def check(self, output, rng: random.Random) -> None:
        for (target, result, text, trips), vectors in zip(output, self.vectors):
            for entry in json.loads(text)["adts"]:
                if entry["boxed"]:
                    continue
                mono = result.resolved[entry["adt"]].mono
                checks.check_layout(entry, solver.trivial_layout(mono, target).score, rng)
            checks.check_roundtrips(vectors, trips)


class EquivWorkload:
    """equiv: each program is a stored bundle taken through the boxed and
    the normalized interpreter, as `adtlayout equiv` does for one program."""

    def __init__(self, bundles: list[str]):
        self.bundles = bundles

    def prepare(self, output) -> None:
        pass

    def job(self):
        out = []
        for text in self.bundles:
            program, _ = progtext.parse_bundle(text)
            ir.check_program(program)
            boxed = interp.eval_program(program)
            post = norm.normalize_program(program)
            ir.check_program(post)
            out.append((program, post, boxed, interp.eval_program(post)))
        return out

    def counts(self, output) -> dict[str, int]:
        entries = [lay.to_json() for program, _, _, _ in output for lay in program.layouts.values()]
        return {
            "programs": len(output),
            "instantiations": sum(len(program.adts) for program, _, _, _ in output),
            **checks.layout_totals(entries),
            "roundtrips": 0,
        }

    def fingerprint(self, output):
        return [(boxed, normalized, checks.count_instrs(post)) for _, post, boxed, normalized in output]

    def check(self, output, rng: random.Random) -> None:
        checks.check_equivalence([(boxed, normalized) for _, _, boxed, normalized in output])
        for program, _, _, _ in output:
            for key, layout in program.layouts.items():
                trivial = solver.trivial_layout(program.adts[key], program.target)
                checks.check_layout(layout.to_json(), trivial.score, rng)
