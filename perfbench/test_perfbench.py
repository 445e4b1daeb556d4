"""Tests of the benchmark itself: stored inputs, its checks, its tracer and
its command line. Run with `python3 -m pytest perfbench -q`."""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import jobs  # noqa: E402
import make_inputs  # noqa: E402
import tracing  # noqa: E402
from adtlayout import cli, interp, ir, norm, pipeline, progtext, solver  # noqa: E402


@pytest.fixture(scope="module")
def first_jobs():
    out = {}
    for w in jobs.WORKLOADS:
        wl = jobs.load(w, seed=5)
        first = wl.job()
        wl.prepare(first)
        out[w] = (wl, wl.job())
    return out


def _report_entries(first_jobs, workload):
    _, output = first_jobs[workload]
    return [
        (e, result.resolved[e["adt"]].mono, target)
        for target, result, text, _ in output
        for e in json.loads(text)["adts"]
        if not e["boxed"]
    ]


def _check(entry, mono, target, seed=0):
    checks.check_layout(entry, solver.trivial_layout(mono, target).score, random.Random(seed))


@pytest.mark.parametrize("workload", sorted(make_inputs.MAKERS))
def test_stored_inputs_equal_what_make_inputs_makes(workload):
    with open(make_inputs.input_path(workload), encoding="utf-8") as f:
        assert f.read() == make_inputs.render(workload)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_checks_accept_the_real_outputs(first_jobs, workload):
    wl, output = first_jobs[workload]
    wl.check(output, random.Random(11))
    counts = wl.counts(output)
    assert counts["instantiations"] > 0 and counts["layout_scalars"] > 0


def test_equivalence_check_rejects_a_changed_constant():
    bundles = jobs.load("equiv", seed=1).bundles
    for text in bundles:
        program, _ = progtext.parse_bundle(text)
        boxed = interp.eval_program(program)
        post = norm.normalize_program(program)
        for fn in post.functions.values():
            for block in fn.blocks.values():
                for k, ins in enumerate(block.instrs):
                    if not (isinstance(ins, ir.Const) and isinstance(ins.value, int)):
                        continue
                    block.instrs[k] = dataclasses.replace(ins, value=ins.value ^ 1)
                    changed = interp.eval_program(post)
                    block.instrs[k] = ins
                    if changed != boxed:
                        checks.check_equivalence([(boxed, interp.eval_program(post))])
                        with pytest.raises(checks.WrongOutput):
                            checks.check_equivalence([(boxed, changed)])
                        return
    pytest.fail("no constant of the stored programs changes an outcome")


def test_layout_check_rejects_overlapping_intervals(first_jobs):
    for entry, mono, target in _report_entries(first_jobs, "corpus"):
        for vi, v in enumerate(entry["variants"]):
            for na, a in v["fields"].items():
                for nb, b in v["fields"].items():
                    width = entry["scalars"][a["scalar"]]["width"]
                    if na == nb or a["scalar"] != b["scalar"] or a["offset"] + b["width"] > width:
                        continue
                    bad = copy.deepcopy(entry)
                    bad["variants"][vi]["fields"][nb]["offset"] = a["offset"]
                    _check(entry, mono, target)
                    with pytest.raises(checks.WrongOutput, match="overlaps"):
                        _check(bad, mono, target)
                    return
    pytest.fail("no corpus layout has two fields in one scalar")


def test_layout_check_rejects_identical_patterns(first_jobs):
    for entry, mono, target in _report_entries(first_jobs, "corpus"):
        if len(entry["variants"]) >= 2:
            bad = copy.deepcopy(entry)
            bad["variants"][1] = dict(copy.deepcopy(entry["variants"][0]), name="copy")
            _check(entry, mono, target)
            with pytest.raises(checks.WrongOutput, match="not distinguishable"):
                _check(bad, mono, target)
            return
    pytest.fail("no multi-variant corpus layout")


def test_layout_check_rejects_a_tree_with_two_leaves_swapped(first_jobs):
    entry, mono, target = _report_entries(first_jobs, "stress-tags")[0]
    assert entry["tag_scheme"]["kind"] == "decision-tree"
    bad = copy.deepcopy(entry)
    leaves = []

    def collect(node):
        if "variant" in node:
            leaves.append(node)
        else:
            collect(node["zero"])
            collect(node["one"])

    collect(bad["tag_scheme"]["tree"])
    leaves[0]["variant"], leaves[1]["variant"] = leaves[1]["variant"], leaves[0]["variant"]
    _check(entry, mono, target)
    with pytest.raises(checks.WrongOutput, match="classified as"):
        _check(bad, mono, target)


def test_tracer_rebinds_imported_names_and_self_times_add_up():
    wl = jobs.load("corpus", seed=1)
    wl.prepare(wl.job())
    originals = (pipeline.solve_layout, cli.process_adts, cli.parse_program)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert pipeline.solve_layout is solver.solve_layout is not originals[0]
        assert cli.process_adts is pipeline.process_adts is not originals[1]
        assert cli.parse_program is not originals[2]
        tracer.run_job(wl.job)
    finally:
        tracer.uninstall()
    assert (pipeline.solve_layout, cli.process_adts, cli.parse_program) == originals
    spans = tracer.jobs[0]
    total = spans[0][2] - spans[0][1]
    assert sum(tracer.self_times(spans).values()) == pytest.approx(total, rel=1e-9)
    counts = tracer.job_counts[0]
    assert counts["pipeline.instantiations"] == 75
    assert counts["solver.solves"] > 0 and counts["solver.score.calls"] > 0


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_prints_every_metric_of_its_section(trace, section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    proc = _run(ROOT, "--workload", "corpus", "--seed", "2", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    want = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
