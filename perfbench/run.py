"""Benchmark entry point for adtlayout.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Runs one workload in this process and one thread: a first job whose outputs
are checked in full, then identical timed jobs for `--seconds`, each timed
by wall clock between two calibration loops and compared with the checked
first job. Set-up time is measured in fresh child interpreters. The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
metrics of a traced run with `--trace 1`. A summary goes to standard error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# fresh interpreters timed from spawn to exit; setup_s is their median
SETUP_PROBES = 11
MIN_JOBS = 5
# reported times are scaled to a machine on which one calibration loop
# takes CALIBRATION_S and a bare interpreter starts and exits in STARTUP_S
# (about their times on an idle core of a 2-core x86-64 VM)
CALIBRATION_S = 0.010
STARTUP_S = 0.050


def _calibration_loop() -> int:
    """Fixed pure-Python work that uses nothing of adtlayout: bit lists,
    masks, strings and a dict, the kind of work the layout code does. It
    is timed before and after every job, and each job's time is divided by
    the mean of the two, so that a change in the speed of a shared machine
    moves both sides of the ratio and cancels out."""
    acc = 0
    table: dict[tuple[int, int], int] = {}
    for i in range(2500):
        bits = ["x" if (i >> k) & 1 else "u" for k in range(16)]
        mask = 0
        for b, ch in enumerate(bits):
            if ch == "u":
                mask |= 1 << b
        key = (i % 89, mask & 0xF)
        table[key] = table.get(key, 0) + 1
        acc += bin(mask).count("1") + len("".join(reversed(bits)))
    return acc + len(table)


def _calibrated(run):
    """Run `run()` between two calibration loops. Returns its result, its
    wall time, and that time scaled by the mean calibration time to a
    machine where the loop takes CALIBRATION_S."""
    t0 = time.perf_counter()
    _calibration_loop()
    t1 = time.perf_counter()
    result = run()
    t2 = time.perf_counter()
    _calibration_loop()
    t3 = time.perf_counter()
    wall = t2 - t1
    return result, wall, wall / (((t1 - t0) + (t3 - t2)) / 2) * CALIBRATION_S


def _import_jobs():
    """Import the workloads, and with them adtlayout, from this checkout."""
    if not os.path.isfile(os.path.join(SRC, "adtlayout", "__init__.py")):
        raise SystemExit(f"perfbench: no adtlayout sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import jobs

    return jobs


def _wall(cmd: list[str]) -> float:
    start = time.perf_counter()
    subprocess.run(cmd, check=True, cwd=ROOT)
    return time.perf_counter() - start


def _setup_seconds(workload: str, seed: int) -> float:
    """Median time of a fresh interpreter that imports adtlayout, loads the
    workload's inputs and exits. Each is scaled by a bare interpreter start
    timed before and after it: scaled by the calibration loop instead,
    start-up times moved by up to a fifth between sets of runs."""
    probe = [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)]
    bare = [sys.executable, "-c", "pass"]
    samples = []
    for _ in range(SETUP_PROBES):
        before = _wall(bare)
        took = _wall(probe)
        after = _wall(bare)
        samples.append(took / ((before + after) / 2) * STARTUP_S)
    return statistics.median(samples)


def _timed_jobs(wl, seconds: float, reference, tracer=None):
    """Repeat the job for at least `seconds`. With a tracer, every second
    job is traced, so that traced and untraced jobs meet the same machine
    load. Returns (wall, scaled, traced) for each job that ran to its end,
    and how many jobs raised or gave an output unlike the checked
    reference."""
    times: list[tuple[float, float, bool]] = []
    raised = wrong = 0
    deadline = time.perf_counter() + seconds
    n = 0
    while n < MIN_JOBS * (1 if tracer is None else 2) or time.perf_counter() < deadline:
        traced = tracer is not None and n % 2 == 1
        n += 1
        gc.collect()
        if traced:
            tracer.install()
        try:
            out, w, s = _calibrated(lambda: tracer.run_job(wl.job) if traced else wl.job())
        except Exception as e:  # a failing job is counted, not fatal
            print(f"perfbench: job failed: {e!r}", file=sys.stderr)
            raised += 1
            continue
        finally:
            if traced:
                tracer.uninstall()
        times.append((w, s, traced))
        if wl.fingerprint(out) != reference:
            wrong += 1
        del out
    return times, raised, wrong


def main(argv=None) -> int:
    jobs = _import_jobs()
    import checks

    ap = argparse.ArgumentParser(description="adtlayout benchmark")
    ap.add_argument("--workload", choices=jobs.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    wl = jobs.load(args.workload, args.seed)
    if args.setup_probe:
        return 0

    # the first job: warms caches, fixes the codec batch, is checked in full
    first = wl.job()
    wl.prepare(first)
    first = wl.job()
    correct = True
    try:
        wl.check(first, random.Random(f"perfbench:fills:{args.seed}"))
    except checks.WrongOutput as e:
        print(f"perfbench: wrong output: {e}", file=sys.stderr)
        correct = False
    reference = wl.fingerprint(first)
    counts = wl.counts(first)
    ops = counts["instantiations"]
    del first

    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        times, raised, wrong = _timed_jobs(wl, args.seconds, reference, tracer)
        untraced = [w for w, _, traced in times if not traced]
        layer = tracer.metrics(statistics.median(untraced) if untraced else float("nan"))
        layer["codec.roundtrips"] = (counts["roundtrips"], "count")
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.jsonl"))
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(layer.items())}
    else:
        setup_s = _setup_seconds(args.workload, args.seed)
        times, raised, wrong = _timed_jobs(wl, args.seconds, reference)
        job_s = statistics.median(s for _, s, _ in times) if times else float("nan")
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "adts_per_s": {"value": ops / job_s, "unit": "instantiations/s"},
            "programs_per_s": {"value": counts["programs"] / job_s, "unit": "programs/s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            "layout_scalars": {"value": counts["layout_scalars"], "unit": "count"},
            "layout_cost": {"value": counts["layout_cost"], "unit": "count"},
        }
        if times:
            wall = sorted(w for w, _, _ in times)
            print(f"perfbench: {args.workload}: {len(wall)} jobs; scaled median "
                  f"{job_s * 1e3:.2f} ms; wall median {statistics.median(wall) * 1e3:.2f} ms, "
                  f"p90 {wall[int(0.9 * (len(wall) - 1))] * 1e3:.2f} ms (for reference); "
                  f"setup {setup_s:.3f} s", file=sys.stderr)

    if wrong:
        print(f"perfbench: {wrong} jobs gave outputs unlike the checked first job",
              file=sys.stderr)
        correct = False
    result = {
        "correct": correct,
        "attempted": (len(times) + raised) * ops,
        "failed": raised * ops,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
