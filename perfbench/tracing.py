"""The traced run: spans and counts at the boundary of each layer.

`Tracer.install()` replaces each layer function listed in LAYERS by a
wrapper that records a span (name, start, end, parent) and the layer's work
counts. Several modules bind other modules' functions by name (`pipeline`
imports `solve_layout`, `cli` imports `process_adts` and `parse_program`),
so every module-level binding of the function is replaced, not only the
defining module's attribute. `uninstall()` puts the originals back.

A span's self time is its duration minus that of its child spans, so the
self times of one job's spans, the job's own span included, add up to the
traced job time.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter
from typing import Callable, Optional

import jobs
from checks import count_instrs
from adtlayout import codec, distinguish, flatten, interp, ir, norm, pipeline, progtext
from adtlayout import solver, syntax, targets, verify
from adtlayout.solver import TreeTag

JOB = "trace.glue"  # the job's own span: benchmark code between layer calls


def _count_decls(c: Counter, args, result) -> None:
    c["syntax.decls"] += len(result)


def _count_instantiations(c: Counter, args, result) -> None:
    c["pipeline.instantiations"] += len(result.resolved)


def _count_solve(c: Counter, args, result) -> None:
    c["solver.solves"] += 1
    c["solver.steps_at_best"] += result.steps_used
    c["distinguish.trees_kept"] += isinstance(result.tag_scheme, TreeTag)


def _count_instrs(c: Counter, args, result) -> None:
    c["norm.instrs_in"] += count_instrs(args[0])
    c["norm.instrs_out"] += count_instrs(result)


def _eval_name(args) -> str:
    return "interp.eval_normalized" if args[0].normalized else "interp.eval_boxed"


# (module, function, span name or a function of the arguments, counter)
LAYERS: list[tuple[object, str, object, Optional[Callable]]] = [
    (jobs, "layout_json", "cli.layout", None),
    (syntax, "parse_program", "syntax.parse", _count_decls),
    (verify, "check_program_decls", "verify.check", None),
    (flatten, "flatten_annotation", "flatten.flatten", None),
    (targets, "monomorphize_adt", "targets.mono", None),
    (targets, "unboxing_eligibility", "targets.eligibility", None),
    (pipeline, "process_adts", "pipeline.process", _count_instantiations),
    (solver, "solve_layout", "solver.solve", _count_solve),
    (solver, "trivial_layout", "solver.trivial", None),
    (solver, "score_layout", "solver.score", None),
    (distinguish, "derive_decision_tree", "distinguish.derive", None),
    (codec, "encode_variant", "codec.encode", None),
    (codec, "decode_field", "codec.decode", None),
    (codec, "variant_of", "codec.classify", None),
    (progtext, "parse_bundle", "progtext.parse_bundle", None),
    (ir, "check_program", "ir.check", None),
    (norm, "normalize_program", "norm.normalize", _count_instrs),
    (interp, "eval_program", _eval_name, None),
]

SPAN_NAMES = sorted(
    {n for _, _, n, _ in LAYERS if isinstance(n, str)}
    | {"interp.eval_boxed", "interp.eval_normalized", JOB}
)


class Tracer:
    def __init__(self):
        self.jobs: list[list[list]] = []  # per job: [name, start, end, parent]
        self.job_counts: list[Counter] = []
        self._spans: list[list] = []
        self._stack: list[int] = []
        self._counts: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping --

    def _wrap(self, fn, name, counter):
        spans, stack = self._spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            idx = len(spans)
            span = [label, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            self._counts[label + ".calls"] += 1
            if counter is not None:
                counter(self._counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.startswith("adtlayout")] + [jobs]
        for module, fname, name, counter in LAYERS:
            original = getattr(module, fname)
            wrapped = self._wrap(original, name, counter)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._saved.append((m, attr, original))
                        setattr(m, attr, wrapped)

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._saved):
            setattr(m, attr, original)
        self._saved.clear()

    # -- one job --

    def run_job(self, job: Callable):
        """Run one job under a root span; keep its spans and counts."""
        self._spans.clear()
        self._counts.clear()
        root = [JOB, time.perf_counter(), 0.0, -1]
        self._spans.append(root)
        self._stack.append(0)
        try:
            return job()
        finally:
            self._stack.pop()
            root[2] = time.perf_counter()
            self.jobs.append([list(s) for s in self._spans])
            self.job_counts.append(Counter(self._counts))

    # -- results --

    @staticmethod
    def self_times(spans: list[list]) -> dict[str, float]:
        """Self time in seconds per span name, for one job's spans."""
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = dict.fromkeys(SPAN_NAMES, 0.0)
        for i, (name, start, end, _) in enumerate(spans):
            out[name] += (end - start) - child[i]
        return out

    def job_seconds(self) -> list[float]:
        return [spans[0][2] - spans[0][1] for spans in self.jobs]

    def metrics(self, untraced_job_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: medians over traced jobs of each layer's self
        time per job, work counts per job, and the tracing overhead."""
        per_job = [self.self_times(spans) for spans in self.jobs]

        def ms(name: str) -> float:
            return statistics.median(t[name] for t in per_job) * 1e3

        def count(key: str) -> float:
            return statistics.median(c[key] for c in self.job_counts)

        def us_per_call(name: str) -> float:
            calls = count(name + ".calls")
            return ms(name) * 1e3 / calls if calls else 0.0

        def ratio(num: float, base: float) -> float:
            return num / base if base else 0.0

        traced = statistics.median(self.job_seconds())
        m: dict[str, tuple[float, str]] = {}
        for name in SPAN_NAMES:
            if name.startswith("codec."):
                m[name + "_us"] = (us_per_call(name), "us")
            elif name != JOB:
                m[name + "_ms"] = (ms(name), "ms")
        for key in (
            "syntax.decls", "pipeline.instantiations", "solver.solves",
            "solver.steps_at_best", "distinguish.trees_kept",
            "norm.instrs_in", "norm.instrs_out",
        ):
            m[key] = (count(key), "count")
        m["solver.completions"] = (count("solver.score.calls"), "count")
        m["distinguish.derive_calls"] = (count("distinguish.derive.calls"), "count")
        m["codec.calls"] = (
            sum(count(f"codec.{k}.calls") for k in ("encode", "decode", "classify")),
            "count",
        )
        m["solver.completions_per_solve"] = (
            ratio(m["solver.completions"][0], m["solver.solves"][0]), "ratio")
        m["distinguish.trees_kept_per_derive"] = (
            ratio(m["distinguish.trees_kept"][0], m["distinguish.derive_calls"][0]), "ratio")
        m["trace.glue_ms"] = (ms(JOB), "ms")
        m["trace.job_ms"] = (traced * 1e3, "ms")
        m["trace.untraced_job_ms"] = (untraced_job_s * 1e3, "ms")
        m["trace.overhead_ms"] = ((traced - untraced_job_s) * 1e3, "ms")
        return m

    def write(self, path: str) -> None:
        """Write every kept span, one job per line."""
        with open(path, "w", encoding="utf-8") as f:
            for i, spans in enumerate(self.jobs):
                f.write(json.dumps({"job": i, "spans": spans}) + "\n")
