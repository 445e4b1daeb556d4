"""Batch front door: check packings, solve and report layouts, and run the
boxed-versus-normalized equivalence oracle.

Exit codes: 0 success, 1 verification/solving/equivalence failure, 2 I/O
or usage errors. Output is a pure function of (inputs, flags, seed)."""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from .pipeline import ProgramLayouts, process_adts
from .solver import AnnotationInfeasible
from .syntax import AdtDecl, PackingSyntaxError, parse_program, parse_type
from .targets import BUILTIN_TARGETS, MonoError, Target, UnboxOptions, load_target
from .verify import VerifyError, check_program_decls

if TYPE_CHECKING:
    from .ir import Program

REPORT_VERSION = 1

# the defaults of `layout` and `equiv`
_LAYOUT_DEFAULTS = UnboxOptions()
EQUIV_SEED = 42
EQUIV_PROGRAMS = 500


class UsageError(Exception):
    pass


def _load_sources(paths: list[str]) -> list:
    decls = []
    for p in paths:
        with open(p, "r", encoding="utf-8") as f:
            decls.extend(parse_program(f.read()))
    return decls


def _pick_target(name: Optional[str]) -> Target:
    name = name or os.environ.get("ADTLAYOUT_TARGET") or "x64"
    if name in BUILTIN_TARGETS:
        return BUILTIN_TARGETS[name]
    if os.path.exists(name):
        try:
            return load_target(name)
        except KeyError as e:
            raise UsageError(f"target file {name!r} lacks {e}") from e
        except (ValueError, TypeError, AttributeError) as e:
            raise UsageError(f"malformed target file {name!r}: {e}") from e
    raise UsageError(f"unknown target {name!r}")


# ---------------------------------------------------------------------------
# check, and the front half of layout


def _process(
    files: list[str],
    target: Optional[str],
    instantiate: Optional[list[str]],
    options: UnboxOptions,
    err,
) -> tuple[int, Optional[ProgramLayouts]]:
    """The part of `check` and `layout` before the report: load and verify
    the declarations, then solve every instantiation. Returns the exit
    status and, when it is 0, the layouts; diagnostics go to `err`."""
    try:
        decls = _load_sources(files)
        tgt = _pick_target(target)
    except (OSError, UsageError) as e:
        print(f"error: {e}", file=err)
        return 2, None
    except PackingSyntaxError as e:
        print(f"error: {e}", file=err)
        return 1, None
    requests = None
    if instantiate:
        try:
            requests = [parse_type(s) for s in instantiate]
        except PackingSyntaxError as e:
            print(f"error: {e}", file=err)
            return 2, None
        for d in decls:
            if isinstance(d, AdtDecl) and not d.type_params:
                requests.append(parse_type(d.name))
    packings, diags = check_program_decls([d for d in decls if not isinstance(d, AdtDecl)])
    for d in diags:
        print(str(d), file=err)
    try:
        # annotations are verified per instantiation; without --instantiate
        # those are the non-generic types
        result = process_adts(decls, tgt, requests=requests, options=options, packings=packings)
    except (AnnotationInfeasible, MonoError, VerifyError) as e:
        print(f"error: {e}", file=err)
        return 1, None
    return (1, None) if diags else (0, result)


def cmd_check(files: list[str], target: Optional[str] = None, out=None) -> int:
    out = out if out is not None else sys.stderr
    return _process(files, target, None, UnboxOptions(), out)[0]


# ---------------------------------------------------------------------------
# layout


def _layout_report(result: ProgramLayouts) -> dict:
    adts = []
    for key in result.order:
        r = result.resolved[key]
        entry: dict = {"adt": key, "boxed": r.disposition.boxed, "reason": r.disposition.reason}
        if not r.disposition.boxed:
            entry.update(r.layout.to_json())
        adts.append(entry)
    return {"v": REPORT_VERSION, "adts": adts}


def _format_text_report(report: dict) -> str:
    lines = []
    for entry in report["adts"]:
        lines.append(f"adt {entry['adt']}")
        if entry["boxed"]:
            lines.append(f"  boxed: {entry['reason']}")
            continue
        scalars = ", ".join(
            f"s{i}:{s['kind']}:{s['width']}" + (":ref" if s["ref"] else "")
            for i, s in enumerate(entry["scalars"])
        )
        lines.append(f"  scalars: [{scalars}]")
        scheme = entry["tag_scheme"]
        desc = scheme["kind"]
        if "scalar" in scheme:
            desc += f" s{scheme['scalar']}@{scheme.get('offset', 0)}+{scheme['width']}"
        lines.append(f"  tag: {desc}")
        for v in entry["variants"]:
            pats = " ".join(v["patterns"])
            lines.append(f"  case {v['name']}: {pats}")
            for fname, pl in sorted(v["fields"].items()):
                lines.append(
                    f"    {fname}: s{pl['scalar']} bits {pl['offset']}..{pl['offset'] + pl['width'] - 1}"
                )
        sc = entry["score"]
        lines.append(
            f"  score: scalars={sc['scalars']} access={sc['access_cost']} tag={sc['explicit_tag_cost']}"
        )
        lines.append(f"  steps: {entry['steps']}")
    return "\n".join(lines) + "\n"


def cmd_layout(
    files: list[str],
    target: Optional[str] = None,
    budget: int = _LAYOUT_DEFAULTS.budget,
    unbox_limit: int = _LAYOUT_DEFAULTS.auto_unbox_limit,
    as_json: bool = False,
    instantiate: Optional[list[str]] = None,
    out=None,
    err=None,
) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    options = UnboxOptions(auto_unbox_limit=unbox_limit, budget=budget)
    status, result = _process(files, target, instantiate, options, err)
    if status:
        return status
    report = _layout_report(result)
    if as_json:
        print(json.dumps(report, sort_keys=True), file=out)
    else:
        print(_format_text_report(report), end="", file=out)
    return 0


# ---------------------------------------------------------------------------
# equivalence


class EquivResult(NamedTuple):
    ran: int
    failures: list[str]  # reproducer bundles

    @property
    def ok(self) -> bool:
        return not self.failures


def run_equivalence(
    seed: int,
    count: int,
    mutate_normalized: Optional[Callable[[Program], None]] = None,
) -> EquivResult:
    """Generate `count` programs from the seed and compare boxed evaluation
    against normalized evaluation, traps included; stops at the first
    disagreement. Program i runs on the i-th built-in target, cyclically."""
    # imported here, so that `layout` and `check` never load these modules
    from . import interp, norm, progen, progtext
    from .ir import check_program

    targets = list(BUILTIN_TARGETS.values())
    failures: list[str] = []
    ran = 0
    for i in range(count):
        target = targets[i % len(targets)]
        program, decls = progen.generate_program(f"{seed}:{i}", target)
        check_program(program)
        pre_out = interp.eval_program(program)
        post = norm.normalize_program(program)
        check_program(post)
        if mutate_normalized is not None:
            mutate_normalized(post)
        post_out = interp.eval_program(post)
        ran += 1
        if pre_out != post_out:
            bundle = progtext.print_bundle(
                program,
                decls,
                extra=f"program {i}: boxed={pre_out} normalized={post_out}",
            )
            failures.append(bundle)
            break
    return EquivResult(ran, failures)


def cmd_equiv(
    files: list[str],
    seed: int = EQUIV_SEED,
    programs: int = EQUIV_PROGRAMS,
    out=None,
    err=None,
) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    # named files are checked first so a broken corpus fails fast
    if files:
        status = cmd_check(files, out=err)
        if status != 0:
            return status
    result = run_equivalence(seed, programs)
    if result.ok:
        print(f"equivalence: {result.ran}/{programs} programs agree (seed {seed})", file=out)
        return 0
    print(
        f"equivalence: disagreement after {result.ran} programs (seed {seed})",
        file=out,
    )
    print(result.failures[0], file=out)
    return 1


# ---------------------------------------------------------------------------
# argument parsing


def non_negative_int(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="adtlayout",
        description="check bit-level packings, solve ADT scalar layouts, "
        "and test normalization equivalence",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="verify packing declarations and annotations")
    c.add_argument("files", nargs="+")
    c.add_argument("--target")

    l = sub.add_parser("layout", help="solve and report ADT layouts")
    l.add_argument("files", nargs="+")
    l.add_argument("--target")
    l.add_argument("--budget", type=non_negative_int, default=_LAYOUT_DEFAULTS.budget)
    l.add_argument("--unbox-limit", type=non_negative_int,
                   default=_LAYOUT_DEFAULTS.auto_unbox_limit)
    l.add_argument("--json", action="store_true")
    l.add_argument("--instantiate", action="append", default=None,
                   metavar="Name<args>")

    e = sub.add_parser("equiv", help="boxed vs normalized equivalence oracle")
    e.add_argument("files", nargs="*")
    e.add_argument("--seed", type=int, default=EQUIV_SEED)
    e.add_argument("--programs", type=non_negative_int, default=EQUIV_PROGRAMS)
    return p


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "check":
        return cmd_check(args.files, target=args.target)
    if args.command == "layout":
        return cmd_layout(
            args.files,
            target=args.target,
            budget=args.budget,
            unbox_limit=args.unbox_limit,
            as_json=args.json,
            instantiate=args.instantiate,
        )
    if args.command == "equiv":
        return cmd_equiv(args.files, seed=args.seed, programs=args.programs)
    raise AssertionError(args.command)


if __name__ == "__main__":
    sys.exit(main())
