"""CLI for the perf suite: ``python -m repro.perf``.

Examples::

    python -m repro.perf                         # full suite -> BENCH_simcore.json
    python -m repro.perf --quick                 # CI smoke subset
    python -m repro.perf --only route            # name-substring filter
    python -m repro.perf --compare               # vs benchmarks/perf_baseline.json
    python -m repro.perf --compare old.json --tolerance 0.10

``--compare`` exits non-zero when any common benchmark regresses by
more than the tolerance (calibration-normalized; see
:func:`repro.perf.suite.compare_reports`).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.perf.suite import (
    DEFAULT_TOLERANCE,
    compare_reports,
    load_report,
    run_suite,
    write_report,
)

__all__ = ["main"]

#: The committed baseline ``--compare`` defaults to.
DEFAULT_BASELINE = Path("benchmarks") / "perf_baseline.json"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Run the simulator perf-regression suite.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke subset: skips the 16x16 points (same workloads)",
    )
    parser.add_argument(
        "--only", metavar="SUBSTR", help="run only benchmarks whose name contains SUBSTR"
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default="BENCH_simcore.json",
        help="report output path (default: %(default)s)",
    )
    parser.add_argument(
        "--compare",
        metavar="BASELINE",
        nargs="?",
        const=str(DEFAULT_BASELINE),
        default=None,
        help=(
            "compare the fresh run against a baseline report and fail on "
            f"regression (default baseline: {DEFAULT_BASELINE})"
        ),
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed normalized slowdown before failing (default: %(default)s)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=1,
        help=(
            "re-measure regressed benchmarks this many times before "
            "failing, to rule out transient machine noise (default: "
            "%(default)s)"
        ),
    )
    args = parser.parse_args(argv)

    report = run_suite(
        quick=args.quick,
        only=args.only,
        progress=lambda name: print(f"  bench {name} ...", flush=True),
    )
    out = write_report(report, args.out)
    print(f"wrote {out} ({len(report['benchmarks'])} benchmarks)")
    for bench_dict in report["benchmarks"]:
        eps = bench_dict.get("events_per_s")
        extra_txt = f"  {eps:>12.0f} events/s" if eps else ""
        extra = bench_dict.get("extra", {})
        if "replay_s" in extra:
            # Fast-path rows: warm replay is the gated wall_s; show how
            # much the plan cache shaves off a cold (lower + replay) run.
            extra_txt += (
                f"  [replay {extra['replay_s']:.4f}s"
                f" + lowering {extra['lowering_s']:.4f}s"
                f" = cold {extra['cold_s']:.4f}s]"
            )
        print(
            f"  {bench_dict['name']:<44} "
            f"{bench_dict['wall_s']:>9.4f}s{extra_txt}"
        )

    if args.compare is None:
        return 0
    baseline_path = Path(args.compare)
    if not baseline_path.exists():
        print(f"baseline {baseline_path} not found", file=sys.stderr)
        return 2
    baseline_report = load_report(baseline_path)
    comparison = compare_reports(
        report, baseline_report, tolerance=args.tolerance
    )
    print()
    print(comparison.format_table())
    if not comparison.rows:
        print("no common benchmarks to compare", file=sys.stderr)
        return 2

    # A shared/virtualized runner can hit a slow phase for one whole
    # suite pass; a *code* regression reproduces on an independent
    # re-measurement (with its own calibration), noise usually doesn't.
    suspects = [r.name for r in comparison.regressions]
    for attempt in range(args.retries):
        if not suspects:
            break
        print(
            f"re-measuring {len(suspects)} regressed benchmark(s) "
            f"(attempt {attempt + 1}/{args.retries}) ...",
            flush=True,
        )
        still = []
        for name in suspects:
            retry = run_suite(quick=args.quick, only=name)
            verdict = compare_reports(
                retry, baseline_report, tolerance=args.tolerance
            )
            if any(r.regressed for r in verdict.rows):
                still.append(name)
        suspects = still
    if suspects:
        print(f"PERF REGRESSION: {', '.join(suspects)}", file=sys.stderr)
        return 1
    if comparison.regressions:
        print("initial regressions did not reproduce; treating as noise")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main())
