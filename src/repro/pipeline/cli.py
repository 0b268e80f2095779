"""Command-line entry point: ``python -m repro report``.

Examples::

    python -m repro report list           # show the experiments
    python -m repro report all            # run everything, emit HTML reports
    python -m repro report fig3 fig13     # two experiments (full grids)
    python -m repro report all --quick    # smoke grids, same pages
    python -m repro report --quick --observe fig3  # + trace roll-up
    python -m repro report all --jobs 4   # evaluate over 4 worker processes
    python -m repro report docs           # regenerate EXPERIMENTS.md/RESULTS.txt
    python -m repro report docs --check   # CI: fail if committed docs drift

Every experiment is described by one ``configs/*.toml`` file.  The
command plans every selected one, evaluates all their sweep points in
one :class:`~repro.sweep.executor.SweepExecutor` call (``--jobs`` sizes
its process pool) and prints each experiment's text report (tables,
shape-check verdicts, notes; ``--observe`` adds its roll-up), then one
progress line saying how many points the cache served and how many
were computed, and writes one HTML page per experiment plus an index.
Each page's link heatmap is kept beside its point in the same cache, so
with a warm cache ``report all`` re-renders the whole paper in seconds
without simulating anything.
"""

from __future__ import annotations

import argparse
import difflib
import pathlib
import sys
from typing import List, Optional, Tuple

from repro.bench.types import FigureResult
from repro.errors import ReproError
from repro.pipeline.docsgen import render_experiments_md, render_results_txt
from repro.pipeline.loader import DEFAULT_CONFIG_DIR, load_config_dir
from repro.pipeline.report import render_experiment_html, render_index_html
from repro.pipeline.runner import plan_experiment
from repro.pipeline.schema import ExperimentConfig
from repro.sweep import DEFAULT_CACHE_DIR, ResultCache, SweepExecutor

__all__ = ["main", "build_executor"]

#: Targets that stand for every config; each must be the only target.
META_TARGETS = ("list", "all", "docs")


def build_executor(
    jobs: Optional[int],
    cache_dir: Optional[str],
    no_cache: bool,
    observe: bool = False,
    engine: str = "auto",
) -> SweepExecutor:
    """Executor for the CLI flags (``--no-cache`` wins over ``--cache-dir``)."""
    cache = None if no_cache or not cache_dir else ResultCache(cache_dir)
    return SweepExecutor(jobs=jobs, cache=cache, observe=observe, engine=engine)


def _run_all(
    configs: List[ExperimentConfig], args, executor: SweepExecutor
) -> List[Tuple[ExperimentConfig, FigureResult]]:
    """Plan every config, evaluate all their points at once, print each."""
    plans = [plan_experiment(config, quick=args.quick) for config in configs]
    results = executor.run([point for plan in plans for point in plan.points])
    observations, report = executor.last_observations, executor.last_report
    entries = []
    start = 0
    for config, plan in zip(configs, plans):
        end = start + len(plan.points)
        result = plan.finish(results[start:end])
        entries.append((config, result))
        print(result.report())
        if args.observe:
            from repro.obs.summary import (
                aggregate_observations,
                render_sweep_rollup,
            )

            aggregate = aggregate_observations(observations[start:end])
            if aggregate["observed"]:
                print(render_sweep_rollup(aggregate))
        print()
        start = end
    if report.total:
        print(report.summary())
    return entries


def _write_reports(
    entries, out_dir: pathlib.Path, quick: bool, cache: Optional[ResultCache]
) -> None:
    """One page per experiment plus the index; ``cache`` keeps the heatmaps.

    Heatmap siblings the cache quarantines while the pages render are
    counted on the closing line, as the ``sweep:`` line counts those of
    the points.
    """
    before = cache.quarantines if cache is not None else 0
    out_dir.mkdir(parents=True, exist_ok=True)
    for config, result in entries:
        page = render_experiment_html(config, result, quick=quick, cache=cache)
        (out_dir / f"{config.id}.html").write_text(page, encoding="utf-8")
    index = render_index_html(entries, quick=quick)
    (out_dir / "index.html").write_text(index, encoding="utf-8")
    line = f"wrote {len(entries)} report page(s) + index to {out_dir}/"
    quarantines = cache.quarantines - before if cache is not None else 0
    if quarantines:
        line += f" (reliability: quarantines={quarantines})"
    print(line)


def _docs(configs, args, executor: SweepExecutor, root: pathlib.Path) -> int:
    """Regenerate (or ``--check``) EXPERIMENTS.md and RESULTS.txt."""
    targets = [(root / "EXPERIMENTS.md", render_experiments_md(configs))]
    if not args.skip_results:
        if args.quick:
            print(
                "error: RESULTS.txt is a full-grid artifact; "
                "drop --quick (or pass --skip-results)",
                file=sys.stderr,
            )
            return 2
        entries = _run_all(configs, args, executor)
        results = [result for _, result in entries]
        targets.append((root / "RESULTS.txt", render_results_txt(results)))
    failures = 0
    for path, text in targets:
        if args.check:
            have = path.read_text(encoding="utf-8") if path.exists() else ""
            if have != text:
                failures += 1
                diff = difflib.unified_diff(
                    have.splitlines(), text.splitlines(),
                    fromfile=f"{path.name} (committed)",
                    tofile=f"{path.name} (regenerated)", lineterm="", n=1,
                )
                print(f"{path.name}: DRIFT from regenerated content")
                for line in list(diff)[:40]:
                    print(f"  {line}")
            else:
                print(f"{path.name}: matches regenerated content")
        else:
            path.write_text(text, encoding="utf-8")
            print(f"wrote {path}")
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    """Run config-driven experiments and emit reports; exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro report",
        description="Reproduce the paper from configs/ into HTML + docs.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=["list"],
        help="experiment ids, or: list | all | docs",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="shrink sweep grids for a fast smoke run",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="sweep worker processes (default: 1)",
    )
    parser.add_argument(
        "--cache-dir", default=str(DEFAULT_CACHE_DIR),
        help="sweep result cache location (default: %(default)s)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the sweep result cache (no reads, no writes)",
    )
    parser.add_argument(
        "--observe", action="store_true",
        help=(
            "trace every computed point and print a per-experiment roll-up "
            "(slowest phase per algorithm x distribution, hottest links); "
            "cache keys are unaffected"
        ),
    )
    parser.add_argument(
        "--engine", choices=("auto", "event", "fast"), default="auto",
        help="simulation engine for computed points (default: %(default)s)",
    )
    parser.add_argument(
        "--out", default="reports/html",
        help="directory for the HTML pages (default: %(default)s)",
    )
    parser.add_argument(
        "--configs", default=None, metavar="DIR",
        help=f"experiment config directory (default: {DEFAULT_CONFIG_DIR})",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="docs target: compare regenerated docs against committed files",
    )
    parser.add_argument(
        "--skip-results", action="store_true",
        help="docs target: only regenerate EXPERIMENTS.md (no experiment runs)",
    )
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    """Run the targets ``args`` name; configuration errors propagate.

    The meta-targets load and validate every config; experiment ids
    parse only their own files.  A meta-target with another target, or
    a docs-only flag (``--check``, ``--skip-results``) with a target
    other than ``docs``, exits 2 before any config is loaded.
    """
    config_dir = pathlib.Path(args.configs) if args.configs else DEFAULT_CONFIG_DIR
    names = list(dict.fromkeys(args.experiments)) or ["list"]
    meta = [n for n in names if n in META_TARGETS]
    if meta and len(names) > 1:
        print(
            f"error: meta-target {meta[0]!r} takes no other target "
            f"(got: {' '.join(names)})",
            file=sys.stderr,
        )
        return 2
    for flag, given in (("--check", args.check),
                        ("--skip-results", args.skip_results)):
        if given and names != ["docs"]:
            print(
                f"error: {flag} applies only to the docs target "
                f"(got: {' '.join(names)})",
                file=sys.stderr,
            )
            return 2

    selected = list(
        load_config_dir(config_dir, ids=None if meta else names).values()
    )
    if names == ["list"]:
        print("config-driven experiments:")
        for config in selected:
            print(f"  {config.id:24s} {config.title}: {config.description}")
        print("meta-targets: all, docs")
        return 0
    # One cache per run: the executor's, which the pages share.
    executor = build_executor(
        args.jobs, args.cache_dir, args.no_cache,
        observe=args.observe, engine=args.engine,
    )
    if names == ["docs"]:
        return _docs(selected, args, executor, config_dir.parent)

    entries = _run_all(selected, args, executor)
    _write_reports(entries, pathlib.Path(args.out), args.quick, executor.cache)
    failed = [c.id for c, r in entries if not r.all_passed]
    if failed:
        print(f"shape checks FAILED for: {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"all shape checks passed ({len(entries)} experiment(s))")
    return 0
