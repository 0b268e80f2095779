"""``python -m repro sweep``: evaluate one sweep grid, or audit a cache.

Build a grid from comma-separated axes, evaluate it through the
in-process :class:`~repro.sweep.executor.SweepExecutor` (``--jobs``
sizes its process pool) and print the progress line::

    python -m repro sweep --machines paragon:8x8 --dists R,E,Sq \\
        --s 4,8 --L 256 --algorithms Br_Lin,2-Step --seeds 0,1 \\
        --jobs 2 --cache-dir /tmp/sweep-cache

Results land in the content-addressed cache when ``--cache-dir`` is
given, so a rerun (serial or pooled, bit-identical either way) computes
nothing.  ``--verify-cache`` scans such a directory offline instead of
running a sweep.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.errors import ReproError
from repro.sweep.cache import ResultCache
from repro.sweep.executor import SweepExecutor
from repro.sweep.spec import SweepSpec

__all__ = ["main"]


def _csv(text: str) -> List[str]:
    return [item for item in text.split(",") if item]


def build_spec(args: argparse.Namespace) -> SweepSpec:
    """A :class:`SweepSpec` from the CLI's comma-separated axes."""
    return SweepSpec(
        machines=tuple(_csv(args.machines)),
        distributions=tuple(_csv(args.dists)),
        s_values=tuple(int(s) for s in _csv(args.s)),
        message_sizes=tuple(int(size) for size in _csv(args.L)),
        algorithms=tuple(_csv(args.algorithms)),
        seeds=tuple(int(seed) for seed in _csv(args.seeds)),
        contention=not args.no_contention,
        faults=(None,) if args.faults is None else (args.faults,),
        recover=args.recover,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro sweep",
        description="Evaluate a sweep grid, or audit a result cache.",
    )
    parser.add_argument(
        "--verify-cache",
        action="store_true",
        help=(
            "offline integrity scan of --cache-dir: verify every entry's "
            "envelope checksum, quarantine fresh corruption, report "
            "verified/legacy-v1/quarantined counts (exit 1 on fresh "
            "corruption); no sweep is run"
        ),
    )
    parser.add_argument(
        "--machines", default="paragon:10x10", help="comma-separated specs"
    )
    parser.add_argument(
        "--dists", default="E", help="comma-separated distribution keys"
    )
    parser.add_argument("--s", default="30", help="comma-separated source counts")
    parser.add_argument("--L", default="4096", help="comma-separated byte sizes")
    parser.add_argument(
        "--algorithms", default="Br_Lin", help="comma-separated algorithm names"
    )
    parser.add_argument("--seeds", default="0", help="comma-separated run seeds")
    parser.add_argument(
        "--no-contention", action="store_true", help="disable link contention"
    )
    parser.add_argument(
        "--faults", default=None, metavar="SPEC", help="fault-injection axis entry"
    )
    parser.add_argument(
        "--recover", action="store_true", help="run recovery on faulty points"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: $REPRO_SWEEP_JOBS or 1)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="result cache directory (default: no cache)",
    )
    parser.add_argument(
        "--engine",
        choices=("auto", "event", "fast"),
        default="auto",
        help="simulation engine for computed points (default: %(default)s)",
    )
    parser.add_argument(
        "--observe",
        action="store_true",
        help="trace computed points and print the sweep-level roll-up",
    )
    args = parser.parse_args(argv)

    try:
        if args.verify_cache:
            if args.cache_dir is None:
                parser.error("--verify-cache requires --cache-dir")
            audit = ResultCache(args.cache_dir).verify_all()
            print(f"cache audit: {audit.summary()}")
            # Fresh corruption is an exit-worthy finding: something
            # between the last sweep and now damaged stored bytes, and
            # CI (or an operator) should notice even though the cache
            # itself already degraded the damage to a future recompute.
            return 1 if audit.quarantined_now else 0

        points = build_spec(args).points()
        print(f"sweep grid: {len(points)} point(s)")
        executor = SweepExecutor(
            jobs=args.jobs,
            cache=ResultCache(args.cache_dir) if args.cache_dir else None,
            observe=args.observe,
            engine=args.engine,
        )
        executor.run(points)
        print(executor.last_report.summary())
        if args.observe:
            from repro.obs.summary import (
                aggregate_observations,
                render_sweep_rollup,
            )

            print()
            print(render_sweep_rollup(
                aggregate_observations(executor.last_observations)
            ))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main())
