"""``python -m repro trace``: run one broadcast with full observability.

Runs the given configuration directly (never through the sweep cache —
a tracer cannot ride through worker processes), then prints the
per-phase roll-up and the link-utilization heatmap, and optionally
writes the Chrome trace-event JSON for ``chrome://tracing`` / Perfetto.

Examples::

    python -m repro trace --machine paragon:10x10 --dist Dr --s 10
    python -m repro trace --machine paragon:12x10 --algorithm Br_xy_dim \\
        --s 30 --json out.trace.json
    python -m repro trace --machine t3d:64 --s 16 --faults node:3 --recover
"""

from __future__ import annotations

import argparse
import sys
from typing import List

import repro
from repro.core.selector import recommend
from repro.errors import ReproError
from repro.machines import SPEC_GRAMMAR, machine_from_spec
from repro.obs.chrome import write_chrome_trace
from repro.obs.linkstats import link_usage, render_link_heatmap
from repro.obs.summary import render_rollup, summarize_trace
from repro.simulator.trace import Tracer

__all__ = ["main"]


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="Run one s-to-p broadcast with span/link observability.",
    )
    parser.add_argument(
        "--machine", default="paragon:10x10", help=SPEC_GRAMMAR
    )
    parser.add_argument(
        "--dist",
        default="E",
        help=f"source distribution ({', '.join(repro.list_distributions())})",
    )
    parser.add_argument("--s", type=int, default=30, help="number of sources")
    parser.add_argument("--L", type=int, default=4096, help="message bytes")
    parser.add_argument(
        "--algorithm",
        default=None,
        help="algorithm name (default: the paper's recommendation)",
    )
    parser.add_argument("--seed", type=int, default=0, help="run seed")
    parser.add_argument(
        "--faults", default=None, metavar="SPEC", help="inject faults"
    )
    parser.add_argument(
        "--recover",
        action="store_true",
        help="run the recovery protocol after a faulty run (needs --faults)",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write Chrome trace-event JSON here",
    )
    parser.add_argument(
        "--queue",
        action="store_true",
        help="heatmap shows queue depth instead of busy fraction",
    )
    parser.add_argument(
        "--links",
        type=int,
        default=8,
        help="rows in the link heatmap / hottest-links table",
    )
    args = parser.parse_args(argv)

    try:
        machine = machine_from_spec(args.machine)
        distribution = repro.get_distribution(args.dist)
        sources = distribution.generate(machine, args.s)
        problem = repro.BroadcastProblem(machine, sources, message_size=args.L)
        if args.algorithm is None:
            algorithm = recommend(problem).algorithm
            print(f"algorithm (recommended): {algorithm}")
        else:
            algorithm = args.algorithm
            print(f"algorithm: {algorithm}")
        tracer = Tracer()
        result = repro.run_broadcast(
            problem,
            algorithm,
            seed=args.seed,
            tracer=tracer,
            faults=args.faults,
            recover=args.recover and args.faults is not None,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    label = (
        f"{args.machine} {args.dist} s={args.s} L={args.L} "
        f"{result.algorithm} seed={args.seed}"
    )
    print(f"machine:    {machine.params.name}, p = {machine.p}")
    print(f"time:       {result.elapsed_ms:.3f} ms")
    if result.faults_active:
        print(f"faults:     {'; '.join(result.faults_active)}")
        print(f"delivery:   {result.delivery * 100.0:.1f}%")
    summary = summarize_trace(
        tracer, topology=machine.topology, k_links=args.links
    )
    print()
    print(render_rollup(summary))
    usage = link_usage(tracer, topology=machine.topology)
    print()
    print(
        render_link_heatmap(
            usage, topology=machine.topology, k=args.links, queue=args.queue
        )
    )
    if args.json is not None:
        trace = write_chrome_trace(
            args.json, tracer, topology=machine.topology, label=label
        )
        print()
        print(
            f"wrote {args.json}: {len(trace['traceEvents'])} events "
            f"(schema {trace['otherData']['schema']})"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
