"""Top-level CLI: run one s-to-p broadcast from the command line.

Examples::

    python -m repro --machine paragon:10x10 --dist Dr --s 30 --L 4096
    python -m repro --machine t3d:128 --algorithm MPI_Alltoall --s 40
    python -m repro --machine paragon:16x16 --dist Sq --s 49 --timeline
    python -m repro --machine paragon:12x10 --algorithm Br_xy_dim --s 12 \\
        --trace-json out.trace.json

Every run simulates directly through :func:`repro.run_broadcast`.
``--trace-json PATH`` captures a full trace: after the summary lines
the command prints the per-phase roll-up (the slowest phase marked
``<- slowest``) and the link-utilization heatmap (``--queue`` shows
queue depth, ``--links N`` sets its rows), and writes the Chrome
trace-event JSON for ``chrome://tracing`` / Perfetto to ``PATH``.

Subcommands: ``python -m repro sweep`` evaluates whole grids through
the memoizing sweep executor — serial or pooled (``--jobs``, see
:mod:`repro.sweep.cli`); ``python -m repro chaos`` runs the fault
campaigns (``--io`` points them at the result cache's storage);
``python -m repro report`` reproduces the paper from
``configs/*.toml`` into self-contained HTML reports and regenerates
EXPERIMENTS.md/RESULTS.txt (see :mod:`repro.pipeline.cli`).
"""

from __future__ import annotations

import argparse
import sys
from typing import List

import repro
from repro.core.selector import recommend
from repro.distributions.ascii_art import render_placement
from repro.errors import ReproError
from repro.machines import SPEC_GRAMMAR, machine_from_spec
from repro.metrics.timeline import render_timeline
from repro.simulator.trace import Tracer

__all__ = ["main"]

#: Default rows of the ``--trace-json`` link heatmap.
DEFAULT_LINKS = 8


def main(argv: List[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "chaos":
        from repro.faults.chaos import main as chaos_main

        return chaos_main(argv[1:])
    if argv and argv[0] == "sweep":
        from repro.sweep.cli import main as sweep_main

        return sweep_main(argv[1:])
    if argv and argv[0] == "report":
        from repro.pipeline.cli import main as report_main

        return report_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run one s-to-p broadcast on a simulated MPP.",
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
        "--faults",
        default=None,
        metavar="SPEC",
        help=(
            "inject faults, e.g. 'link:(2,3)-(2,4)@500us;node:17' or "
            "'degrade:links=0.25,factor=4' (grammar in EXPERIMENTS.md)"
        ),
    )
    parser.add_argument(
        "--recover",
        action="store_true",
        help="run the recovery protocol after a faulty run (needs --faults)",
    )
    parser.add_argument(
        "--show-sources", action="store_true", help="render the placement"
    )
    parser.add_argument(
        "--timeline", action="store_true", help="render the activity timeline"
    )
    parser.add_argument(
        "--trace-json",
        default=None,
        metavar="PATH",
        help=(
            "capture a full trace: print the phase roll-up and the link "
            "heatmap, and write Chrome trace-event JSON here"
        ),
    )
    parser.add_argument(
        "--queue",
        action="store_true",
        help="heatmap shows queue depth instead of busy fraction "
        "(needs --trace-json)",
    )
    parser.add_argument(
        "--links",
        type=int,
        default=None,
        metavar="N",
        help=(
            "rows in the link heatmap / hottest-links table "
            f"(default: {DEFAULT_LINKS}; needs --trace-json)"
        ),
    )
    parser.add_argument(
        "--engine",
        choices=("auto", "event", "fast"),
        default="auto",
        help=(
            "simulation engine: auto picks the vectorized fast path for "
            "runs without faults or recovery (traced or not) and the "
            "event engine otherwise; results are bit-identical either "
            "way (default: %(default)s)"
        ),
    )
    args = parser.parse_args(argv)
    if args.trace_json is None:
        # Without a trace there is no heatmap for them to shape.
        for flag, given in (("--queue", args.queue),
                            ("--links", args.links is not None)):
            if given:
                print(f"error: {flag} needs --trace-json", file=sys.stderr)
                return 2
    links = DEFAULT_LINKS if args.links is None else args.links

    try:
        machine = machine_from_spec(args.machine)
        distribution = repro.get_distribution(args.dist)
        sources = distribution.generate(machine, args.s)
        problem = repro.BroadcastProblem(machine, sources, message_size=args.L)
        if args.algorithm is None:
            rec = recommend(problem)
            algorithm = rec.algorithm
            print(f"algorithm (recommended): {algorithm}")
        else:
            algorithm = args.algorithm
            print(f"algorithm: {algorithm}")
        if args.show_sources:
            print(render_placement(machine, sources, title="sources"))
        if args.trace_json is not None:
            tracer = Tracer()  # full capture: spans + kernel + fabric
        elif args.timeline:
            tracer = Tracer(kinds=("send", "recv"))
        else:
            tracer = None
        result = repro.run_broadcast(
            problem, algorithm, seed=args.seed, tracer=tracer,
            faults=args.faults,
            recover=args.recover and args.faults is not None,
            engine=args.engine,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    debug = result.debug
    engine = (
        f"fast (plan-cache={debug['plan_cache']})"
        if debug["engine"] == "fast"
        else "event"
    )
    print(f"machine:    {machine.params.name}, p = {machine.p}")
    print(f"problem:    s = {problem.s}, L = {args.L} bytes "
          f"({distribution.name} distribution)")
    print(f"engine:     {engine}")
    print(f"time:       {result.elapsed_ms:.3f} ms")
    if result.faults_active:
        print(f"faults:     {'; '.join(result.faults_active)}")
        print(f"delivery:   {result.delivery * 100.0:.1f}%"
              + ("" if result.complete else "  (PARTIAL)"))
    if result.recovered is not None:
        print(
            f"recovery:   {'complete' if result.recovered else 'INCOMPLETE'} "
            f"({result.recovery_rounds} round(s), "
            f"{result.recovery_time_us / 1000.0:.3f} ms)"
        )
    print(f"rounds:     {result.num_rounds}")
    print(f"messages:   {result.num_transfers}")
    metrics = result.metrics
    print(
        "figure-2:   "
        f"congestion={metrics.congestion} wait={metrics.wait_count} "
        f"send_recv={metrics.send_recv_ops} "
        f"av_msg_lgth={metrics.av_msg_lgth:.0f} "
        f"av_act_proc={metrics.av_act_proc:.1f}"
    )
    if args.timeline:
        print()
        print(render_timeline(tracer, p=machine.p))
    if args.trace_json is not None:
        from repro.obs import (
            link_usage,
            render_link_heatmap,
            render_rollup,
            summarize_trace,
            write_chrome_trace,
        )

        topology = machine.topology
        trace = write_chrome_trace(
            args.trace_json,
            tracer,
            topology=topology,
            label=(
                f"{args.machine} {args.dist} s={args.s} L={args.L} "
                f"{result.algorithm} seed={args.seed}"
            ),
        )
        print(
            f"trace:      {args.trace_json} "
            f"({len(trace['traceEvents'])} events, "
            f"schema {trace['otherData']['schema']})"
        )
        print()
        print(render_rollup(
            summarize_trace(tracer, topology=topology, k_links=links)
        ))
        print()
        print(render_link_heatmap(
            link_usage(tracer, topology=topology),
            topology=topology, k=links, queue=args.queue,
        ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
