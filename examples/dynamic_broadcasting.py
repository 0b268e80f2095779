#!/usr/bin/env python3
"""Dynamic broadcasting: the paper's §1 motivating workload.

"In iterative algorithms, processors may initiate a broadcast when
their own computations have led to a significant change in data values
stored at other processors. ... In dynamic broadcasting the
distribution of the sources is often random."

This example simulates an iterative computation on a 16x16 Paragon:
each outer iteration, a random subset of processors discovers
significant updates and the machine performs an s-to-p broadcast of the
update records.  Four strategies run the identical workload, each as
one :func:`repro.run_broadcast` call per iteration:

* the uncoordinated flood §2 warns about (``Naive_Independent``),
* a fixed good algorithm (``Br_Lin``),
* the paper's §5.2 selector, re-evaluated every iteration
  (``recommend(problem).algorithm``),
* predictive selection over a portfolio: one ``Auto_Predict`` instance
  runs the closed-form model of :mod:`repro.core.predict` over its
  candidates and keeps the best prediction — a what-if search that
  would be far too expensive with real broadcasts.

Run:  python examples/dynamic_broadcasting.py
"""

from __future__ import annotations

import numpy as np

import repro
from repro.core.algorithms.auto import AutoPredict
from repro.core.predict import predict_broadcast_time
from repro.core.selector import recommend
from repro.distributions import RandomDistribution

ITERATIONS = 8
UPDATE_BYTES = 4096
PORTFOLIO = ("Br_Lin", "Br_xy_source", "Repos_xy_source", "Br_Ring")


def build_workload(machine: "repro.Machine"):
    """The per-iteration problems — identical for every strategy."""
    rng = np.random.default_rng(42)
    workload = []
    for _ in range(ITERATIONS):
        s = int(rng.choice([4, 8, 16, 32, 64, 120]))
        sources = RandomDistribution(seed=int(rng.integers(1 << 30))).generate(
            machine, s
        )
        workload.append(
            repro.BroadcastProblem(machine, sources, message_size=UPDATE_BYTES)
        )
    return workload


def main() -> None:
    machine = repro.paragon(16, 16)
    workload = build_workload(machine)
    predictive = AutoPredict(portfolio=PORTFOLIO)

    strategies = {
        "flood": lambda problem: "Naive_Independent",
        "fixed Br_Lin": lambda problem: "Br_Lin",
        "§5.2 selector": lambda problem: recommend(problem).algorithm,
        "predictive": lambda problem: predictive,
    }
    runs = {
        name: [repro.run_broadcast(p, pick(p)) for p in workload]
        for name, pick in strategies.items()
    }
    totals = {
        name: sum(result.elapsed_ms for result in results)
        for name, results in runs.items()
    }

    names = list(strategies)
    print(f"{'iter':>4}{'s':>5}" + "".join(f"{n:>16}" for n in names))
    for i, problem in enumerate(workload):
        row = "".join(f"{runs[n][i].elapsed_ms:>16.2f}" for n in names)
        print(f"{i:>4}{problem.s:>5}{row}")
    print("-" * (9 + 16 * len(names)))
    print(f"{'total':>9}" + "".join(f"{totals[n]:>16.2f}" for n in names))

    print()
    used = dict.fromkeys(r.algorithm for r in runs["§5.2 selector"])
    print(f"the selector switched between: {', '.join(used)}")
    best = min(totals.values())
    print(
        f"the uncoordinated flood costs {totals['flood'] / best:.1f}x the best "
        "adaptive strategy over the whole run."
    )
    print()
    print(
        f"dynamic broadcasting session: {ITERATIONS} rounds, "
        f"strategy=predictive, total {totals['predictive']:.2f} ms"
    )
    for i, (problem, result) in enumerate(zip(workload, runs["predictive"])):
        predicted_ms = predict_broadcast_time(problem, predictive) / 1000.0
        print(
            f"  round {i}: s={problem.s} L={problem.message_size} "
            f"-> {result.algorithm} in {result.elapsed_ms:.2f} ms "
            f"(predicted {predicted_ms:.2f})"
        )


if __name__ == "__main__":
    main()
