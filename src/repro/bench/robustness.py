"""Robustness bench: algorithm behaviour under injected faults.

Not a paper figure — the paper's machines were measured healthy — but
the question its operators lived with: *how much slower does each
broadcasting algorithm get when the fabric degrades, and does it still
deliver?*  Three conditions per algorithm on one Paragon submesh:

* **baseline** — the perfect fabric;
* **link-fail** — one central wire cut at t=0; dimension-order routes
  crossing it take the BFS detour, so delivery must stay complete and
  the cost shows up as added contention on the surviving links;
* **degrade** — a seeded 25% of links at 4x per-byte cost, the
  "congested half-working machine" regime;
* **node-fail** — one non-source corner node dead at t=0: its rank can
  never deliver, and whatever the schedule routed *through* it stalls,
  so delivery drops below 1;
* **node-fail+recover** — the same schedule followed by the recovery
  protocol (:func:`repro.core.recovery.run_recovery`): surviving ranks
  gossip delivery bitmaps and re-serve what is missing, which must
  bring every live rank back to complete delivery (63/64 of the total
  — the dead rank itself is unrecoverable).  Its slowdown cell charges
  the *total* time to that state: primary run plus recovery.

Every run is a :class:`~repro.sweep.spec.SweepPoint` carrying its fault
spec and recovery flag, in the :class:`~repro.bench.runner.Plan` the
builder returns: the cells are cached like any other point, and
``--engine`` applies (``fast`` cannot inject faults and is refused).  Runs are
seeded and deterministic, so the table is exactly reproducible from the
fault-spec strings it prints.
"""

from __future__ import annotations

from typing import Dict, List

from repro.bench.runner import Plan
from repro.bench.types import Check, FigureResult, Series
from repro.core.problem import BroadcastProblem
from repro.distributions import DISTRIBUTIONS
from repro.machines import paragon
from repro.sweep.spec import SweepPoint

__all__ = ["robustness_faults"]

#: The Br_* family the tentpole targets, plus the two schedule shapes
#: (gather/broadcast and balanced all-to-all) they are measured against.
_ALGORITHMS = ("Br_Lin", "Br_xy_source", "Br_xy_dim", "2-Step", "PersAlltoAll")

#: One central vertical wire of the 8x8 mesh: every row-major
#: dimension-order route between the mesh halves that crosses column 3
#: at row 3 rides it, so cutting it exercises the detour machinery hard.
_LINK_FAIL = "link:(3,3)-(3,4)@0us"
_DEGRADE = "degrade:links=0.25,factor=4"

#: The far corner node of the 8x8 mesh, dead from t=0.  Node 63 maps to
#: rank 63 under the default seed-0 mapping and the E distribution never
#: places a source there (at s=8 or s=16), so exactly one non-source
#: rank is lost: max achievable delivery is 63/64.
_NODE_FAIL = "node:63@0us"


def robustness_faults(quick: bool = False) -> Plan:
    """Slowdown and delivery of each algorithm under injected faults."""
    machine = paragon(8, 8)
    s = 8 if quick else 16
    L = 1024 if quick else 4096
    sources = DISTRIBUTIONS["E"].generate(machine, s)
    problem = BroadcastProblem(machine, sources, message_size=L)
    algorithms = _ALGORITHMS[:3] if quick else _ALGORITHMS

    conditions = (
        "baseline", "link-fail", "degrade", "node-fail", "node-fail+recover"
    )
    specs = (None, _LINK_FAIL, _DEGRADE, _NODE_FAIL, _NODE_FAIL)
    recover_flags = (False, False, False, False, True)
    points = [
        SweepPoint.from_problem(problem, algorithm, faults=spec, recover=recover)
        for algorithm in algorithms
        for spec, recover in zip(specs, recover_flags)
    ]

    def finish(results):
        result = FigureResult(
            "Robustness: faults",
            f"Br_* slowdown under link failure vs degradation "
            f"(Paragon 8x8, s={s}, L={L})",
        )
        slowdowns: Dict[str, List[float]] = {}
        deliveries: Dict[str, List[float]] = {}
        recoveries: Dict[str, bool] = {}
        runs = iter(results)
        for algorithm in algorithms:
            base_ms = None
            slowdowns[algorithm] = []
            deliveries[algorithm] = []
            for recover in recover_flags:
                run = next(runs)
                if base_ms is None:
                    base_ms = run.elapsed_ms
                # The recovery cell charges the total time to the recovered
                # state: primary run plus the recovery protocol itself.
                total_ms = run.elapsed_ms + run.recovery_time_us / 1000.0
                slowdowns[algorithm].append(total_ms / base_ms)
                deliveries[algorithm].append(run.delivery)
                if recover:
                    recoveries[algorithm] = bool(run.recovered)
        result.series.append(
            Series(
                "completion time relative to the healthy fabric",
                "condition",
                list(conditions),
                slowdowns,
                y_label="slowdown (x)",
            )
        )
        result.series.append(
            Series(
                "fraction of (rank, message) deliveries achieved",
                "condition",
                list(conditions),
                deliveries,
                y_label="delivery",
            )
        )

        result.checks.append(
            Check(
                "a single link failure never breaks delivery (detours exist)",
                all(d[1] == 1.0 for d in deliveries.values()),
                ", ".join(f"{a}: {d[1]:.2f}" for a, d in deliveries.items()),
            )
        )
        result.checks.append(
            Check(
                "degraded links slow every algorithm down",
                all(s[2] > 1.0 for s in slowdowns.values()),
                ", ".join(f"{a}: {s[2]:.2f}x" for a, s in slowdowns.items()),
            )
        )
        result.checks.append(
            Check(
                "degradation still delivers everything (slow, not broken)",
                all(d[2] == 1.0 for d in deliveries.values()),
            )
        )
        result.checks.append(
            Check(
                "a detoured single link failure costs less than 4x-degrading "
                "a quarter of the machine",
                all(s[1] < s[2] for s in slowdowns.values()),
                ", ".join(
                    f"{a}: {s[1]:.2f}x vs {s[2]:.2f}x" for a, s in slowdowns.items()
                ),
            )
        )
        result.checks.append(
            Check(
                "recovery restores every surviving rank (delivery = 63/64)",
                all(d[4] == 63.0 / 64.0 for d in deliveries.values()),
                ", ".join(f"{a}: {d[4]:.4f}" for a, d in deliveries.items()),
            )
        )
        result.checks.append(
            Check(
                "recovery reports completeness and never loses ground",
                all(recoveries.values())
                and all(d[4] >= d[3] for d in deliveries.values()),
                ", ".join(
                    f"{a}: {d[3]:.4f} -> {d[4]:.4f}"
                    for a, d in deliveries.items()
                ),
            )
        )
        result.notes.append(f"link-fail spec: {_LINK_FAIL}")
        result.notes.append(f"degrade spec:   {_DEGRADE}")
        result.notes.append(f"node-fail spec: {_NODE_FAIL}")
        result.notes.append(
            "deterministic: same spec + seed reproduces every cell bit-exactly"
        )
        return result

    return Plan(points, finish)
