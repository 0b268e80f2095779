"""The experiments no declarative series can express (§4, §5).

Most of the paper's evaluation is described by ``configs/*.toml`` and
planned by :mod:`repro.pipeline.runner`.  The three experiments here
stay imperative and are named by their configs' ``builder =`` strings:
Figure 1 draws placement art, Figure 2 tabulates single-run metric
counters, and the §5 varied-lengths study draws per-source sizes.  Each
returns a :class:`~repro.bench.runner.Plan`.  The functions are
deterministic; ``quick=True`` shrinks the sweep grids for smoke testing
(the shape checks are chosen to hold in both modes).
"""

from __future__ import annotations

import math
from typing import Dict, List

from repro.bench.runner import Plan, seed_points, seed_times
from repro.bench.types import Check, FigureResult, Series
from repro.core.analysis import figure2_row
from repro.core.problem import BroadcastProblem
from repro.distributions import DISTRIBUTIONS
from repro.distributions.ascii_art import render_placement
from repro.machines import paragon
from repro.sweep.spec import SweepPoint

__all__ = ["fig01", "fig02", "sec5_varied_lengths"]


def fig01(quick: bool = False) -> Plan:
    """Figure 1: placement of 30 sources in row/cross/right-diagonal.

    Regenerated as ASCII grids (the paper's dots-on-a-mesh picture);
    the checks verify the structural facts the figure shows.  Nothing
    is measured: the plan has no points.
    """
    machine = paragon(10, 10)
    result = FigureResult(
        "Figure 1", "placement of 30 sources on a 10x10 mesh"
    )
    for key in ("R", "Cr", "Dr"):
        dist = DISTRIBUTIONS[key]
        ranks = dist.generate(machine, 30)
        result.notes.append(
            "\n" + render_placement(machine, ranks, title=dist.name)
        )
    row = DISTRIBUTIONS["R"].generate(machine, 30)
    rows_used = {r // 10 for r in row}
    result.checks.append(
        Check(
            "R(30) occupies 3 evenly spaced full rows",
            rows_used == {0, 3, 6},
            f"rows {sorted(rows_used)}",
        )
    )
    diag = DISTRIBUTIONS["Dr"].generate(machine, 30)
    per_row = [sum(1 for r in diag if r // 10 == i) for i in range(10)]
    result.checks.append(
        Check(
            "Dr(30) puts 3 sources in every row",
            all(v == 3 for v in per_row),
            f"per-row {per_row}",
        )
    )
    cross = DISTRIBUTIONS["Cr"].generate(machine, 30)
    full_rows = [
        i for i in range(10) if sum(1 for r in cross if r // 10 == i) == 10
    ]
    result.checks.append(
        Check("Cr(30) contains two full rows", len(full_rows) == 2)
    )
    return Plan([], lambda _results: result)


def fig02(quick: bool = False) -> Plan:
    """Figure 2 (table): measured vs analytic algorithm/distribution
    parameters on the equal distribution of a p = 2^k machine.

    Runs 2-Step, PersAlltoAll and Br_Lin on a 16x16 Paragon (p = 256)
    and checks that the measured counters scale the way the table's
    O-forms say — congestion linear in s for 2-Step and constant for
    the others, #send/rec O(p) vs O(log p), and Br_Lin's s = 2^l
    activity-growth penalty.
    """
    machine = paragon(16, 16)
    p = machine.p
    s_lo, s_hi = 16, 32  # both powers of two: the table's s = 2^l row
    names = ("2-Step", "PersAlltoAll", "Br_Lin")
    grid = [
        (name, s, BroadcastProblem(
            machine, DISTRIBUTIONS["E"].generate(machine, s), message_size=1024
        ))
        for name in names
        for s in (s_lo, s_hi, 15)
    ]

    def finish(runs):
        result = FigureResult(
            "Figure 2",
            "algorithm vs distribution parameters, equal distribution, p = 256",
        )
        measured: Dict[str, Dict[int, Dict[str, float]]] = {n: {} for n in names}
        for (name, s, _problem), run in zip(grid, runs):
            measured[name][s] = run.metrics.as_dict()
        params = ["congestion", "wait", "send_recv", "av_msg_lgth", "av_act_proc"]
        for s in (s_lo, s_hi):
            series = Series(
                title=f"measured parameters at s = {s} (L = 1K)",
                x_label="param",
                x_values=params,
                curves={
                    name: [measured[name][s][k] for k in params]
                    for name in measured
                },
                y_label="counter value",
            )
            result.series.append(series)
        two = measured["2-Step"]
        result.checks.append(
            Check(
                "2-Step congestion is O(s): doubles when s doubles",
                1.6 <= two[s_hi]["congestion"] / two[s_lo]["congestion"] <= 2.4,
                f"{two[s_lo]['congestion']} -> {two[s_hi]['congestion']}",
            )
        )
        pers = measured["PersAlltoAll"]
        result.checks.append(
            Check(
                "PersAlltoAll congestion is O(1) in s",
                pers[s_hi]["congestion"] == pers[s_lo]["congestion"] <= 2,
            )
        )
        result.checks.append(
            Check(
                "PersAlltoAll #send/rec is O(p)",
                p - 1 <= pers[s_lo]["send_recv"] <= 2 * p,
                f"{pers[s_lo]['send_recv']} vs p = {p}",
            )
        )
        lin = measured["Br_Lin"]
        logp = math.ceil(math.log2(p))
        result.checks.append(
            Check(
                "Br_Lin #send/rec is O(log p)",
                lin[s_lo]["send_recv"] <= 3 * logp,
                f"{lin[s_lo]['send_recv']} vs 3*log p = {3 * logp}",
            )
        )
        result.checks.append(
            Check(
                "Br_Lin wait cost is O(log p), higher than the others' O(1)",
                lin[s_lo]["wait"] > max(two[s_lo]["wait"], 1),
                f"Br_Lin {lin[s_lo]['wait']} vs 2-Step {two[s_lo]['wait']}",
            )
        )
        result.checks.append(
            Check(
                "Br_Lin at s != 2^l activates processors faster than s = 2^l",
                lin[15]["av_act_proc"] >= lin[16]["av_act_proc"] * 0.98,
                f"s=15: {lin[15]['av_act_proc']:.1f}, s=16: {lin[16]['av_act_proc']:.1f}",
            )
        )
        for name in ("2-Step", "PersAlltoAll", "Br_Lin"):
            row = figure2_row(name, p, s_lo, 1024)
            result.notes.append(f"analytic {row.algorithm}: {row.as_dict()}")
        return result

    return Plan(
        [SweepPoint.from_problem(problem, name) for name, _s, problem in grid],
        finish,
    )


def sec5_varied_lengths(quick: bool = False) -> Plan:
    """§5 (text): non-uniform message lengths do not reorder anything.

    "In our experiments, using different length messages did not
    influence the performance of the algorithms significantly.  In
    particular, for a given algorithm, a good distribution remains a
    good distribution when the length of messages varies."

    We re-run the Figure-6 distribution sweep with per-source sizes
    drawn uniformly from [L/2, 3L/2] (same expected total) and check
    that (a) times move only modestly and (b) the good/bad ordering of
    distributions is preserved per algorithm.
    """
    import numpy as np

    machine = paragon(10, 10)
    keys = ["R", "Dr", "E", "Sq", "Cr"] if quick else ["R", "C", "Dr", "Dl", "E", "B", "Sq", "Cr"]
    algos = ["Br_Lin", "Br_xy_source"]
    L = 2048
    rng = np.random.default_rng(7)
    pairs = []
    for key in keys:
        sources = DISTRIBUTIONS[key].generate(machine, 30)
        sizes = {
            rank: int(rng.integers(L // 2, 3 * L // 2 + 1)) for rank in sources
        }
        uniform = BroadcastProblem(machine, sources, message_size=L)
        varied = BroadcastProblem(
            machine, sources, message_size=L, sizes=sizes
        )
        for a in algos:
            pairs.append((f"{a} (uniform)", (uniform, a)))
            pairs.append((f"{a} (varied)", (varied, a)))
    items = [item for _label, item in pairs]

    def finish(results):
        result = FigureResult(
            "Sec 5 varied lengths",
            "non-uniform message lengths preserve the distribution ordering",
        )
        times = seed_times(items, results)
        curves: Dict[str, List[float]] = {}
        for a in algos:
            curves[f"{a} (uniform)"] = []
            curves[f"{a} (varied)"] = []
        for (label, _item), t in zip(pairs, times):
            curves[label].append(t)
        series = Series(
            "10x10 Paragon, s = 30, L ~ U[1K, 3K] vs uniform 2K",
            "distribution",
            keys,
            curves,
        )
        result.series.append(series)
        for a in algos:
            uniform = curves[f"{a} (uniform)"]
            varied = curves[f"{a} (varied)"]
            # Ordering preserved up to ties: every decisively ordered pair
            # (>15% apart under uniform sizes) keeps its order when sizes
            # vary.  Near-ties may legitimately shuffle.
            inversions = []
            for i, ki in enumerate(keys):
                for j, kj in enumerate(keys):
                    if uniform[i] > 1.15 * uniform[j] and varied[i] < varied[j]:
                        inversions.append((ki, kj))
            result.checks.append(
                Check(
                    f"{a}: decisively good/bad distributions keep their order",
                    not inversions,
                    f"inversions: {inversions}" if inversions else "none",
                )
            )
            rel = max(
                abs(u - v) / u for u, v in zip(uniform, varied)
            )
            result.checks.append(
                Check(
                    f"{a}: times move only modestly (< 25%)",
                    rel < 0.25,
                    f"max shift {100 * rel:.1f}%",
                )
            )
        return result

    return Plan(seed_points(items), finish)
