"""Ablation experiments for the design choices DESIGN.md §5 calls out.

Each ablation removes one modelling ingredient and shows that a
paper-level phenomenon disappears — evidence that the ingredient, not
an accident of calibration, produces the effect.
"""

from __future__ import annotations

from typing import Dict, List

from repro.bench.runner import Plan, seed_points, seed_times
from repro.bench.types import Check, FigureResult, Series
from repro.core.ideal import best_line_positions, ideal_row_sources
from repro.core.problem import BroadcastProblem
from repro.core.structure import estimate_halving_time
from repro.distributions import DISTRIBUTIONS
from repro.machines import machine_from_spec, paragon, t3d
from repro.machines.paragon import PARAGON_PARAMS
from repro.machines.t3d import T3D_PARAMS

__all__ = [
    "ablation_contention",
    "ablation_mapping",
    "ablation_combining",
    "ablation_ideal_rows",
    "ablation_switching",
]


def ablation_contention(quick: bool = False) -> Plan:
    """Link contention is what sinks the uncoordinated flood of §2.

    "Having the s broadcasting processes take place without interaction
    and coordination leads to poor performance due to arising
    congestion and the large number of messages in the system."
    Disabling the path-reservation model makes the naive independent
    broadcasts look almost fine — the congestion penalty is the model's
    doing, while the coordinated ``Br_Lin`` barely notices contention.
    (2-Step's hot spot, by contrast, lives in the root's *receive path*
    and survives this ablation — see the bench output.)
    """
    machine = paragon(10, 10)
    s_values = [10, 40] if quick else [10, 20, 40, 80]
    algorithms = (("Naive", "Naive_Independent"), ("Br_Lin", "Br_Lin"))
    items = []
    for s in s_values:
        sources = DISTRIBUTIONS["E"].generate(machine, s)
        problem = BroadcastProblem(machine, sources, message_size=16384)
        items.extend((problem, name) for _label, name in algorithms)
    on_points = seed_points(items, contention=True)

    def finish(results):
        on = seed_times(items, results[: len(on_points)])
        off = seed_times(items, results[len(on_points) :])
        curves: Dict[str, List[float]] = {}
        for i, (label, _name) in enumerate(algorithms):
            curves[f"{label} (contention)"] = on[i :: len(algorithms)]
            curves[f"{label} (no contention)"] = off[i :: len(algorithms)]
        series = Series(
            "10x10 Paragon, L = 16K, equal distribution",
            "s",
            s_values,
            curves,
        )
        result = FigureResult(
            "Ablation: contention",
            "path reservation produces the uncoordinated-flood congestion",
        )
        result.series.append(series)
        i = s_values.index(40)
        slowdown_naive = curves["Naive (contention)"][i] / curves[
            "Naive (no contention)"
        ][i]
        slowdown_lin = curves["Br_Lin (contention)"][i] / curves[
            "Br_Lin (no contention)"
        ][i]
        result.checks.append(
            Check(
                "contention hurts the uncoordinated flood far more than Br_Lin",
                slowdown_naive > slowdown_lin + 0.5,
                f"Naive {slowdown_naive:.2f}x vs Br_Lin {slowdown_lin:.2f}x",
            )
        )
        result.checks.append(
            Check(
                "without contention the flood looks deceptively competitive",
                curves["Naive (no contention)"][i]
                < 0.6 * curves["Naive (contention)"][i],
            )
        )
        return result

    return Plan(on_points + seed_points(items, contention=False), finish)


def ablation_mapping(quick: bool = False) -> Plan:
    """Identity vs random rank mapping on the T3D torus.

    With an identity mapping, the snake-order ``Br_Lin`` regains
    locality; the random production mapping is what levels the field —
    the reason the paper runs only topology-oblivious algorithms there.
    """
    placed = machine_from_spec("t3d:64+mapping=identity")
    production = t3d(64)
    s_values = [8, 32] if quick else [8, 16, 32, 64]
    items = []
    for s in s_values:
        sources = DISTRIBUTIONS["E"].generate(production, s)
        items.extend(
            (BroadcastProblem(machine, sources, message_size=4096), "Br_Lin")
            for machine in (placed, production)
        )

    def finish(results):
        times = seed_times(items, results)
        curves = {
            "Br_Lin (identity)": times[0::2], "Br_Lin (random)": times[1::2]
        }
        series = Series("64-proc T3D, L = 4K", "s", s_values, curves)
        result = FigureResult(
            "Ablation: mapping",
            "random placement removes Br_Lin's locality advantage",
        )
        result.series.append(series)
        worse = [
            r / i
            for r, i in zip(curves["Br_Lin (random)"], curves["Br_Lin (identity)"])
        ]
        result.checks.append(
            Check(
                "random mapping never helps Br_Lin",
                all(w >= 0.98 for w in worse),
                f"slowdowns {['%.2f' % w for w in worse]}",
            )
        )
        return result

    return Plan(seed_points(items), finish)


def ablation_combining(quick: bool = False) -> Plan:
    """Zeroing the memory-copy cost rescues Br_Lin on the T3D.

    §5.3 blames Br_Lin's T3D loss on "the cost of combining messages";
    with ``t_mem_byte = 0`` the loss to MPI_Alltoall shrinks or flips.
    """
    normal = t3d(128)
    free_copy = t3d(128, params=T3D_PARAMS.with_overrides(t_mem_byte=0.0))
    s_values = [20, 40] if quick else [10, 20, 40, 80]
    items = []
    for s in s_values:
        sources = DISTRIBUTIONS["E"].generate(normal, s)
        for machine in (normal, free_copy):
            problem = BroadcastProblem(machine, sources, message_size=4096)
            items += [(problem, "Br_Lin"), (problem, "MPI_Alltoall")]

    def finish(results):
        times = seed_times(items, results)
        ratios = [
            t_lin / t_a2a for t_lin, t_a2a in zip(times[0::2], times[1::2])
        ]
        curves = {
            "Br_Lin / Alltoall (full combine cost)": ratios[0::2],
            "Br_Lin / Alltoall (free combining)": ratios[1::2],
        }
        series = Series(
            "128-proc T3D, L = 4K: Br_Lin time / MPI_Alltoall time",
            "s",
            s_values,
            curves,
            y_label="ratio",
        )
        result = FigureResult(
            "Ablation: combining cost",
            "the memcpy/combine charge is what sinks Br_Lin on the T3D",
        )
        result.series.append(series)
        i = s_values.index(40)
        result.checks.append(
            Check(
                "removing combine cost closes most of Br_Lin's gap",
                curves["Br_Lin / Alltoall (free combining)"][i]
                < 0.6 * curves["Br_Lin / Alltoall (full combine cost)"][i],
                f"{curves['Br_Lin / Alltoall (full combine cost)'][i]:.2f} -> "
                f"{curves['Br_Lin / Alltoall (free combining)'][i]:.2f}",
            )
        )
        return result

    return Plan(seed_points(items), finish)


def ablation_ideal_rows(quick: bool = False) -> Plan:
    """Searched row placement vs naive even spacing (the R(20) story).

    On a 10-row machine the evenly spaced rows {0, 5} are halving
    partners; the searched placement avoids the pairing and the
    estimator (and the simulated Br_Lin column phase) confirm the win.
    The search returns rows {0, 1}, not the paper's {0, 6}: it keeps
    the lexicographically first of the 24 of 45 row pairs that tie at
    the estimator's minimum, 419.264 ({0, 6} ties too; {0, 5} scores
    523.712).
    """
    # End-to-end confirmation on the simulated machine.
    machine = paragon(10, 10)
    even_rows = [0, 5]
    even_sources = tuple(
        r * 10 + c for r in even_rows for c in range(10)
    )
    items = [
        (BroadcastProblem(machine, sources, message_size=4096), "Br_xy_source")
        for sources in (even_sources, ideal_row_sources(machine, 20))
    ]

    def finish(results):
        result = FigureResult(
            "Ablation: ideal row placement",
            "machine-dimension-aware placement beats naive even spacing",
        )
        rows_cases = [(10, 2), (10, 3), (12, 3)] if quick else [
            (10, 2),
            (10, 3),
            (10, 5),
            (12, 3),
            (14, 4),
            (16, 4),
        ]
        labels = []
        curves: Dict[str, List[float]] = {"searched": [], "even": []}
        for n, k in rows_cases:
            labels.append(f"{k} rows of {n}")
            searched = best_line_positions(n, k)
            even = tuple((j * n) // k for j in range(k))
            curves["searched"].append(estimate_halving_time(n, searched))
            curves["even"].append(estimate_halving_time(n, even))
        series = Series(
            "structural completion estimate of the column phase",
            "case",
            labels,
            curves,
            y_label="estimated time (us)",
        )
        result.series.append(series)
        result.checks.append(
            Check(
                "searched placement never loses to even spacing",
                all(
                    s <= e + 1e-9
                    for s, e in zip(curves["searched"], curves["even"])
                ),
            )
        )
        result.checks.append(
            Check(
                "strict win exists (the paper's 10-row R(20) case)",
                curves["searched"][0] < curves["even"][0],
                f"{curves['searched'][0]:.0f} vs {curves['even'][0]:.0f} us",
            )
        )
        t_even, t_searched = seed_times(items, results)
        result.checks.append(
            Check(
                "simulated Br_xy_source confirms the placement win",
                t_searched <= t_even,
                f"searched {t_searched:.2f} ms vs even {t_even:.2f} ms",
            )
        )
        return result

    return Plan(seed_points(items), finish)


def ablation_switching(quick: bool = False) -> Plan:
    """Wormhole vs store-and-forward switching (pre-history of the paper).

    Both of the paper's machines are wormhole-routed, which makes
    distance nearly free (additive ``t_hop`` per hop).  Re-running the
    Paragon experiments with store-and-forward routers — where a
    message's wire time multiplies by its hop count — shows how much
    the algorithms' distance profiles would have mattered a hardware
    generation earlier: every algorithm slows, and ``2-Step`` — whose
    gather hauls every message across the whole mesh — degrades the
    most, while the neighbour-hop halving patterns of ``Br_Lin`` and
    ``Br_xy_source`` degrade in step with their shorter paths.
    """
    wormhole = paragon(10, 10)
    saf = paragon(
        10, 10, params=PARAGON_PARAMS.with_overrides(switching="store_and_forward")
    )
    algos = ["Br_Lin", "Br_xy_source", "2-Step"]
    s_values = [10, 30] if quick else [10, 30, 60]
    labelled = []
    for s in s_values:
        sources = DISTRIBUTIONS["E"].generate(wormhole, s)
        for name in algos:
            for label, machine in (
                (f"{name} (wormhole)", wormhole),
                (f"{name} (store&fwd)", saf),
            ):
                problem = BroadcastProblem(machine, sources, message_size=4096)
                labelled.append((label, (problem, name)))
    items = [item for _label, item in labelled]

    def finish(results):
        times = seed_times(items, results)
        curves: Dict[str, List[float]] = {}
        for (label, _item), t in zip(labelled, times):
            curves.setdefault(label, []).append(t)
        series = Series(
            "10x10 Paragon, L = 4K, equal distribution", "s", s_values, curves
        )
        result = FigureResult(
            "Ablation: switching",
            "wormhole routing is what makes distance nearly free",
        )
        result.series.append(series)
        i = s_values.index(30)

        def slowdown(name: str) -> float:
            return curves[f"{name} (store&fwd)"][i] / curves[f"{name} (wormhole)"][i]

        result.checks.append(
            Check(
                "store-and-forward hurts every algorithm",
                all(slowdown(name) > 1.1 for name in algos),
                ", ".join(f"{name} {slowdown(name):.2f}x" for name in algos),
            )
        )
        result.checks.append(
            Check(
                "2-Step's cross-machine gather degrades most",
                slowdown("2-Step")
                > max(slowdown("Br_Lin"), slowdown("Br_xy_source")) + 0.3,
                f"2-Step {slowdown('2-Step'):.2f}x vs Br_* "
                f"{max(slowdown('Br_Lin'), slowdown('Br_xy_source')):.2f}x",
            )
        )
        return result

    return Plan(seed_points(items), finish)
