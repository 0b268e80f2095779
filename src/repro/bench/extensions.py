"""Extension experiments: probing beyond the paper's design space.

These are not paper figures — they exercise the extension algorithms
(``Br_Ring``, ``Auto_Predict``) and the hypercube machine, showing the
framework answers questions the paper could not ask.
"""

from __future__ import annotations

from typing import Dict, List

from repro.bench.runner import Plan, seed_points, seed_times
from repro.bench.types import Check, FigureResult, Series
from repro.core.problem import BroadcastProblem
from repro.distributions import DISTRIBUTIONS
from repro.machines import hypercube, paragon, t3d
from repro.summation import left_sum

__all__ = [
    "extension_ring_crossover",
    "extension_auto_portfolio",
    "extension_hypercube",
]


def extension_ring_crossover(quick: bool = False) -> Plan:
    """Br_Ring vs Br_Lin: bandwidth-bound vs overhead-bound regimes.

    The ring moves the information-theoretic minimum bytes per
    processor but pays O(p) rounds of software overhead; halving pays
    O(log p) overheads but roughly doubles the bytes.  The crossover
    message size is therefore machine-dependent: high software cost
    (Paragon) pushes it far right, cheap messaging with expensive
    combining (T3D) pulls it left.
    """
    sizes = [256, 4096, 32768] if quick else [64, 256, 1024, 4096, 16384, 32768, 65536]
    machines = (
        ("Paragon 10x10 (s=30)", paragon(10, 10), 30),
        ("T3D 64 (s=32)", t3d(64), 32),
    )
    items = []
    for _label, machine, s in machines:
        sources = DISTRIBUTIONS["E"].generate(machine, s)
        for L in sizes:
            problem = BroadcastProblem(machine, sources, message_size=L)
            items += [(problem, "Br_Ring"), (problem, "Br_Lin")]

    def finish(results):
        result = FigureResult(
            "Extension: ring crossover",
            "Br_Ring vs Br_Lin across the message-size axis",
        )
        times = seed_times(items, results)
        all_ratios = [ring / lin for ring, lin in zip(times[0::2], times[1::2])]
        ratios: Dict[str, List[float]] = {
            label: all_ratios[i * len(sizes) : (i + 1) * len(sizes)]
            for i, (label, _machine, _s) in enumerate(machines)
        }
        series = Series(
            "Br_Ring time / Br_Lin time (ratio < 1: ring wins)",
            "L (bytes)",
            sizes,
            ratios,
            y_label="ratio",
        )
        result.series.append(series)
        result.checks.append(
            Check(
                "the ring is hopeless on small messages everywhere",
                all(r[0] > 2.0 for r in ratios.values()),
            )
        )
        result.checks.append(
            Check(
                "the ring's relative cost falls as messages grow",
                all(r[-1] < r[0] for r in ratios.values()),
                ", ".join(
                    f"{label}: {r[0]:.1f} -> {r[-1]:.1f}"
                    for label, r in ratios.items()
                ),
            )
        )
        result.checks.append(
            Check(
                "the T3D reaches the crossover before the Paragon",
                ratios["T3D 64 (s=32)"][-1] < ratios["Paragon 10x10 (s=30)"][-1],
            )
        )
        return result

    return Plan(seed_points(items), finish)


def extension_auto_portfolio(quick: bool = False) -> Plan:
    """Auto_Predict vs every fixed portfolio member across a workload mix.

    The model-driven pick should track the per-problem best within the
    prediction error (contention), giving a lower total than any single
    fixed choice over a mixed workload.
    """
    machine = paragon(16, 16)
    workload = [
        ("Cr", 40, 6144),
        ("Sq", 60, 4096),
        ("E", 20, 512),
        ("R", 100, 2048),
    ]
    if not quick:
        workload += [("Dr", 30, 8192), ("B", 75, 6144), ("E", 150, 1024)]
    fixed = ["Br_Lin", "Br_xy_source", "Repos_xy_source"]
    names = [*fixed, "Auto_Predict"]
    labels = []
    items = []
    for key, s, L in workload:
        sources = DISTRIBUTIONS[key].generate(machine, s)
        problem = BroadcastProblem(machine, sources, message_size=L)
        labels.append(f"{key}/s={s}/L={L}")
        items.extend((problem, name) for name in names)

    def finish(results):
        times = seed_times(items, results)
        curves = {name: times[i :: len(names)] for i, name in enumerate(names)}
        totals = {name: left_sum(curves[name]) for name in names}
        series = Series(
            "16x16 Paragon, mixed workload", "case", labels, curves
        )
        result = FigureResult(
            "Extension: predictive portfolio",
            "model-driven selection vs any fixed algorithm",
        )
        result.series.append(series)
        best_fixed = min(totals[name] for name in fixed)
        result.checks.append(
            Check(
                "Auto_Predict beats or matches every fixed choice in total",
                totals["Auto_Predict"] <= 1.05 * best_fixed,
                f"auto {totals['Auto_Predict']:.1f} ms vs best fixed "
                f"{best_fixed:.1f} ms",
            )
        )
        return result

    return Plan(seed_points(items), finish)


def extension_hypercube(quick: bool = False) -> Plan:
    """The paper's algorithms on the related-work architecture.

    On a hypercube, ``Br_Lin``'s halving partners are physical
    neighbours, so its contention essentially disappears while
    ``2-Step`` still serialises at its root — the Paragon ordering,
    cleaner.
    """
    machine = hypercube(64)
    s_values = [8, 32] if quick else [4, 8, 16, 32, 64]
    algos = ["Br_Lin", "2-Step", "PersAlltoAll", "Br_Ring"]
    items = []
    for s in s_values:
        sources = DISTRIBUTIONS["E"].generate(machine, s)
        problem = BroadcastProblem(machine, sources, message_size=4096)
        items.extend((problem, a) for a in algos)

    def finish(results):
        times = seed_times(items, results)
        curves = {a: times[i :: len(algos)] for i, a in enumerate(algos)}
        series = Series("64-node hypercube, L = 4K", "s", s_values, curves)
        result = FigureResult(
            "Extension: hypercube",
            "the algorithm family on the related-work architecture",
        )
        result.series.append(series)
        i = s_values.index(32)
        result.checks.append(
            Check(
                "Br_Lin dominates on its native topology",
                curves["Br_Lin"][i] < min(
                    curves["2-Step"][i],
                    curves["PersAlltoAll"][i],
                    curves["Br_Ring"][i],
                ),
            )
        )
        result.checks.append(
            Check(
                "the root hot spot persists across topologies",
                curves["2-Step"][i] > 1.5 * curves["Br_Lin"][i],
            )
        )
        return result

    return Plan(seed_points(items), finish)
