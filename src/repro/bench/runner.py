"""Measurement primitives shared by every experiment.

The paper reports times "obtained over multiple runs and averaged over
four best runs" (§5).  On the simulated Paragon a run is bit-identical
across seeds (identity rank mapping), so one run suffices; on the T3D
the seed draws a new random virtual→physical mapping — production
scheduling — so :func:`measure_problem` runs several seeds and averages
the best, mirroring the paper's methodology.

Every measurement routes through a
:class:`~repro.sweep.executor.SweepExecutor`: experiments batch their
whole grid into one :func:`measure_batch` call, the executor fans the
points out over worker processes (``--jobs`` / ``$REPRO_SWEEP_JOBS``)
and memoizes results in the on-disk cache.  The default executor is
serial and uncached, so library behaviour without explicit
configuration is byte-identical to a plain serial loop.

Problems whose machine has no canonical spec (custom parameters — the
ablations) and algorithm *instances* (rather than registry names) cannot
be shipped to worker processes; they fall back to direct in-process
evaluation on the active executor's engine.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.algorithms.base import BroadcastAlgorithm
from repro.core.problem import BroadcastProblem
from repro.core.runner import BroadcastResult, run_broadcast
from repro.machines.machine import Machine
from repro.sweep.executor import SweepExecutor
from repro.sweep.spec import SweepPoint

__all__ = [
    "measure_problem",
    "measure_batch",
    "run_batch",
    "active_executor",
    "use_executor",
    "T3D_SEEDS",
    "T3D_BEST",
]

#: Seeds drawn for machines with seed-dependent mappings (the T3D).
T3D_SEEDS = (0, 1, 2, 3, 4)
#: How many of the best runs are averaged (paper: "four best runs").
T3D_BEST = 4

Algorithm = Union[str, BroadcastAlgorithm]
#: One measurement request: a problem and the algorithm to time on it.
MeasureItem = Tuple[BroadcastProblem, Algorithm]

#: Executor installed by :func:`use_executor`; ``None`` means "build a
#: fresh default" (serial unless ``$REPRO_SWEEP_JOBS`` says otherwise,
#: no cache) per batch.
_installed_executor: Optional[SweepExecutor] = None


def active_executor() -> SweepExecutor:
    """The executor measurements currently route through."""
    if _installed_executor is not None:
        return _installed_executor
    return SweepExecutor()


@contextmanager
def use_executor(executor: SweepExecutor) -> Iterator[SweepExecutor]:
    """Route all measurements inside the ``with`` body through ``executor``.

    This is how ``python -m repro report`` wires ``--jobs`` /
    ``--cache-dir`` / ``--no-cache`` / ``--engine`` into the measurements
    without threading an argument through every experiment signature.
    """
    global _installed_executor
    previous = _installed_executor
    _installed_executor = executor
    try:
        yield executor
    finally:
        _installed_executor = previous


def _seeds_for(machine: Machine) -> Tuple[int, ...]:
    """The run seeds the paper's methodology demands for this machine."""
    return (0,) if machine.topology_stable_ranks else T3D_SEEDS


def _aggregate_ms(times_ms: List[float]) -> float:
    """Average of the best runs (single-seed machines: the one run)."""
    if len(times_ms) == 1:
        return times_ms[0]
    best = sorted(times_ms)[:T3D_BEST]
    return sum(best) / len(best)


def _measure_direct(
    problem: BroadcastProblem, algorithm: Algorithm, contention: bool,
    engine: str,
) -> float:
    """In-process fallback for problems the executor cannot ship."""
    times = [
        run_broadcast(
            problem, algorithm, seed=seed, contention=contention,
            engine=engine,
        ).elapsed_ms
        for seed in _seeds_for(problem.machine)
    ]
    return _aggregate_ms(times)


def measure_batch(
    items: Sequence[MeasureItem], *, contention: bool = True
) -> List[float]:
    """Completion times in milliseconds for a whole grid of measurements.

    The workhorse of every figure: all sweep-able items expand into
    per-seed :class:`~repro.sweep.spec.SweepPoint`\\ s and go through the
    active executor in **one** batch — maximum fan-out, one cache pass —
    then collapse back to the paper's best-seeds average per item.
    Returns one value per item, in order.
    """
    points: List[SweepPoint] = []
    # Per item: (start, count) into ``points``, or None = direct fallback.
    plan: List[Optional[Tuple[int, int]]] = []
    for problem, algorithm in items:
        if problem.machine.spec is not None and isinstance(algorithm, str):
            seeds = _seeds_for(problem.machine)
            plan.append((len(points), len(seeds)))
            points.extend(
                SweepPoint.from_problem(
                    problem, algorithm, seed=seed, contention=contention
                )
                for seed in seeds
            )
        else:
            plan.append(None)

    executor = active_executor()
    results: List[BroadcastResult] = executor.run(points) if points else []

    out: List[float] = []
    for (problem, algorithm), entry in zip(items, plan):
        if entry is None:
            out.append(
                _measure_direct(problem, algorithm, contention, executor.engine)
            )
        else:
            start, count = entry
            out.append(
                _aggregate_ms(
                    [r.elapsed_ms for r in results[start : start + count]]
                )
            )
    return out


def run_batch(
    items: Sequence[MeasureItem],
    *,
    seed: int = 0,
    contention: bool = True,
) -> List[BroadcastResult]:
    """Full :class:`BroadcastResult`\\ s (metrics included) for a grid.

    Single-seed semantics — the metric-table experiments (Figure 2) want
    counters from one deterministic run, not a seed average.  Items the
    executor cannot ship are evaluated directly.
    """
    points: List[SweepPoint] = []
    slots: List[Optional[int]] = []
    for problem, algorithm in items:
        if problem.machine.spec is not None and isinstance(algorithm, str):
            slots.append(len(points))
            points.append(
                SweepPoint.from_problem(
                    problem, algorithm, seed=seed, contention=contention
                )
            )
        else:
            slots.append(None)
    executor = active_executor()
    results = executor.run(points) if points else []
    return [
        results[slot]
        if slot is not None
        else run_broadcast(
            problem, algorithm, seed=seed, contention=contention,
            engine=executor.engine,
        )
        for (problem, algorithm), slot in zip(items, slots)
    ]


def measure_problem(
    problem: BroadcastProblem,
    algorithm: Algorithm,
    *,
    contention: bool = True,
) -> float:
    """Completion time in milliseconds, averaged over the best seeds."""
    return measure_batch([(problem, algorithm)], contention=contention)[0]
