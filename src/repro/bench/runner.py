"""Measurement primitives shared by every experiment.

The paper reports times "obtained over multiple runs and averaged over
four best runs" (§5).  On the simulated Paragon a run is bit-identical
across seeds (identity rank mapping), so one run suffices; on the T3D
the seed draws a new random virtual→physical mapping — production
scheduling — so :func:`measure_batch` runs several seeds and averages
the best, mirroring the paper's methodology.

Every measurement is a :class:`~repro.sweep.spec.SweepPoint` evaluated
by the installed :class:`~repro.sweep.executor.SweepExecutor`
(:func:`active_executor`): experiments batch their whole grid into one
call, the executor fans the points out over worker processes
(``--jobs`` / ``$REPRO_SWEEP_JOBS``) on the engine ``--engine`` names
and memoizes results in the on-disk cache.  The default executor is
serial and uncached, so library behaviour without explicit
configuration is byte-identical to a plain serial loop.  Every
factory-built machine, parameter variants included, has a canonical
spec and therefore ships; a hand-built machine is rejected by
:meth:`SweepPoint.from_problem <repro.sweep.spec.SweepPoint.from_problem>`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core.problem import BroadcastProblem
from repro.machines.machine import Machine
from repro.sweep.executor import SweepExecutor
from repro.sweep.spec import SweepPoint

__all__ = [
    "measure_batch",
    "active_executor",
    "use_executor",
    "T3D_SEEDS",
    "T3D_BEST",
]

#: Seeds drawn for machines with seed-dependent mappings (the T3D).
T3D_SEEDS = (0, 1, 2, 3, 4)
#: How many of the best runs are averaged (paper: "four best runs").
T3D_BEST = 4

#: One measurement request: a problem and the registry name of the
#: algorithm to time on it.
MeasureItem = Tuple[BroadcastProblem, str]

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


def measure_batch(
    items: Sequence[MeasureItem], *, contention: bool = True
) -> List[float]:
    """Completion times in milliseconds for a whole grid of measurements.

    The workhorse of every figure: all items expand into per-seed
    :class:`~repro.sweep.spec.SweepPoint`\\ s and go through the active
    executor in **one** batch — maximum fan-out, one cache pass — then
    collapse back to the paper's best-seeds average per item.  Returns
    one value per item, in order.

    Raises
    ------
    ConfigurationError
        If an item's machine has no spec (a hand-built machine).
    """
    seeds = [_seeds_for(problem.machine) for problem, _ in items]
    points = [
        SweepPoint.from_problem(
            problem, algorithm, seed=seed, contention=contention
        )
        for (problem, algorithm), item_seeds in zip(items, seeds)
        for seed in item_seeds
    ]
    results = iter(active_executor().run(points))
    return [
        _aggregate_ms([next(results).elapsed_ms for _ in item_seeds])
        for item_seeds in seeds
    ]
