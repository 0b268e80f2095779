"""Measurement primitives shared by every experiment.

Every experiment is a :class:`Plan`: the
:class:`~repro.sweep.spec.SweepPoint`\\ s it needs, plus a ``finish``
function that turns their results, one per point and in point order,
into its :class:`~repro.bench.types.FigureResult`.  Experiments never
evaluate a point themselves: ``python -m repro report`` plans every
selected experiment and evaluates all their points in one call to the
executor its flags pick (a :class:`~repro.sweep.executor.SweepExecutor`
for serial runs and ``--jobs``, :func:`~repro.sweep.distributed.run_sharded`
for ``--shards``), so the result cache and ``--engine`` apply to every
experiment alike.  Every factory-built machine, parameter variants
included, has a canonical spec and therefore ships; a hand-built machine
is rejected by :meth:`SweepPoint.from_problem
<repro.sweep.spec.SweepPoint.from_problem>`.

The paper reports times "obtained over multiple runs and averaged over
four best runs" (§5).  On the simulated Paragon a run is bit-identical
across seeds (identity rank mapping), so one run suffices; on the T3D
the seed draws a new random virtual→physical mapping — production
scheduling — so :func:`seed_points` runs several seeds and
:func:`seed_times` averages the best, mirroring the paper's methodology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from repro.bench.types import FigureResult
from repro.core.problem import BroadcastProblem
from repro.core.runner import BroadcastResult
from repro.machines.machine import Machine
from repro.summation import left_sum
from repro.sweep.spec import SweepPoint

__all__ = ["Plan", "seed_points", "seed_times", "T3D_SEEDS", "T3D_BEST"]

#: Seeds drawn for machines with seed-dependent mappings (the T3D).
T3D_SEEDS = (0, 1, 2, 3, 4)
#: How many of the best runs are averaged (paper: "four best runs").
T3D_BEST = 4

#: One measurement request: a problem and the registry name of the
#: algorithm to time on it.
MeasureItem = Tuple[BroadcastProblem, str]


@dataclass(frozen=True)
class Plan:
    """What one experiment measures, and how it reads the measurements.

    ``finish`` receives the results of ``points``, one per point and in
    point order, and returns the experiment's figure.
    """

    points: List[SweepPoint]
    finish: Callable[[Sequence[BroadcastResult]], FigureResult]


def _seeds_for(machine: Machine) -> Tuple[int, ...]:
    """The run seeds the paper's methodology demands for this machine."""
    return (0,) if machine.topology_stable_ranks else T3D_SEEDS


def seed_points(
    items: Sequence[MeasureItem], *, contention: bool = True
) -> List[SweepPoint]:
    """The per-seed points of every item, item-major.

    Raises
    ------
    ConfigurationError
        If an item's machine has no spec (a hand-built machine).
    """
    return [
        SweepPoint.from_problem(
            problem, algorithm, seed=seed, contention=contention
        )
        for problem, algorithm in items
        for seed in _seeds_for(problem.machine)
    ]


def seed_times(
    items: Sequence[MeasureItem], results: Sequence[BroadcastResult]
) -> List[float]:
    """One completion time in milliseconds per item.

    ``results`` are those of :func:`seed_points` ``(items)``, in order.
    A stable-rank machine's time is its single run; a T3D's is the mean
    of the :data:`T3D_BEST` fastest of its seeds.
    """
    runs = iter(results)
    times = []
    for problem, _algorithm in items:
        times_ms = [next(runs).elapsed_ms for _ in _seeds_for(problem.machine)]
        if len(times_ms) == 1:
            times.append(times_ms[0])
        else:
            best = sorted(times_ms)[:T3D_BEST]
            times.append(left_sum(best) / len(best))
    return times
