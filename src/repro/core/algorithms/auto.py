"""Auto_Predict — model-driven algorithm selection (extension).

Where the paper's §5.2 selector applies three fixed rules,
``Auto_Predict`` runs the closed-form critical-path model
(:mod:`repro.core.predict`) over a candidate portfolio and compiles the
schedule with the best *predicted* completion time for this exact
(machine, distribution, s, L).  Because schedule construction and
prediction are engine-free, the what-if search costs microseconds of
real time per candidate.

The portfolio spans the paper's recommendation space: the three Br_*
algorithms, repositioning, and the two library collectives (so the
right answer is available on both machine families).
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.core.algorithms.base import (
    BroadcastAlgorithm,
    get_algorithm,
    register,
)
from repro.core.problem import BroadcastProblem
from repro.core.schedule import Schedule
from repro.errors import AlgorithmError

__all__ = ["AutoPredict"]

#: Candidate portfolio; mesh-only members are skipped off-mesh.
DEFAULT_PORTFOLIO: Tuple[str, ...] = (
    "Br_Lin",
    "Br_xy_source",
    "Repos_xy_source",
    "Br_Ring",
    "MPI_AllGather",
    "MPI_Alltoall",
)


@register
class AutoPredict(BroadcastAlgorithm):
    """Compile every candidate, predict, keep the winner's schedule."""

    name = "Auto_Predict"
    requires_mesh = False

    def __init__(self, portfolio: Sequence[str] = DEFAULT_PORTFOLIO) -> None:
        self.portfolio = tuple(portfolio)

    def build_schedule(self, problem: BroadcastProblem) -> Schedule:
        from repro.core.predict import predict_schedule_time  # avoid cycle

        best_schedule: Schedule | None = None
        best_time = float("inf")
        best_name = ""
        for name in self.portfolio:
            candidate = get_algorithm(name)
            if not candidate.supports(problem.machine):
                continue
            schedule = candidate.build_schedule(problem)
            predicted = predict_schedule_time(schedule)
            if predicted < best_time:
                best_schedule, best_time, best_name = schedule, predicted, name
        if best_schedule is None:
            raise AlgorithmError(
                f"no algorithm of the portfolio {self.portfolio} can run on "
                f"{problem.machine!r}"
            )
        best_schedule.algorithm = f"{self.name}[{best_name}]"
        return best_schedule
