"""Algorithm 2-Step (§2): s-to-one gather followed by a 1-to-p broadcast.

Step 1 gathers every source's message at processor ``P_0`` with direct
sends (this is where the congestion of Figure 2 arises: all ``s``
messages serialise on ``P_0``'s ejection channel and its receive
software path).  Step 2 broadcasts the combined ``s·L`` message with
the one-to-all implementation of [8]: the machine is viewed as a
linear array and the ``Br_Lin`` halving pattern is applied — which,
with a single holder, degenerates into exactly the binomial
``P_i -> P_{i+p/2}``-then-recurse pattern the paper describes.
"""

from __future__ import annotations

from repro.core.algorithms.base import BroadcastAlgorithm, register
from repro.core.algorithms.common import halving_rounds
from repro.core.problem import BroadcastProblem
from repro.core.schedule import Schedule

__all__ = ["TwoStep", "build_two_step_schedule"]


def build_two_step_schedule(
    problem: BroadcastProblem,
    name: str,
    collective: bool = False,
    mpi: bool = False,
) -> Schedule:
    """The gather + broadcast schedule, with configurable overhead mode.

    Shared by the NX ``2-Step`` and its MPI library twin
    ``MPI_AllGather`` (which the paper identifies as the same structure
    inside the vendor collective, §5.3).  The root is rank 0.
    """
    schedule = Schedule(problem, algorithm=name)
    # Step 1: flat gather of the s messages at the root.
    gather = [(src, 0, frozenset((src,))) for src in problem.sources if src != 0]
    with schedule.span("gather"):
        schedule.add_round(gather, label="gather", collective=collective, mpi=mpi)
    # Step 2: one-to-all of the combined message over the linear order.
    order = problem.machine.linear_order()
    all_messages = frozenset(problem.sources)
    empty: frozenset = frozenset()
    holdings = {rank: (all_messages if rank == 0 else empty) for rank in order}
    with schedule.span("bcast"):
        for idx, sends in enumerate(halving_rounds(order, holdings)):
            schedule.add_round(
                sends, label=f"bcast-{idx}", collective=collective, mpi=mpi
            )
    return schedule


@register
class TwoStep(BroadcastAlgorithm):
    """Gather-to-root then one-to-all, over the native (NX) send path."""

    name = "2-Step"
    requires_mesh = False

    def build_schedule(self, problem: BroadcastProblem) -> Schedule:
        return build_two_step_schedule(problem, self.name)
