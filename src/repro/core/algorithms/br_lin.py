"""Algorithm Br_Lin (§2): recursive halving on the linear-array view.

The processors are viewed as a linear array (snake-like row-major order
on a mesh, plain rank order elsewhere).  Processors ``P_i`` and
``P_{i+p/2}`` exchange-and-combine when both hold messages, one-way
send when only one does; the algorithm then recurses on both halves —
``ceil(log p)`` iterations in total.

How fast the number of active processors grows depends entirely on
where the sources sit relative to the halving structure, which is the
paper's central observation: a column distribution on a power-of-two
mesh wastes the first ``log(p)/2`` iterations, while the left diagonal
is (nearly) ideal.
"""

from __future__ import annotations

from repro.core.algorithms.base import BroadcastAlgorithm, register
from repro.core.algorithms.common import halving_rounds, initial_holdings_map
from repro.core.problem import BroadcastProblem
from repro.core.schedule import Schedule

__all__ = ["BrLin"]


@register
class BrLin(BroadcastAlgorithm):
    """Recursive halving over the machine's linear order."""

    name = "Br_Lin"
    requires_mesh = False  # the linear view exists on any machine

    def build_schedule(self, problem: BroadcastProblem) -> Schedule:
        order = problem.machine.linear_order()
        holdings = initial_holdings_map(problem, order)
        schedule = Schedule(problem, algorithm=self.name)
        with schedule.span("halving"):
            for idx, sends in enumerate(halving_rounds(order, holdings)):
                schedule.add_round(sends, label=f"halving-{idx}")
        return schedule
