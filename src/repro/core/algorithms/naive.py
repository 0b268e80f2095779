"""The uncoordinated baseline §2 warns about: independent 1-to-p broadcasts.

"Another possible implementation ... is to allow each source processor
to initiate its own 1-to-p broadcast, independent of the location and
number of source processors. ... having the s broadcasting processes
take place without interaction and coordination leads to poor
performance due to arising congestion and the large number of messages
in the system."

Each source runs a binomial broadcast rooted at itself; all ``s`` trees
run simultaneously and never combine messages, so the network carries
``s`` independent message floods — the congestion ablation the paper
motivates but does not plot.  Included as a baseline for the
dynamic-broadcasting example and the congestion benches.
"""

from __future__ import annotations

from typing import List

from repro.core.algorithms.base import BroadcastAlgorithm, register
from repro.core.algorithms.common import Send
from repro.core.problem import BroadcastProblem
from repro.core.schedule import Schedule

__all__ = ["NaiveIndependent"]


@register
class NaiveIndependent(BroadcastAlgorithm):
    """s simultaneous, uncoordinated binomial 1-to-p broadcasts."""

    name = "Naive_Independent"
    requires_mesh = False

    def build_schedule(self, problem: BroadcastProblem) -> Schedule:
        schedule = Schedule(problem, algorithm=self.name)
        p = problem.p
        stages = max(p - 1, 0).bit_length()  # ceil(log2 p)
        with schedule.span("flood"):
            for stage in range(stages):
                span = 1 << stage
                sends: List[Send] = []
                for root in problem.sources:
                    # Virtual ranks relative to the root: [0, span) already
                    # hold the message and feed [span, 2*span).
                    for vsrc in range(span):
                        vdst = vsrc + span
                        if vdst >= p:
                            break
                        src = (vsrc + root) % p
                        dst = (vdst + root) % p
                        sends.append((src, dst, frozenset((root,))))
                schedule.add_round(sends, label=f"flood-{stage}")
        return schedule
