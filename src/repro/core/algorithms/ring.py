"""Algorithm Br_Ring — a pipelined-ring extension (not in the paper).

The natural bandwidth-optimal alternative to recursive halving: view
the machine as a ring over the linear (snake) order and let every
source's message travel around it, one hop per round, all messages
pipelined.  Each processor receives exactly ``s`` messages of size
``L`` — total received bytes are the information-theoretic minimum
``s·L`` (Br_Lin moves ~2x that through each processor) — at the price
of O(p) rounds of per-message software overhead.

This is the paper's design space probed from the other end: where
``Br_Lin`` minimises rounds (log p) and pays in message growth,
``Br_Ring`` minimises bytes and pays in round count.  The extension
bench (``configs/22-extension-ring.toml``) shows the crossover:
``Br_Ring`` wins when messages are large relative to the per-message
overhead (bandwidth-bound regime), loses on overhead-bound problems —
and the crossover sits at much smaller L on the T3D than the Paragon.
"""

from __future__ import annotations

from typing import List

from repro.core.algorithms.base import BroadcastAlgorithm, register
from repro.core.problem import BroadcastProblem
from repro.core.algorithms.common import Send
from repro.core.schedule import Schedule

__all__ = ["BrRing"]


@register
class BrRing(BroadcastAlgorithm):
    """All source messages pipelined around the linear-order ring."""

    name = "Br_Ring"
    requires_mesh = False

    def build_schedule(self, problem: BroadcastProblem) -> Schedule:
        schedule = Schedule(problem, algorithm=self.name)
        order = problem.machine.linear_order()
        p = len(order)
        if p == 1:
            return schedule
        position = {rank: idx for idx, rank in enumerate(order)}
        # Message m starts at its source's ring position and must travel
        # p - 1 hops (wrapping) to visit everyone.  In round r, message m
        # crosses its (r - start_offset)-th hop; messages never collide
        # on an edge in the same round because each edge carries at most
        # one message per round only if sources are distinct positions —
        # multiple messages *can* share an edge in a round, which the
        # executor's FIFO matching handles and the fabric charges.
        rounds: List[List[Send]] = [[] for _ in range(p - 1)]
        for src_rank in problem.sources:
            start = position[src_rank]
            for hop in range(p - 1):
                u = order[(start + hop) % p]
                v = order[(start + hop + 1) % p]
                rounds[hop].append((u, v, frozenset((src_rank,))))
        with schedule.span("ring"):
            for idx, sends in enumerate(rounds):
                schedule.add_round(sends, label=f"ring-{idx}")
        return schedule
