"""MPI library-collective algorithms: MPI_AllGather and MPI_Alltoall.

These are the paper's "use the existing communication routines"
variants: structurally identical to ``2-Step`` and ``PersAlltoAll``
(§5.1 calls them "the MPI versions"), but issued through the machine's
*library collective* tier:

* on the Paragon that tier is ordinary sends with the measured MPI
  penalty on top — so the MPI versions run slightly behind their NX
  twins (Figure 3);
* on the T3D the tier is the shmem fast path
  (``collective_overhead_scale << 1``), which is why ``MPI_Alltoall``
  — no combining, no waiting, tiny per-message software cost — wins
  there (Figure 13), inverting the Paragon's ordering.
"""

from __future__ import annotations

import math
from typing import List

from repro.core.algorithms.base import BroadcastAlgorithm, register
from repro.core.algorithms.pers_alltoall import build_pers_alltoall_schedule
from repro.core.algorithms.two_step import build_two_step_schedule
from repro.core.problem import BroadcastProblem
from repro.core.schedule import Schedule

__all__ = ["MPIAllGather", "MPIAlltoAll", "build_pipelined_allgather_schedule"]


def build_pipelined_allgather_schedule(
    problem: BroadcastProblem, name: str
) -> Schedule:
    """Vendor-optimised Allgatherv: flat gather + segmented ring broadcast.

    The gather step is the same flat s-to-one of 2-Step, rooted at
    rank 0 — it keeps the congestion at ``P0`` the paper observes
    (§5.3): all contributions serialise on the root's ejection channel
    and receive path.  The broadcast step is a *pipelined ring*: the
    root streams each gathered message, split into
    ``collective_segment_bytes`` segments, along the machine's linear
    order; every rank forwards segment *q* one hop per round.  Gather and broadcast overlap through data-parallel
    synchronisation, so spreading a fixed total over more sources
    shortens the pipeline fill — the Figure-12 effect.
    """
    params = problem.machine.params
    seg_size = params.collective_segment_bytes
    schedule = Schedule(problem, algorithm=name)
    gather = [(src, 0, frozenset((src,))) for src in problem.sources if src != 0]
    with schedule.span("gather"):
        schedule.add_round(gather, label="gatherv", collective=True, mpi=True)
    # The stream of (message set, segment bytes) items the ring carries,
    # in source order (the order Allgatherv concatenates contributions);
    # a message's segments share its one-source set.
    stream: List[tuple] = []
    for src in problem.sources:
        size = problem.size_of(src)
        nseg = max(1, math.ceil(size / seg_size))
        base = size // nseg
        msgset = frozenset((src,))
        for q in range(nseg):
            seg_bytes = base + (size - base * nseg if q == nseg - 1 else 0)
            stream.append((msgset, max(seg_bytes, 1)))
    # The linear order starts at rank 0, the root.
    ring = problem.machine.linear_order()
    edges = list(zip(ring, ring[1:]))  # p-1 forwarding hops, no wrap
    num_items = len(stream)
    num_rounds = num_items + len(edges) - 1
    with schedule.span("ring"):
        for r in range(num_rounds):
            sends = []
            # Edge j forwards stream item r - j, for the items in range.
            for j in range(max(0, r - num_items + 1), min(r + 1, len(edges))):
                u, v = edges[j]
                msgset, seg_bytes = stream[r - j]
                sends.append((u, v, msgset, seg_bytes))
            schedule.add_round(
                sends, label=f"ring-{r}", collective=True, mpi=True
            )
    return schedule


@register
class MPIAllGather(BroadcastAlgorithm):
    """``MPI_Allgatherv`` of the s messages.

    The internal structure follows the machine's
    ``collective_style``: *monolithic* (gather at P0, combine,
    binomial-broadcast the concatenation — the MPICH-reference style
    the Paragon ran) or *pipelined* (flat gather overlapped with a
    segmented ring broadcast — the Cray-optimised style).
    """

    name = "MPI_AllGather"
    requires_mesh = False

    def build_schedule(self, problem: BroadcastProblem) -> Schedule:
        if problem.machine.params.collective_style == "pipelined":
            return build_pipelined_allgather_schedule(problem, self.name)
        return build_two_step_schedule(
            problem, self.name, collective=True, mpi=True
        )

    def schedule_depends_on_sizes(self, problem: BroadcastProblem) -> bool:
        # The pipelined style segments each message by
        # ``collective_segment_bytes``, so round count and transfer
        # byte overrides change with the size table.
        return problem.machine.params.collective_style == "pipelined"


@register
class MPIAlltoAll(BroadcastAlgorithm):
    """``MPI_Alltoallv`` with the s messages personalized to all ranks."""

    name = "MPI_Alltoall"
    requires_mesh = False

    def build_schedule(self, problem: BroadcastProblem) -> Schedule:
        return build_pers_alltoall_schedule(
            problem, self.name, collective=True, mpi=True
        )
