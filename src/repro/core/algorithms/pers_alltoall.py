"""Algorithm PersAlltoAll (§2): personalized all-to-all exchange.

Each source views its message as ``p - 1`` distinct copies and the
machine performs a personalized all-to-all: ``p - 1`` permutation
rounds, generated — following the coarse-grained mesh library of [8] —
by the exclusive-or of processor indices when ``p`` is a power of two,
and by cyclic offsets otherwise.  Non-sources have only "null messages"
to contribute and send nothing (everyone knows the source positions, so
no rank waits for a null).

No combining ever happens: every round moves original ``L``-byte
messages.  That gives the algorithm Figure 2's profile — O(1)
congestion and wait, but O(p) sends per source — which is fatal on the
Paragon's expensive software path and a *win* on the T3D, where
``MPI_AlltoAll``'s fast collective tier turns the same structure into
the best performer (Figure 13).
"""

from __future__ import annotations

from typing import Tuple

from repro.core.algorithms.base import BroadcastAlgorithm, register
from repro.core.problem import BroadcastProblem
from repro.core.schedule import Schedule
from repro.errors import CommError

__all__ = [
    "PersAlltoAll",
    "build_pers_alltoall_schedule",
    "xor_or_cyclic_partner",
]


def xor_or_cyclic_partner(
    rank: int, size: int, round_index: int
) -> Tuple[int, int]:
    """``(dest, source)`` partners for one personalized-exchange round.

    Power-of-two groups use the XOR permutations of [8] (dest == source
    each round); other sizes fall back to cyclic offsets.  Either way
    every round is a permutation, so each rank sends and receives at
    most one message per round (one-ported in the sense of Träff,
    arXiv 2008.12144).  ``round_index`` runs from 1 to ``size - 1``.
    """
    if not 1 <= round_index < size:
        raise CommError(f"round index {round_index} outside [1, {size})")
    if size & (size - 1) == 0:
        partner = rank ^ round_index
        return partner, partner
    return (rank + round_index) % size, (rank - round_index) % size


def build_pers_alltoall_schedule(
    problem: BroadcastProblem,
    name: str,
    collective: bool = False,
    mpi: bool = False,
) -> Schedule:
    """The ``p - 1`` permutation rounds, with configurable overhead mode.

    Shared by the NX ``PersAlltoAll`` and the vendor-collective
    ``MPI_Alltoall``.
    """
    schedule = Schedule(problem, algorithm=name)
    p = problem.p
    with schedule.span("perm"):
        for k in range(1, p):
            sends = []
            for src in problem.sources:
                dst, _ = xor_or_cyclic_partner(src, p, k)
                if dst != src:
                    sends.append((src, dst, frozenset((src,))))
            schedule.add_round(
                sends, label=f"perm-{k}", collective=collective, mpi=mpi
            )
    return schedule


@register
class PersAlltoAll(BroadcastAlgorithm):
    """Personalized exchange over the native (NX) send path."""

    name = "PersAlltoAll"
    requires_mesh = False

    def build_schedule(self, problem: BroadcastProblem) -> Schedule:
        return build_pers_alltoall_schedule(problem, self.name)
