"""Raw per-rank, per-iteration communication counters.

The communication layer calls :meth:`MetricsCollector.record_send` /
:meth:`record_recv` on every message; the schedule executor advances
the *iteration* index so counters can be bucketed the way the paper's
Figure 2 defines its parameters (congestion is *per iteration*,
``av_act_proc`` averages *over iterations*, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Set

__all__ = ["RankCounters", "MetricsCollector"]


@dataclass
class RankCounters:
    """Counters for a single rank.

    ``per_iter_ops`` maps iteration index → number of send+receive
    operations the rank performed in that iteration (the congestion
    bucket); ``msg_bytes`` totals the byte length of every message the
    rank sent or received.
    """

    sends: int = 0
    recvs: int = 0
    bytes_sent: int = 0
    recv_wait_time: float = 0.0
    recv_wait_count: int = 0
    link_wait_time: float = 0.0
    copy_time: float = 0.0
    per_iter_ops: Dict[int, int] = field(default_factory=dict)
    msg_bytes: int = 0

    @property
    def total_ops(self) -> int:
        """Total sends plus receives (the paper's #send/rec)."""
        return self.sends + self.recvs

    def max_ops_in_one_iteration(self) -> int:
        """Largest send+receive count in any single iteration."""
        return max(self.per_iter_ops.values(), default=0)


class MetricsCollector:
    """Accumulates counters for all ``p`` ranks of one simulation run."""

    def __init__(self, p: int) -> None:
        self.p = p
        self.ranks = [RankCounters() for _ in range(p)]
        #: iteration → set of ranks that sent or received in it.
        self.active_by_iter: Dict[int, Set[int]] = {}
        #: iteration → virtual time of its last recorded operation
        #: (send issue or receive completion) — the per-round timeline.
        self.last_time_by_iter: Dict[int, float] = {}

    # -- recording ---------------------------------------------------------
    def record_send(
        self,
        rank: int,
        nbytes: int,
        link_wait: float,
        iteration: int = 0,
        when: float = 0.0,
    ) -> None:
        """Account one message leaving ``rank`` in ``iteration``.

        Iterations are per-rank logical phases (the executor sets them
        from the schedule's round index); ranks progress through them
        asynchronously.  ``when`` is the virtual issue time.
        """
        counters = self.ranks[rank]
        counters.sends += 1
        counters.bytes_sent += nbytes
        counters.link_wait_time += link_wait
        counters.msg_bytes += nbytes
        # Inlined _bump: called once per message, and the collector runs
        # inside the simulation hot loop.
        per_iter = counters.per_iter_ops
        per_iter[iteration] = per_iter.get(iteration, 0) + 1
        self.active_by_iter.setdefault(iteration, set()).add(rank)
        if when > self.last_time_by_iter.get(iteration, -1.0):
            self.last_time_by_iter[iteration] = when

    def record_recv(
        self,
        rank: int,
        nbytes: int,
        wait_time: float,
        copy_time: float,
        iteration: int = 0,
        when: float = 0.0,
    ) -> None:
        """Account one message arriving at ``rank`` in ``iteration``."""
        counters = self.ranks[rank]
        counters.recvs += 1
        counters.recv_wait_time += wait_time
        if wait_time > 0.0:
            counters.recv_wait_count += 1
        counters.copy_time += copy_time
        counters.msg_bytes += nbytes
        # Inlined _bump (see record_send).
        per_iter = counters.per_iter_ops
        per_iter[iteration] = per_iter.get(iteration, 0) + 1
        self.active_by_iter.setdefault(iteration, set()).add(rank)
        if when > self.last_time_by_iter.get(iteration, -1.0):
            self.last_time_by_iter[iteration] = when
