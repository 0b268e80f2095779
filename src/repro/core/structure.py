"""Structural (engine-free) analysis of schedules and halving patterns.

Two tools live here:

* :func:`analyze_schedule` — per-round actives / new-source counts /
  message-length profiles for a built schedule.  This is the
  distribution-dependent half of Figure 2, computed statically; tests
  cross-check it against the executor's measured metrics.
* :func:`estimate_halving_time` — a fast LogP-style finish-time
  estimator for the halving pattern given source *positions* on a
  line.  The ideal-distribution search (:mod:`repro.core.ideal`) ranks
  thousands of candidate placements with it, which would be far too
  slow through the event engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Set, Tuple

from repro.core.algorithms.common import halving_pairs
from repro.core.schedule import Schedule

__all__ = ["RoundProfile", "ScheduleProfile", "analyze_schedule", "estimate_halving_time"]


@dataclass(frozen=True)
class RoundProfile:
    """Static per-round statistics."""

    index: int
    label: str
    transfers: int
    active_ranks: int
    new_holders: int
    max_transfer_bytes: int
    total_bytes: int


@dataclass(frozen=True)
class ScheduleProfile:
    """Static whole-schedule statistics (Figure 2's distribution side)."""

    rounds: Tuple[RoundProfile, ...]
    av_act_proc: float
    max_ops_per_rank: int
    total_transfers: int

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)


def analyze_schedule(schedule: Schedule) -> ScheduleProfile:
    """Compute per-round profiles by replaying holdings statically."""
    problem = schedule.problem
    nbytes = problem.nbytes
    holdings: List[Set[int]] = [set(h) for h in problem.initial_holdings()]
    holders = {rank for rank, h in enumerate(holdings) if h}
    profiles: List[RoundProfile] = []
    bounds = schedule.round_bounds()
    for idx, label in enumerate(schedule.round_label):
        first, stop = bounds[idx], bounds[idx + 1]
        dsts = schedule.send_dst[first:stop]
        msgsets = schedule.send_msgset[first:stop]
        active = set(schedule.send_src[first:stop]) | set(dsts)
        sizes = [nbytes(msgset) for msgset in msgsets]
        for dst, msgset in zip(dsts, msgsets):
            holdings[dst] |= msgset
        new_holders = {
            rank for rank, h in enumerate(holdings) if h
        } - holders
        holders |= new_holders
        profiles.append(
            RoundProfile(
                index=idx,
                label=label,
                transfers=stop - first,
                active_ranks=len(active),
                new_holders=len(new_holders),
                max_transfer_bytes=max(sizes, default=0),
                total_bytes=sum(sizes),
            )
        )
    av_act = (
        sum(p.active_ranks for p in profiles) / len(profiles)
        if profiles
        else 0.0
    )
    ops = schedule.ops_by_rank()
    return ScheduleProfile(
        rounds=tuple(profiles),
        av_act_proc=av_act,
        max_ops_per_rank=max(ops.values(), default=0),
        total_transfers=schedule.num_transfers,
    )


#: The estimator's per-exchange overhead (µs), per-byte time (µs) and
#: message size (bytes): the Paragon's overhead-to-bandwidth ratio.
_OVERHEAD_US = 70.0
_PER_BYTE_US = 0.017
_MESSAGE_SIZE = 2048


def estimate_halving_time(n: int, positions: Sequence[int]) -> float:
    """LogP-style completion-time estimate of the halving broadcast.

    ``positions`` are the source slots on a line of ``n`` positions;
    every source carries 2048 bytes.  The estimate tracks a
    per-position ready time: an exchanging pair finishes at
    ``max(ready_a, ready_b) + 70 + bytes_moved * 0.017`` µs.  The
    constants approximate the Paragon's overhead-to-bandwidth ratio;
    the *ranking* of placements (which is all the ideal search needs)
    is insensitive to their exact values.
    """
    source_set = set(positions)
    ready = [0.0] * n
    units = [_MESSAGE_SIZE if i in source_set else 0 for i in range(n)]
    for pairs in halving_pairs(n):
        snapshot_units = list(units)
        snapshot_ready = list(ready)
        for a, b, one_way in pairs:
            ua, ub = snapshot_units[a], snapshot_units[b]
            if ua == 0 and ub == 0:
                continue
            moved = ua if one_way else max(ua, ub)
            done = (
                max(snapshot_ready[a], snapshot_ready[b])
                + _OVERHEAD_US
                + moved * _PER_BYTE_US
            )
            ready[a] = max(ready[a], done)
            ready[b] = max(ready[b], done)
            gained_b = ua
            gained_a = 0 if one_way else ub
            units[a] = max(units[a], snapshot_units[a] + gained_a)
            units[b] = max(units[b], snapshot_units[b] + gained_b)
    return max(ready)
