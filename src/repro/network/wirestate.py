"""Wire-occupancy state: the contention core of the fabric.

The reservation model — per-link *earliest-free timestamps* plus
accumulated busy time — is needed in two places: the event-driven
:class:`~repro.network.fabric.Fabric` (which serves transfers as the
simulation reaches them) and the :mod:`repro.fastpath` batch evaluator
(which replays the very same request sequence without an event loop).
Both must produce bit-identical timings.  What they share is this
class's state — the ``free_at`` and ``busy_time`` lists — and
:meth:`WireState.wire_utilization`.  The reservation arithmetic itself
exists twice: the fabric calls :meth:`WireState.reserve_path` and
:meth:`WireState.reserve_link`, while the replay kernel
(:mod:`repro.fastpath.kernel`) repeats both inline over the same lists.
The randomized differential grid and the traced store-and-forward test
(``tests/test_fastpath_differential.py``) keep the two copies equal.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.summation import left_sum

__all__ = ["WireState"]


class WireState:
    """Per-link reservation ledger over a topology's link id space.

    Link ids follow the topology convention: the first ``wire_offset``
    entries (two per node) are injection/ejection processor channels;
    everything after is a wire link.  Utilization statistics cover wire
    links only, matching the paper's network-load notion.
    """

    __slots__ = ("num_links", "wire_offset", "free_at", "busy_time")

    def __init__(self, num_links: int, wire_offset: int) -> None:
        self.num_links = num_links
        self.wire_offset = wire_offset
        #: Earliest time each link is free again.
        self.free_at: List[float] = [0.0] * num_links
        #: Accumulated reservation time per link.
        self.busy_time: List[float] = [0.0] * num_links

    # -- reservations ---------------------------------------------------
    def reserve_path(
        self, path: Sequence[int], now: float, duration: float
    ) -> Tuple[float, float]:
        """Wormhole reservation: hold every path link for ``duration``.

        The transfer starts once the whole path is free
        (``start = max(now, free_at[l] for l on path)``) and holds each
        link until ``start + duration``.  Returns ``(start, finish)``.
        """
        free_at = self.free_at
        busy_time = self.busy_time
        start = now
        for link in path:
            free = free_at[link]
            if free > start:
                start = free
        finish = start + duration
        for link in path:
            free_at[link] = finish
            busy_time[link] += duration
        return start, finish

    def reserve_link(
        self, link: int, arrive: float, per_link: float
    ) -> Tuple[float, float]:
        """Store-and-forward reservation of one link for one message hop.

        The message occupies ``link`` from ``max(arrive, free)`` for
        ``per_link``; returns ``(start, finish)``.
        """
        start = max(arrive, self.free_at[link])
        finish = start + per_link
        self.free_at[link] = finish
        self.busy_time[link] += per_link
        return start, finish

    # -- statistics -----------------------------------------------------
    def wire_utilization(self, horizon: float) -> float:
        """Mean busy fraction of wire links over ``[0, horizon]``.

        Returns 0.0 for empty horizons or wire-less topologies.  The
        busy-time sum is :func:`~repro.summation.left_sum` — part of the
        bit-identity contract between the two consumers.
        """
        wire_busy = self.busy_time[self.wire_offset:]
        if len(wire_busy) == 0 or horizon <= 0.0:
            return 0.0
        return float(left_sum(wire_busy) / (len(wire_busy) * horizon))

    def max_free_at(self) -> float:
        """Latest reservation end across all links (0.0 when untouched)."""
        return max(self.free_at, default=0.0)
