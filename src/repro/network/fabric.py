"""The fabric: wormhole path-reservation timing and contention model.

A message transmission reserves **every link on its dimension-order
path** — injection channel, wire links, ejection channel — from its
start until its completion.  This is the standard path-reservation
approximation of wormhole routing: once a worm's header establishes the
path, the whole path is held while the body streams through.

The model is implemented with per-link *earliest-free timestamps*
rather than an arbitration event loop: a transfer requested at time
``t`` starts at ``start = max(t, free_at[l] for l on path)`` and holds
every path link until ``start + duration``, where::

    duration = route_setup + hops * t_hop + nbytes * t_byte

Requests are served greedily in request order (no backfilling), which
keeps the model deterministic and O(path length) per message while
still capturing the phenomena the paper attributes to the network:

* serialisation at hot spots (all of *2-Step*'s gather messages queue
  on the root's ejection channel),
* link competition between simultaneous broadcasts, and
* distance effects (per-hop latency and longer reservation windows).

The contention model can be disabled (``contention=False``) for the
ablation bench, in which case only the per-message latency formula is
charged and links never conflict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.network.topology import Topology
from repro.network.wirestate import WireState
from repro.simulator.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.injector import FaultInjector

__all__ = ["Fabric", "TransferStats"]


@dataclass(frozen=True)
class TransferStats:
    """Timing decomposition of a single network transfer.

    Attributes
    ----------
    request_time:
        When the sender handed the message to the network.
    start_time:
        When the path was acquired (``>= request_time``).
    finish_time:
        When the last byte reached the destination processor.
    hops:
        Wire-link hops travelled (0 for a self-send).
    link_wait:
        ``start_time - request_time`` — pure contention delay.
    """

    request_time: float
    start_time: float
    finish_time: float
    hops: int

    @property
    def link_wait(self) -> float:
        return self.start_time - self.request_time

    @property
    def duration(self) -> float:
        return self.finish_time - self.start_time

    @property
    def lost(self) -> bool:
        """Whether the transfer can never complete (dead path, no detour)."""
        return self.finish_time == math.inf


class Fabric:
    """Reservation-based contention model over a :class:`Topology`.

    Parameters
    ----------
    topology:
        The physical interconnect.
    t_byte:
        Wire time per byte per link, in microseconds (inverse link
        bandwidth).
    t_hop:
        Router latency per hop, in microseconds.
    route_setup:
        Fixed path-establishment cost per message, in microseconds.
    contention:
        When ``False``, links are never reserved: every transfer starts
        immediately (ablation mode).
    injector:
        Optional :class:`~repro.faults.FaultInjector`.  When set, each
        transfer is planned fault-aware: dead links force a detour (or
        lose the message — ``TransferStats.lost``), and degraded links
        multiply the per-byte wire time.
    tracer:
        Optional :class:`~repro.simulator.Tracer`.  When set, every
        network transfer records an ``"xfer"`` event carrying its link
        path and reservation window — the raw material for the per-link
        utilization and queue-depth series of :mod:`repro.obs`.
    """

    def __init__(
        self,
        topology: Topology,
        *,
        t_byte: float,
        t_hop: float,
        route_setup: float = 0.0,
        contention: bool = True,
        switching: str = "wormhole",
        injector: Optional["FaultInjector"] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if t_byte < 0 or t_hop < 0 or route_setup < 0:
            raise ConfigurationError("fabric timing parameters must be >= 0")
        if switching not in ("wormhole", "store_and_forward"):
            raise ConfigurationError(
                "switching must be 'wormhole' or 'store_and_forward', "
                f"got {switching!r}"
            )
        self.topology = topology
        self.t_byte = t_byte
        self.t_hop = t_hop
        self.route_setup = route_setup
        self.contention = contention
        self.switching = switching
        self.injector = injector
        self.tracer = tracer
        # Reservation state: the fastpath evaluator builds its own
        # WireState over the same link id space, and its kernel repeats
        # reserve_path/reserve_link inline over those lists; the
        # differential tests keep both copies equal (see
        # repro.network.wirestate).
        self._wire = WireState(topology.num_links, 2 * topology.num_nodes)
        self._transfers = 0
        self._total_wait = 0.0

    # -- core operation ---------------------------------------------------
    def transfer(self, src: int, dst: int, nbytes: int, now: float) -> TransferStats:
        """Reserve the ``src -> dst`` path for an ``nbytes`` message at ``now``.

        Returns the transfer's timing.  A self-send (``src == dst``)
        never touches the network and completes instantly at ``now``.
        """
        if nbytes < 0:
            raise ConfigurationError(f"negative message size {nbytes}")
        if src == dst:
            self._transfers += 1
            return TransferStats(now, now, now, hops=0)
        byte_factor = 1.0
        if self.injector is not None:
            planned, byte_factor = self.injector.plan(src, dst, now)
            if planned is None:
                # Undeliverable: every route to the destination crosses a
                # dead link.  The message is lost — the caller must not
                # schedule a delivery, and the receiver's hang surfaces
                # through the engine's fault-naming deadlock diagnostic.
                self._transfers += 1
                if self.tracer is not None:
                    self.tracer.record(
                        now,
                        "xfer_lost",
                        {"src": src, "dst": dst, "nbytes": nbytes},
                    )
                return TransferStats(now, math.inf, math.inf, hops=-1)
            path: Sequence[int] = planned
        else:
            # Cached immutable link path — shared with the topology's
            # memo; only ever iterated here, never mutated.
            path = self.topology.route_links(src, dst)
        hops = len(path) - 2  # exclude injection and ejection channels
        if self.switching == "store_and_forward":
            start, finish = self._transfer_store_and_forward(path, nbytes, now)
        else:
            start, finish = self._transfer_wormhole(
                path, hops, nbytes, now, byte_factor
            )
        self._transfers += 1
        self._total_wait += start - now
        if self.tracer is not None:
            self.tracer.record(
                now,
                "xfer",
                {
                    "src": src,
                    "dst": dst,
                    "nbytes": nbytes,
                    "links": tuple(path),
                    "start": start,
                    "finish": finish,
                },
            )
        return TransferStats(now, start, finish, hops=hops)

    def _transfer_wormhole(
        self,
        path: Sequence[int],
        hops: int,
        nbytes: int,
        now: float,
        byte_factor: float = 1.0,
    ) -> Tuple[float, float]:
        """Path reservation: the whole path is held for the duration.

        ``byte_factor`` scales the per-byte wire term — a worm streams
        at the rate of its slowest (possibly degraded) path link.
        """
        duration = (
            self.route_setup + hops * self.t_hop + nbytes * self.t_byte * byte_factor
        )
        if not self.contention:
            return now, now + duration
        return self._wire.reserve_path(path, now, duration)

    def _transfer_store_and_forward(
        self, path: Sequence[int], nbytes: int, now: float
    ) -> Tuple[float, float]:
        """Hop-by-hop forwarding (pre-wormhole routers).

        The whole message crosses one link at a time, so distance costs
        ``hops * nbytes * t_byte`` rather than the wormhole's additive
        ``hops * t_hop`` — the regime in which the paper's ancestors
        (store-and-forward hypercubes) were analysed.  The message holds
        at most one link at a time; pipelining across messages emerges
        from per-link reservations.
        """
        injector = self.injector
        wire = self._wire
        arrive = now + self.route_setup
        first_start = None
        for link in path:
            per_link = self.t_hop + nbytes * self.t_byte * (
                1.0 if injector is None else injector.link_factor(link, now)
            )
            if self.contention:
                start, finish = wire.reserve_link(link, arrive, per_link)
            else:
                start, finish = arrive, arrive + per_link
            if first_start is None:
                first_start = start
            arrive = finish
        assert first_start is not None
        return first_start, arrive

    # -- statistics ----------------------------------------------------------
    @property
    def transfers(self) -> int:
        """Number of network transfers performed so far."""
        return self._transfers

    @property
    def total_link_wait(self) -> float:
        """Sum of contention delays across all transfers (microseconds)."""
        return self._total_wait

    def link_utilization(self, until: Optional[float] = None) -> float:
        """Mean busy fraction over wire links up to time ``until``.

        ``until`` defaults to the latest reservation end; returns 0.0
        when nothing was transferred.
        """
        horizon = until if until is not None else self._wire.max_free_at()
        return self._wire.wire_utilization(horizon)
