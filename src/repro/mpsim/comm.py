"""Rank-addressed communication over the simulated fabric.

:class:`World` owns the shared state of one machine run (engine,
fabric, inboxes, metrics); :class:`Comm` is one rank's view of the
world communicator, with its per-message overhead mode (point-to-point,
library collective, MPI) selected by :meth:`Comm.with_mode`.

Timing of one point-to-point message::

    sender:   [t_send_overhead]───fabric reservation───▶
    network:                   [link wait][hops·t_hop + nbytes·t_byte]
    receiver:                       ...blocked in recv...[t_recv_overhead
                                                          + nbytes·t_mem_byte]

The receive-side per-byte cost is the memory copy out of the system
buffer; for the broadcasting algorithms it doubles as the paper's
message-*combining* cost (merging two sorted message sets is one pass
over the bytes).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional, Tuple

from repro.errors import CommError, PeerFailedError, RecvTimeoutError
from repro.metrics.counters import MetricsCollector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.injector import FaultInjector
    from repro.machines.params import MachineParams
from repro.mpsim.envelope import Envelope
from repro.mpsim.requests import Request
from repro.network.fabric import Fabric
from repro.network.mapping import RankMapping
from repro.simulator.engine import Engine
from repro.simulator.events import AnyOf
from repro.simulator.resources import Store

__all__ = ["ANY_SOURCE", "ANY_TAG", "World", "Comm"]

#: Wildcard receive source (matches any sender).
ANY_SOURCE = -1
#: Wildcard receive tag (matches any tag).
ANY_TAG = -1


class World:
    """Shared communication state for one simulation run."""

    def __init__(
        self,
        engine: Engine,
        fabric: Fabric,
        params: "MachineParams",
        mapping: RankMapping,
        metrics: Optional[MetricsCollector] = None,
        injector: Optional["FaultInjector"] = None,
    ) -> None:
        self.engine = engine
        self.fabric = fabric
        self.params = params
        self.mapping = mapping
        #: Fault state shared with the fabric; ``None`` = perfect machine.
        self.injector = injector
        self.size = mapping.size
        self.inboxes: List[Store] = [Store(engine) for _ in range(self.size)]
        self.metrics = metrics if metrics is not None else MetricsCollector(self.size)

    def comm(self, rank: int) -> "Comm":
        """The world communicator as seen by ``rank``."""
        if not 0 <= rank < self.size:
            raise CommError(f"rank {rank} outside world of size {self.size}")
        return Comm(self, rank)

    def deliver(self, envelope: Envelope) -> None:
        """Deposit ``envelope`` in its destination inbox (kernel callback)."""
        self.inboxes[envelope.dest].put(envelope)


class Comm:
    """A rank's view of the world communicator.

    Parameters
    ----------
    world:
        The shared run state.
    rank:
        This processor's rank in the world.
    """

    def __init__(self, world: World, rank: int) -> None:
        self.world = world
        self.rank = rank
        self.size = world.size
        #: Overhead mode applied to every operation issued through this
        #: communicator (a schedule's collective rounds flip
        #: ``collective``).
        self.collective = False
        self.mpi = False
        # Current logical iteration (the schedule round), shared by
        # reference across every mode view of this rank so metrics
        # bucket correctly no matter which view issues the op.
        self._iteration_cell = [0]
        # (collective, mpi) -> cached mode-variant view of this comm.
        self._mode_cache: Dict[Tuple[bool, bool], "Comm"] = {}
        # Per-message software overheads memoized for the current mode
        # flags (invalidated by comparison, so late flag flips are safe).
        self._cost_key: Optional[Tuple[bool, bool]] = None
        self._send_ovh = 0.0
        self._recv_ovh = 0.0

    def with_mode(
        self, *, collective: Optional[bool] = None, mpi: Optional[bool] = None
    ) -> "Comm":
        """A view of this rank's communicator with the given overhead modes.

        The schedule executor flips the mode every round, so that a
        library-collective round pays the machine's collective overhead
        tier.  Views are cheap and cached: asking for this
        communicator's own mode returns ``self``, and each distinct
        ``(collective, mpi)`` combination is built once per
        communicator.  Cached views share the iteration cell, so they
        are interchangeable with freshly built copies.
        """
        want_collective = self.collective if collective is None else collective
        want_mpi = self.mpi if mpi is None else mpi
        if want_collective == self.collective and want_mpi == self.mpi:
            return self
        key = (want_collective, want_mpi)
        comm = self._mode_cache.get(key)
        if comm is None:
            comm = Comm(self.world, self.rank)
            comm.collective = want_collective
            comm.mpi = want_mpi
            comm._iteration_cell = self._iteration_cell
            self._mode_cache[key] = comm
        return comm

    def _mode_costs(self) -> Tuple[float, float]:
        """``(send_overhead, recv_overhead)`` for the current mode flags."""
        key = (self.collective, self.mpi)
        if key != self._cost_key:
            params = self.world.params
            self._send_ovh = params.send_overhead(
                collective=key[0], mpi=key[1]
            )
            self._recv_ovh = params.recv_overhead(
                collective=key[0], mpi=key[1]
            )
            self._cost_key = key
        return self._send_ovh, self._recv_ovh

    # -- point-to-point ---------------------------------------------------
    def isend(
        self, dest: int, payload: Any, nbytes: int, tag: int = 0
    ) -> Generator[Any, Any, Request]:
        """Non-blocking send; charges sender overhead, then returns a Request.

        Usage: ``request = yield from comm.isend(...)``.
        """
        if tag < 0:
            raise CommError(f"send tag must be >= 0, got {tag}")
        if not 0 <= dest < self.size:
            raise CommError(f"rank {dest} outside world of size {self.size}")
        world = self.world
        engine = world.engine
        rank = self.rank
        overhead = self._mode_costs()[0]
        if overhead > 0.0:
            yield engine.timeout(overhead)
        now = engine.now
        mapping = world.mapping
        injector = world.injector
        dst_node = mapping.node_of(dest)
        if injector is not None and injector.node_dead(dst_node, now):
            raise PeerFailedError(
                f"send from rank {rank} to rank {dest} failed: "
                f"node {dst_node} is dead at t={now:.3f}us"
            )
        stats = world.fabric.transfer(
            mapping.node_of(rank), dst_node, nbytes, now
        )
        if stats.lost:
            # Every route to the destination crosses a dead link: the
            # message vanishes in the fabric.  The returned request never
            # completes — blocking on it hangs exactly like the real
            # machine, and the deadlock diagnostic names the faults.
            world.metrics.record_send(
                rank,
                nbytes,
                0.0,
                iteration=self._iteration_cell[0],
                when=now,
            )
            if engine.tracer is not None:
                engine.trace(
                    "send_lost",
                    src=rank,
                    dst=dest,
                    tag=tag,
                    nbytes=nbytes,
                )
            return Request(engine.event(), kind="send")
        envelope = Envelope(
            source=rank,
            dest=dest,
            tag=tag,
            payload=payload,
            nbytes=nbytes,
            send_time=now,
            arrival_time=stats.finish_time,
        )
        world.metrics.record_send(
            rank,
            nbytes,
            stats.start_time - now,
            iteration=self._iteration_cell[0],
            when=now,
        )
        if engine.tracer is not None:
            engine.trace(
                "send",
                src=rank,
                dst=dest,
                tag=tag,
                nbytes=nbytes,
                start=stats.start_time,
                finish=stats.finish_time,
            )
        # One fused event per message: delivery (inbox deposit) runs as
        # the completion event's first callback, so the calendar carries
        # a single entry rather than a delivery and a completion for the
        # same instant.  Callback order keeps the semantics of two
        # entries: deliver first, then resume any send-waiters.
        completion = engine.event()
        completion.add_callback(
            lambda _ev, _deliver=world.deliver, _env=envelope: _deliver(_env)
        )
        completion.succeed(envelope, delay=stats.finish_time - now)
        return Request(completion, kind="send")

    def send(
        self, dest: int, payload: Any, nbytes: int, tag: int = 0
    ) -> Generator[Any, Any, Envelope]:
        """Blocking send: completes when the last byte reaches ``dest``.

        Under fault injection it can hang forever on a dead path;
        :class:`~repro.mpsim.reliable.ReliableComm` is the transport
        that detects loss and retransmits.
        """
        request = yield from self.isend(dest, payload, nbytes, tag)
        envelope = yield from request.wait()
        return envelope

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        *,
        timeout_us: Optional[float] = None,
    ) -> Generator[Any, Any, Envelope]:
        """Blocking receive matching ``(source, tag)``.

        Blocks until a matching envelope arrives, then charges the
        receive overhead plus the per-byte copy cost, and returns the
        envelope.

        With ``timeout_us`` the receive races a timer:
        :class:`~repro.errors.RecvTimeoutError` is raised on expiry and
        the parked inbox request is withdrawn, so a message arriving
        later is buffered for future receives instead of being lost to
        the abandoned one.
        """
        if source != ANY_SOURCE and not 0 <= source < self.size:
            raise CommError(f"rank {source} outside world of size {self.size}")
        world = self.world
        engine = world.engine
        rank = self.rank
        posted = engine.now

        def matches(env: Envelope) -> bool:
            return env.matches(source, tag)

        inbox = world.inboxes[rank]
        if timeout_us is None:
            envelope: Envelope = yield inbox.get(matches)
        else:
            if timeout_us <= 0.0:
                raise CommError(
                    f"recv timeout must be positive, got {timeout_us}"
                )
            get_event = inbox.get(matches)
            index, value = yield AnyOf(
                engine, (get_event, engine.timeout(timeout_us))
            )
            if index != 0 and get_event.triggered:
                # The timer and the matching envelope landed in the same
                # instant and the timer processed first.  The item is
                # already claimed by the getter — take it rather than
                # losing a delivered message to the expired receive.
                index, value = 0, get_event.value
            if index != 0:
                inbox.cancel(get_event)
                if engine.tracer is not None:
                    engine.trace(
                        "recv_timeout",
                        rank=rank,
                        src=source,
                        tag=tag,
                        budget_us=timeout_us,
                    )
                raise RecvTimeoutError(
                    f"recv at rank {rank} from "
                    f"{'any source' if source == ANY_SOURCE else f'rank {source}'} "
                    f"timed out after {timeout_us:g}us at t={engine.now:.3f}us"
                )
            envelope = value
        wait_time = engine.now - posted
        copy_time = world.params.copy_cost(
            envelope.nbytes, collective=self.collective
        )
        overhead = self._mode_costs()[1]
        total = overhead + copy_time
        if total > 0.0:
            yield engine.timeout(total)
        world.metrics.record_recv(
            rank,
            envelope.nbytes,
            wait_time,
            copy_time,
            iteration=self._iteration_cell[0],
            when=engine.now,
        )
        if engine.tracer is not None:
            engine.trace(
                "recv",
                rank=rank,
                src=envelope.source,
                tag=envelope.tag,
                nbytes=envelope.nbytes,
                waited=wait_time,
            )
        return envelope

    @property
    def now(self) -> float:
        """Current simulated time (microseconds)."""
        return self.world.engine.now

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Comm rank {self.rank}/{self.size}>"
