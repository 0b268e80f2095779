"""Reliable transport over the lossy fabric: the recovery layer's wire.

Under fault injection a plain :class:`~repro.mpsim.comm.Comm` send can
vanish (every route crosses a dead link) or hang forever.
:class:`ReliableComm` wraps a communicator with the classic
end-to-end machinery real transports use:

* **sequence-numbered envelopes** — every data message carries a per
  ``(destination, tag)`` stream sequence number, so retransmits are
  recognisable as duplicates and delivered exactly once;
* **ACK** — the receiver acknowledges every data message (including
  duplicates, whose earlier ACK may itself have been lost);
* **retransmit with backoff** — each attempt is an ``isend`` plus an
  ACK receive with a timeout; an unacknowledged message is re-sent
  with a budget that grows by ``backoff_factor`` per attempt;
* **failure detection** — once the retry budget is exhausted, the peer
  is *presumed failed* and
  :class:`~repro.errors.PeerFailedError` is raised, turning silent loss
  into a typed error the algorithm can act on.  The presumption is
  sticky: later sends to the same peer fail immediately.

Delivery semantics are exactly-once per stream for everything the
receiver returns; the network may still carry duplicates (late original
plus retransmit), which the receive side absorbs.

Tag spaces: user tags are small non-negative integers (schedule
rounds, gossip rounds); data rides ``tag + DATA_TAG_BASE`` and
acknowledgements ``tag + ACK_TAG_BASE``, far above them, so reliable
streams never collide with plain traffic on the same communicator.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional, Set, Tuple

from repro.errors import CommError, PeerFailedError, RecvTimeoutError
from repro.mpsim.comm import ANY_SOURCE, Comm
from repro.mpsim.envelope import Envelope

__all__ = ["ReliableComm", "transfer_budget"]

#: Reliable data / acknowledgement tag bases, far above any round tag.
DATA_TAG_BASE = 1 << 27
ACK_TAG_BASE = 1 << 28
#: Simulated size of an ACK control message (header-only packet).
ACK_NBYTES = 16


def transfer_budget(comm: Comm, nbytes: int) -> float:
    """A generous one-transfer timeout for ``nbytes`` on this machine.

    Upper-bounds a contention-free transfer — software overheads, the
    longest possible path, the wire time, the receive copy — and scales
    it by a slack of 8 to absorb link contention and degraded links.
    The backoff of the retry loop covers what slack does not.
    """
    params = comm.world.params
    hops = max(comm.world.size, 2)
    base = (
        params.send_overhead()
        + params.recv_overhead()
        + params.route_setup
        + hops * params.t_hop
        + max(nbytes, 1) * params.t_byte
        + params.copy_cost(max(nbytes, 1))
    )
    return 8.0 * base


class ReliableComm:
    """Reliable, duplicate-suppressing transport over a :class:`Comm`.

    Parameters
    ----------
    comm:
        The communicator to wrap.
    timeout_us:
        Per-attempt ACK budget of :meth:`send`.  ``None`` derives a
        machine-aware default per message via :func:`transfer_budget`.
    max_retries:
        Retransmissions after the first attempt; the retry budget grows
        by ``backoff_factor`` per attempt.
    """

    def __init__(
        self,
        comm: Comm,
        *,
        timeout_us: Optional[float] = None,
        max_retries: int = 4,
        backoff_factor: float = 2.0,
    ) -> None:
        if timeout_us is not None and timeout_us <= 0.0:
            raise CommError(f"timeout_us must be positive, got {timeout_us}")
        if max_retries < 0:
            raise CommError(f"max_retries must be >= 0, got {max_retries}")
        if backoff_factor < 1.0:
            raise CommError(
                f"backoff_factor must be >= 1, got {backoff_factor}"
            )
        self.comm = comm
        self.timeout_us = timeout_us
        self.max_retries = max_retries
        self.backoff_factor = backoff_factor
        #: Next sequence number per outgoing ``(dest, tag)`` stream.
        self._next_seq: Dict[Tuple[int, int], int] = {}
        #: Delivered sequence numbers per incoming ``(source, tag)`` stream.
        self._delivered: Dict[Tuple[int, int], Set[int]] = {}
        #: Ranks presumed failed (sticky: later sends fail immediately).
        self._failed: Set[int] = set()

    # -- sending -----------------------------------------------------------
    def send(
        self, dest: int, payload: Any, nbytes: int, tag: int = 0
    ) -> Generator[Any, Any, int]:
        """Reliable blocking send; returns the stream sequence number.

        Completes when ``dest`` has acknowledged the message.  Raises
        :class:`~repro.errors.PeerFailedError` when the peer is already
        presumed failed, is a dead node, or stays silent through every
        retransmission.
        """
        comm = self.comm
        engine = comm.world.engine
        if dest in self._failed:
            raise PeerFailedError(
                f"reliable send to rank {dest}: "
                "peer already presumed failed"
            )
        key = (dest, tag)
        seq = self._next_seq.get(key, 0)
        self._next_seq[key] = seq + 1
        data_tag = DATA_TAG_BASE + tag
        ack_tag = ACK_TAG_BASE + tag
        budget = (
            self.timeout_us
            if self.timeout_us is not None
            else transfer_budget(comm, nbytes)
        )
        attempts = self.max_retries + 1
        for attempt in range(attempts):
            try:
                yield from comm.isend(
                    dest, (seq, payload), nbytes, tag=data_tag
                )
            except PeerFailedError:
                self._failed.add(dest)
                raise
            deadline = engine.now + budget
            while True:
                remaining = deadline - engine.now
                if remaining <= 0.0:
                    break
                try:
                    ack = yield from comm.recv(
                        source=dest, tag=ack_tag, timeout_us=remaining
                    )
                except RecvTimeoutError:
                    break
                if ack.payload == seq:
                    return seq
                # A duplicate ACK from an earlier exchange whose first
                # ACK we already consumed; drain and keep waiting within
                # the same deadline.
            if engine.tracer is not None:
                engine.trace(
                    "reliable_retry",
                    src=comm.rank,
                    dst=dest,
                    tag=tag,
                    seq=seq,
                    attempt=attempt,
                    budget_us=budget,
                )
            if attempt + 1 < attempts:
                budget *= self.backoff_factor
        self._failed.add(dest)
        raise PeerFailedError(
            f"rank {dest} presumed failed: no ACK for "
            f"seq {seq} after {attempts} attempt(s) "
            f"(final budget {budget:g}us) at t={engine.now:.3f}us"
        )

    # -- receiving ---------------------------------------------------------
    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = 0,
        *,
        timeout_us: Optional[float] = None,
    ) -> Generator[Any, Any, Envelope]:
        """Reliable receive: exactly-once delivery per stream.

        Every incoming data message is acknowledged — duplicates too,
        since the ACK that made them duplicates may itself have been
        lost — but only the first copy is returned.

        ``timeout_us`` bounds the *total* wait;
        :class:`~repro.errors.RecvTimeoutError` is raised on expiry.
        """
        comm = self.comm
        engine = comm.world.engine
        data_tag = DATA_TAG_BASE + tag
        ack_tag = ACK_TAG_BASE + tag
        deadline = None if timeout_us is None else engine.now + timeout_us
        while True:
            if deadline is None:
                envelope = yield from comm.recv(source=source, tag=data_tag)
            else:
                remaining = deadline - engine.now
                if remaining <= 0.0:
                    raise RecvTimeoutError(
                        f"reliable recv at rank {comm.rank} timed out "
                        f"after {timeout_us:g}us at t={engine.now:.3f}us"
                    )
                envelope = yield from comm.recv(
                    source=source, tag=data_tag, timeout_us=remaining
                )
            seq, payload = envelope.payload
            src = envelope.source
            yield from self._post_ack(src, ack_tag, seq)
            delivered = self._delivered.setdefault((src, tag), set())
            if seq in delivered:
                # Retransmit of a message we already returned: the fresh
                # ACK above replaces its lost predecessor, nothing more.
                continue
            delivered.add(seq)
            return Envelope(
                source=src,
                dest=envelope.dest,
                tag=tag,
                payload=payload,
                nbytes=envelope.nbytes,
                send_time=envelope.send_time,
                arrival_time=envelope.arrival_time,
            )

    def _post_ack(
        self, dest: int, tag: int, seq: int
    ) -> Generator[Any, Any, None]:
        """Fire-and-forget ACK of ``seq``; loss is tolerated."""
        try:
            yield from self.comm.isend(dest, seq, ACK_NBYTES, tag=tag)
        except PeerFailedError:
            # The sender died between sending and our reply; its retry
            # loop will conclude the same thing from silence.
            pass

    def __repr__(self) -> str:
        return (
            f"<ReliableComm over {self.comm!r} "
            f"retries={self.max_retries} failed={sorted(self._failed)}>"
        )
