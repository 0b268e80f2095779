"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while letting
programming errors (``TypeError`` and friends) propagate.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SimulationError",
    "DeadlockError",
    "RoutingError",
    "TopologyError",
    "CommError",
    "PeerFailedError",
    "RecvTimeoutError",
    "ConfigurationError",
    "UnsupportedFastPathError",
    "DistributionError",
    "AlgorithmError",
    "VerificationError",
]


class ReproError(Exception):
    """Base class for every error raised by the library."""


class SimulationError(ReproError):
    """The discrete-event kernel reached an inconsistent state."""


class DeadlockError(SimulationError):
    """The event queue drained while processes were still blocked.

    This is the simulator's analogue of an MPI hang: some process is
    waiting on a message or link grant that can never arrive.  The error
    message lists the blocked processes and what each was waiting for.
    """


class TopologyError(ReproError):
    """An interconnect topology was constructed or queried inconsistently."""


class RoutingError(TopologyError):
    """A route could not be produced between two nodes."""


class CommError(ReproError):
    """Misuse of the message-passing layer (bad rank, bad tag, ...)."""


class PeerFailedError(CommError):
    """A point-to-point operation targeted a node that has failed.

    Raised at the *sender* when fault injection has marked the
    destination node dead at send time — the simulated analogue of a
    connection refused / node-down error from the transport layer —
    and by :class:`~repro.mpsim.reliable.ReliableComm` once a silent or
    refusing peer is presumed failed.  Retransmission lives only there:
    a plain send has no timeout.
    """


class RecvTimeoutError(CommError):
    """A blocking receive with ``timeout_us`` expired before a match.

    The parked inbox request is withdrawn on expiry, so a message that
    arrives later is buffered normally instead of being claimed by the
    abandoned receive.  The reliable transport layer uses this to turn
    a silently lost message into failure *detection*.
    """


class ConfigurationError(ReproError):
    """Invalid machine or experiment configuration."""


class UnsupportedFastPathError(ConfigurationError):
    """``engine="fast"`` was requested for a run the fast path cannot model.

    The vectorized fast path replays every run without faults or
    recovery, traced or not; fault injection and recovery need the full
    generator engine.  Under ``engine="auto"`` such runs silently fall
    back to the event engine; asking for ``engine="fast"`` explicitly
    raises this instead, so a benchmark script cannot believe it
    measured the fast path when it did not.
    """


class DistributionError(ReproError):
    """A source distribution was asked for an impossible placement."""


class AlgorithmError(ReproError):
    """A broadcasting algorithm was invoked on an unsupported problem."""


class VerificationError(ReproError):
    """Post-run verification failed: some processor is missing messages."""
