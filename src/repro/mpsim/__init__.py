"""Simulated message-passing layer (the NX / MPI substitute).

The per-message layer the event engine runs schedules and recovery
through.  :class:`~repro.mpsim.comm.Comm` is one rank's view of the
world communicator and mirrors the subset of NX/MPI the paper uses:

* ``send`` / ``recv`` — blocking point-to-point with (source, tag)
  matching, ``ANY_SOURCE`` / ``ANY_TAG`` wildcards, MPI non-overtaking
  semantics, and optional receive timeouts,
* ``isend`` — non-blocking send returning a
  :class:`~repro.mpsim.requests.Request`, and
* the ``collective`` / ``mpi`` flags — set, they charge the machine's
  library collective or MPI overhead tier instead of the native one.

The paper's library collectives (``MPI_AllGather``, ``MPI_Alltoall``)
are schedules whose collective rounds pay that tier (see
:mod:`repro.core.algorithms.mpi_coll`), not code in this package.
:class:`~repro.mpsim.reliable.ReliableComm` adds sequence numbers,
ACKs and retransmission on top, for the recovery protocol.

Because every operation is a generator that yields simulator events,
code on top of it reads like SPMD message-passing code::

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(1, payload, nbytes=1024)
        elif comm.rank == 1:
            msg = yield from comm.recv(source=0)
"""

from __future__ import annotations

from repro.mpsim.comm import ANY_SOURCE, ANY_TAG, Comm, World
from repro.mpsim.envelope import Envelope
from repro.mpsim.reliable import ReliableComm
from repro.mpsim.requests import Request

__all__ = [
    "World",
    "Comm",
    "Envelope",
    "ReliableComm",
    "Request",
    "ANY_SOURCE",
    "ANY_TAG",
]
