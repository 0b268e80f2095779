"""Runs a communication schedule on the simulated machine.

Each rank executes its slice of the schedule with **data-parallel
synchronisation** (§5: "we avoid global synchronization ... and use
data parallelism to synchronize between steps and iterations"): a rank
moves to round *k+1* as soon as its *own* round-*k* operations are
complete — its receives have arrived and been combined, and its sends
have drained.  Waiting, congestion, and straggler propagation therefore
emerge from message timing, not from artificial barriers.

Per round, a rank:

1. issues all its sends as non-blocking ``isend``\\ s (each charges the
   sender's per-message software overhead back-to-back, as a real CPU
   would),
2. blocks on each of its receives (in schedule order; arrival order
   does not matter because the inbox buffers out-of-order messages),
   paying the receive overhead and the per-byte combining copy,
3. waits for its sends' completion (blocking-send semantics: the paper's
   algorithms use blocking NX/MPI calls).

The payload carried in each envelope is the transfer's message set, so
the executor's return value — the set of original messages this rank
ended up holding — gives end-to-end delivery verification through the
actual simulated communication, independent of
:meth:`~repro.core.schedule.Schedule.validate`'s static check.

The program does not read the schedule itself: it walks the rank's
slice of the operation stream that
:func:`~repro.fastpath.lowering.lower_schedule` produces, the same
:class:`~repro.fastpath.lowering.FastPlan` the fast path's replay
kernel replays, so both engines issue operations in one order by
construction.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Set

from repro.core.schedule import Schedule
from repro.errors import PeerFailedError
from repro.fastpath.lowering import OP_RECV, OP_SEND, FastPlan, lower_schedule
from repro.mpsim.comm import Comm

__all__ = ["ScheduleExecutor"]


class ScheduleExecutor:
    """Runs a :class:`Schedule` as per-rank SPMD programs.

    The schedule is lowered once (it is static), so program setup is
    O(sends) overall rather than O(rounds x p).  Per-send byte counts,
    per-round mode flags and span names come resolved in the plan,
    keeping the simulated hot loop free of schedule bookkeeping.
    """

    def __init__(self, schedule: Schedule) -> None:
        # One shared snapshot: initial_holdings() builds a p-tuple per
        # call, so indexing a cached copy per rank avoids O(p^2) setup.
        self._initial = schedule.problem.initial_holdings()
        #: Per-rank live holdings, updated in place as envelopes arrive.
        #: After a run this doubles as the partial-delivery record: ranks
        #: stalled by injected faults leave their entry at whatever
        #: subset they had actually combined when the run ended.
        self.holdings: List[Optional[Set[int]]] = [None] * schedule.problem.p
        #: The plan every rank's program walks: what the fast path replays.
        self.plan: FastPlan = lower_schedule(schedule)

    def program(self, comm: Comm) -> Generator[Any, Any, frozenset]:
        """The SPMD program for ``comm.rank``; returns its final holdings."""
        rank = comm.rank
        holdings: Set[int] = set(self._initial[rank])
        self.holdings[rank] = holdings
        engine = comm.world.engine
        plan = self.plan
        op_code = plan.op_code
        op_arg = plan.op_arg
        op_aux = plan.op_aux
        i = plan.op_start[rank]
        end = plan.op_start[rank + 1]
        while i < end:
            # The rank's ops for one round are contiguous: op_aux names it.
            # The round sets the communicator's metrics bucket and
            # overhead mode; only this program issues through it.
            round_idx = op_aux[i]
            comm.iteration = round_idx
            comm.collective = plan.round_collective[round_idx]
            comm.mpi = plan.round_mpi[round_idx]
            # Observability span around this rank's slice of the round;
            # with tracing off this is the shared NULL_SPAN no-op.
            with engine.span(plan.round_phase[round_idx], rank=rank,
                             round=round_idx):
                requests = {}
                while i < end and op_aux[i] == round_idx:
                    code = op_code[i]
                    arg = op_arg[i]
                    i += 1
                    if code == OP_SEND:
                        try:
                            requests[arg] = yield from comm.isend(
                                plan.send_dst[arg],
                                plan.send_msgset[arg],
                                nbytes=plan.send_nbytes[arg],
                                tag=round_idx,
                            )
                        except PeerFailedError:
                            # Degraded operation: a send into a dead node
                            # is abandoned (and so is its wait), the rank
                            # carries on with the rest of its schedule,
                            # and the shortfall surfaces as a partial
                            # delivery fraction instead of a crashed run.
                            pass
                    elif code == OP_RECV:
                        envelope = yield from comm.recv(
                            source=arg, tag=round_idx
                        )
                        holdings.update(envelope.payload)
                    elif arg in requests:
                        yield from requests[arg].wait()
        return frozenset(holdings)
