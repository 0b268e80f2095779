"""Lowering: a :class:`~repro.core.schedule.Schedule` as flat lists.

:func:`lower_schedule` is the one lowering both engines run.  One pass
over ``schedule.rounds`` produces a :class:`FastPlan` of plain Python
lists:

* per send (indexed by send id, in transfer order): source,
  destination, round, message set and byte count, with every cost the
  replay needs (sender overhead, receiver overhead + combining copy)
  resolved from per-round parameter tables;
* one flat operation stream (``op_code`` / ``op_arg`` / ``op_aux``
  segmented by ``op_start``): per rank and round, ``(SEND, sid)`` for
  each transfer the rank sends, ``(RECV, src)`` for each it receives,
  then ``(WAIT, sid)`` for each send, every op carrying its round in
  ``op_aux``.  The replay kernel replays this stream and
  :class:`~repro.core.executor.ScheduleExecutor` runs it as each rank's
  generator program, so both engines issue operations in one order;
* per round: the span name, the overhead-mode flags and the cost
  tables a size rebind needs (see :meth:`FastPlan.rebind_sizes`);
* the metrics report fields the schedule alone fixes: every transfer
  lowers to one send and one receive, so per-rank op and byte counts
  are known before replay and are counted here, once per plan.

Float discipline: every cost repeats the scalar engine's expression
term by term (``(nbytes * t_mem_byte) * scale``, ``recv_overhead +
copy``) on the same Python floats, so lowered costs are bit-equal to
what :class:`~repro.mpsim.comm.Comm` computes one message at a time.
Receive matching stays *dynamic* in the kernel (per-inbox FIFO,
mirroring the Store), so the lowering records match predicates —
``(source, round)`` — rather than presuming which send satisfies which
receive.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, List, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.problem import BroadcastProblem
    from repro.core.schedule import Schedule

__all__ = ["OP_SEND", "OP_RECV", "OP_WAIT", "FastPlan", "lower_schedule"]

#: Operation stream opcodes (values in the ``op_code`` list).
OP_SEND = 0
OP_RECV = 1
OP_WAIT = 2


@dataclass
class FastPlan:
    """A schedule lowered to flat lists, ready for either engine.

    All per-send lists are parallel (indexed by send id, in transfer
    order).  The plan splits into a **structural** part — a pure
    function of (machine parameters, algorithm, source placement) — and
    a **size-bound** part (byte counts and the receive costs and report
    fields derived from them).  When :attr:`size_reusable` is true the
    structural part is valid for *any* per-source size table and
    :meth:`rebind_sizes` produces the size-bound part for a new problem
    without re-lowering.  The plan is seed-independent — link paths
    depend on the run's rank mapping and are resolved by the evaluator
    at bind time.
    """

    p: int
    num_rounds: int
    num_sends: int
    # -- structural: per send --------------------------------------------
    send_src: List[int]
    send_dst: List[int]
    send_round: List[int]
    #: The transfer's message set: the event engine's payload, and what
    #: :meth:`rebind_sizes` sums under a new size table.
    send_msgset: List[FrozenSet[int]]
    #: Sender software overhead before issue (fixed by the round's mode).
    send_ovh: List[float]
    # -- structural: per rank --------------------------------------------
    #: Flat operation streams, rank ``r``'s at ``op_start[r]:op_start[r
    #: + 1]``; ``op_aux`` holds every op's round.
    op_code: List[int]
    op_arg: List[int]
    op_aux: List[int]
    op_start: List[int]
    #: The number of rounds in which each rank sends or receives.
    rank_rounds: List[int]
    # -- structural: per round -------------------------------------------
    #: Span name of each round (see :meth:`Schedule.phases`).
    round_phase: List[str]
    #: Overhead-mode flags of each round (see :class:`Round`).
    round_collective: List[bool]
    round_mpi: List[bool]
    #: Receiver overhead and copy-cost scale under each round's mode.
    round_recv_ovh: List[float]
    round_mem_scale: List[float]
    #: Rounds in which some rank sends or receives, ascending.
    active_rounds: List[int]
    #: The machine's per-byte memory-copy cost.
    t_mem_byte: float
    # -- size-bound ------------------------------------------------------
    send_nbytes: List[int]
    #: Receiver overhead + combining copy, and the copy alone (metrics
    #: report it).
    recv_total: List[float]
    recv_copy: List[float]
    #: The :class:`~repro.metrics.report.MetricsReport` fields the plan
    #: fixes before replay: ``iterations``, ``congestion``,
    #: ``send_recv_ops``, ``av_act_proc``, ``total_messages``, and the
    #: size-bound ``av_msg_lgth`` and ``total_bytes``.
    report_fields: Dict[str, Any]
    #: Whether every send's byte count equals the sum of its message
    #: set's source sizes — i.e. the *structure* is size-independent and
    #: :meth:`rebind_sizes` is exact.  Pipelined schedules that move
    #: explicit segments (``nbytes_override``) lower with this false.
    size_reusable: bool = True

    def rebind_sizes(self, problem: "BroadcastProblem") -> "FastPlan":
        """This plan's structure bound to ``problem``'s size table.

        Sums each send's message set under the new table, recomputes
        the size-bound fields through the *same* :meth:`_with_sizes` the
        lowering used, and shares every structural list.  The result is
        bit-identical to lowering ``problem``'s schedule from scratch;
        :attr:`size_reusable` must be true.
        """
        if not self.size_reusable:
            raise ValueError(
                "plan structure depends on message sizes; re-lower instead"
            )
        nbytes = problem.nbytes
        return self._with_sizes([nbytes(msgset) for msgset in self.send_msgset])

    def _with_sizes(self, send_nbytes: List[int]) -> "FastPlan":
        """This plan with its size-bound fields computed for ``send_nbytes``.

        Receive costs mirror ``Comm.recv`` / ``params.copy_cost`` term
        order exactly.  A rank's message lengths are the bytes it sends
        plus the bytes it receives; integer sums, so exact in any order,
        and ``av_msg_lgth`` repeats :meth:`MetricsReport.from_collector`.
        """
        send_round = self.send_round
        t_mem_byte = self.t_mem_byte
        mem_scale = self.round_mem_scale
        recv_ovh = self.round_recv_ovh
        recv_copy = [
            (nbytes * t_mem_byte) * mem_scale[rnd]
            for nbytes, rnd in zip(send_nbytes, send_round)
        ]
        msg_bytes = [0] * self.p
        for src, dst, nbytes in zip(self.send_src, self.send_dst, send_nbytes):
            msg_bytes[src] += nbytes
            msg_bytes[dst] += nbytes
        av_msg = 0.0
        for total, rounds in zip(msg_bytes, self.rank_rounds):
            if rounds:
                av_msg = max(av_msg, total / rounds)
        return replace(
            self,
            send_nbytes=send_nbytes,
            recv_total=[
                recv_ovh[rnd] + copy for rnd, copy in zip(send_round, recv_copy)
            ],
            recv_copy=recv_copy,
            report_fields={
                **self.report_fields,
                "av_msg_lgth": av_msg,
                "total_bytes": sum(send_nbytes),
            },
        )


def lower_schedule(schedule: "Schedule") -> FastPlan:
    """Lower ``schedule`` into a :class:`FastPlan`.

    Each distinct message set is summed under the problem's size table
    once per lowering; transfers that repeat a set (a ring forwarding
    one source's message, a pipeline's segments) reuse the sum.
    """
    problem = schedule.problem
    params = problem.machine.params
    p = problem.p
    nbytes_of = problem.nbytes
    msgset_bytes: Dict[FrozenSet[int], int] = {}

    send_src: List[int] = []
    send_dst: List[int] = []
    send_round: List[int] = []
    send_msgset: List[FrozenSet[int]] = []
    send_nbytes: List[int] = []
    send_ovh: List[float] = []
    # Each rank's op stream, built round by round and flattened below.
    codes: List[List[int]] = [[] for _ in range(p)]
    args: List[List[int]] = [[] for _ in range(p)]
    auxs: List[List[int]] = [[] for _ in range(p)]
    rank_ops = [0] * p
    rank_rounds = [0] * p
    round_collective: List[bool] = []
    round_mpi: List[bool] = []
    round_recv_ovh: List[float] = []
    round_mem_scale: List[float] = []
    active_rounds: List[int] = []
    congestion = 0
    size_reusable = True
    # (sends, receives) -> a rank-round's op codes, built once per shape.
    code_runs: Dict[Tuple[int, int], List[int]] = {}
    for rnd_idx, rnd in enumerate(schedule.rounds):
        collective = rnd.collective
        mpi = rnd.mpi
        ovh = params.send_overhead(collective=collective, mpi=mpi)
        round_collective.append(collective)
        round_mpi.append(mpi)
        round_recv_ovh.append(params.recv_overhead(collective=collective, mpi=mpi))
        round_mem_scale.append(params.collective_mem_scale if collective else 1.0)
        transfers = rnd.transfers
        if not transfers:
            continue
        active_rounds.append(rnd_idx)
        first = len(send_src)
        srcs = [t.src for t in transfers]
        dsts = [t.dst for t in transfers]
        send_src += srcs
        send_dst += dsts
        send_msgset += [t.msgset for t in transfers]
        send_round += [rnd_idx] * len(transfers)
        send_ovh += [ovh] * len(transfers)
        for t in transfers:
            nbytes = t.nbytes_override
            if nbytes is None or size_reusable:
                total = msgset_bytes.get(t.msgset)
                if total is None:
                    total = msgset_bytes[t.msgset] = nbytes_of(t.msgset)
                if nbytes is None:
                    nbytes = total
                else:
                    # Size-reusability probe: the structure transfers to
                    # other size tables exactly when every send moves
                    # whole messages, i.e. its byte count is its message
                    # set's sum under this problem's table.
                    size_reusable = nbytes == total
            send_nbytes.append(nbytes)
        # rank -> its send ids / receive sources: its slice of this round.
        sends: Dict[int, List[int]] = {}
        recvs: Dict[int, List[int]] = {}
        for sid, src, dst in zip(range(first, first + len(srcs)), srcs, dsts):
            ids = sends.get(src)
            if ids is None:
                sends[src] = [sid]
            else:
                ids.append(sid)
            froms = recvs.get(dst)
            if froms is None:
                recvs[dst] = [src]
            else:
                froms.append(src)
        for rank in {**sends, **recvs}:
            sids = sends.get(rank, ())
            froms = recvs.get(rank, ())
            n_send = len(sids)
            n_recv = len(froms)
            ops = n_send + n_recv
            if ops > congestion:
                congestion = ops
            rank_ops[rank] += ops
            rank_rounds[rank] += 1
            run = code_runs.get((n_send, n_recv))
            if run is None:
                run = code_runs[n_send, n_recv] = (
                    [OP_SEND] * n_send + [OP_RECV] * n_recv + [OP_WAIT] * n_send
                )
            codes[rank] += run
            rank_args = args[rank]
            rank_args += sids
            rank_args += froms
            rank_args += sids
            auxs[rank] += [rnd_idx] * (ops + n_send)

    op_code: List[int] = []
    op_arg: List[int] = []
    op_aux: List[int] = []
    op_start = [0]
    for rank in range(p):
        op_code += codes[rank]
        op_arg += args[rank]
        op_aux += auxs[rank]
        op_start.append(len(op_code))

    iterations = len(active_rounds)
    num_sends = len(send_src)
    counts = {
        "iterations": iterations,
        "congestion": congestion,
        "send_recv_ops": max(rank_ops),
        "av_act_proc": sum(rank_rounds) / iterations if iterations else 0.0,
        "total_messages": num_sends,
    }
    return FastPlan(
        p=p,
        num_rounds=len(schedule.rounds),
        num_sends=num_sends,
        send_src=send_src,
        send_dst=send_dst,
        send_round=send_round,
        send_msgset=send_msgset,
        send_ovh=send_ovh,
        op_code=op_code,
        op_arg=op_arg,
        op_aux=op_aux,
        op_start=op_start,
        rank_rounds=rank_rounds,
        round_phase=[
            name
            for name, first, last in schedule.phases()
            for _ in range(first, last + 1)
        ],
        round_collective=round_collective,
        round_mpi=round_mpi,
        round_recv_ovh=round_recv_ovh,
        round_mem_scale=round_mem_scale,
        active_rounds=active_rounds,
        t_mem_byte=params.t_mem_byte,
        # The size-bound fields are filled in by _with_sizes below.
        send_nbytes=send_nbytes,
        recv_total=[],
        recv_copy=[],
        report_fields=counts,
        size_reusable=size_reusable,
    )._with_sizes(send_nbytes)
