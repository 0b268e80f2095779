"""Lowering: a :class:`~repro.core.schedule.Schedule` as flat lists.

:func:`lower_schedule` is the one lowering both engines run.  It
produces a :class:`FastPlan` of plain Python lists:

* per send (indexed by send id): source, destination, round and
  message set — the schedule's own columns, shared rather than copied
  — plus the byte count and every cost the replay needs (sender
  overhead, receiver overhead + combining copy), resolved from
  per-round parameter tables;
* one flat operation stream (``op_code`` / ``op_arg`` / ``op_aux``
  segmented by ``op_start``): per rank and round, ``(SEND, sid)`` for
  each send of the rank, ``(RECV, src)`` for each send it receives,
  then ``(WAIT, sid)`` for each send, every op carrying its round in
  ``op_aux``.  The replay kernel replays this stream and
  :class:`~repro.core.executor.ScheduleExecutor` runs it as each rank's
  generator program, so both engines issue operations in one order;
* per round: the span name and overhead-mode flags (the schedule's
  columns again) and the cost tables a size rebind needs (see
  :meth:`FastPlan.rebind_sizes`);
* the metrics report fields the schedule alone fixes: every send
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

    All per-send lists are parallel (indexed by send id).  The plan
    splits into a **structural** part — a pure function of (machine
    parameters, algorithm, source placement) — and a **size-bound**
    part (byte counts and the receive costs and report fields derived
    from them).  When :attr:`size_reusable` is true the
    structural part is valid for *any* per-source size table and
    :meth:`rebind_sizes` produces the size-bound part for a new problem
    without re-lowering.  The plan is seed-independent — link paths
    depend on the run's rank mapping and are resolved by the evaluator
    at bind time.  Seven of its lists are the lowered schedule's own
    (see :func:`lower_schedule`).
    """

    p: int
    num_rounds: int
    num_sends: int
    # -- structural: per send --------------------------------------------
    send_src: List[int]
    send_dst: List[int]
    send_round: List[int]
    #: The send's message set: the event engine's payload, and what
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
    #: Span name of each round (see :class:`~repro.core.schedule.Schedule`).
    round_phase: List[str]
    #: Overhead-mode flags of each round.
    round_collective: List[bool]
    round_mpi: List[bool]
    #: Receiver overhead and copy-cost scale under each round's mode.
    round_recv_ovh: List[float]
    round_mem_scale: List[float]
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
    #: explicit segments (byte overrides) lower with this false.
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

    The plan shares the schedule's columns instead of copying them: its
    ``send_src``, ``send_dst``, ``send_round``, ``send_msgset``,
    ``round_phase``, ``round_collective`` and ``round_mpi`` are the
    schedule's lists.  So a lowered schedule is never extended: only
    freshly built schedules are lowered (by the plan cache and the
    event executor).  Each distinct message set is summed under the
    problem's size table once per lowering; sends that repeat a set (a
    ring forwarding one source's message, a pipeline's segments) reuse
    the sum.
    """
    problem = schedule.problem
    params = problem.machine.params
    p = problem.p
    nbytes_of = problem.nbytes
    send_src = schedule.send_src
    send_dst = schedule.send_dst
    round_collective = schedule.round_collective
    round_mpi = schedule.round_mpi
    num_rounds = schedule.num_rounds

    msgset_bytes: Dict[FrozenSet[int], int] = {}
    send_nbytes: List[int] = []
    size_reusable = True
    for msgset, nbytes in zip(schedule.send_msgset, schedule.send_override):
        if nbytes is None or size_reusable:
            total = msgset_bytes.get(msgset)
            if total is None:
                total = msgset_bytes[msgset] = nbytes_of(msgset)
            if nbytes is None:
                nbytes = total
            else:
                # Size-reusability probe: the structure transfers to
                # other size tables exactly when every send moves whole
                # messages, i.e. its byte count is its message set's sum
                # under this problem's table.
                size_reusable = nbytes == total
        send_nbytes.append(nbytes)

    send_ovh: List[float] = []
    # Each rank's op stream, built round by round and flattened below.
    codes: List[List[int]] = [[] for _ in range(p)]
    args: List[List[int]] = [[] for _ in range(p)]
    auxs: List[List[int]] = [[] for _ in range(p)]
    rank_ops = [0] * p
    rank_rounds = [0] * p
    congestion = 0
    # (sends, receives) -> a rank-round's op codes, built once per shape.
    code_runs: Dict[Tuple[int, int], List[int]] = {}
    bounds = schedule.round_bounds()
    for rnd_idx, (collective, mpi, first, stop) in enumerate(
        zip(round_collective, round_mpi, bounds, bounds[1:])
    ):
        ovh = params.send_overhead(collective=collective, mpi=mpi)
        send_ovh += [ovh] * (stop - first)
        # rank -> its send ids / receive sources: its slice of this round.
        sends: Dict[int, List[int]] = {}
        recvs: Dict[int, List[int]] = {}
        for sid, src, dst in zip(
            range(first, stop), send_src[first:stop], send_dst[first:stop]
        ):
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

    num_sends = len(send_src)
    counts = {
        "iterations": num_rounds,
        "congestion": congestion,
        "send_recv_ops": max(rank_ops),
        "av_act_proc": sum(rank_rounds) / num_rounds if num_rounds else 0.0,
        "total_messages": num_sends,
    }
    return FastPlan(
        p=p,
        num_rounds=num_rounds,
        num_sends=num_sends,
        send_src=send_src,
        send_dst=send_dst,
        send_round=schedule.send_round,
        send_msgset=schedule.send_msgset,
        send_ovh=send_ovh,
        op_code=op_code,
        op_arg=op_arg,
        op_aux=op_aux,
        op_start=op_start,
        rank_rounds=rank_rounds,
        round_phase=schedule.round_phase,
        round_collective=round_collective,
        round_mpi=round_mpi,
        round_recv_ovh=[
            params.recv_overhead(collective=collective, mpi=mpi)
            for collective, mpi in zip(round_collective, round_mpi)
        ],
        round_mem_scale=[
            params.collective_mem_scale if collective else 1.0
            for collective in round_collective
        ],
        t_mem_byte=params.t_mem_byte,
        # The size-bound fields are filled in by _with_sizes below.
        send_nbytes=send_nbytes,
        recv_total=[],
        recv_copy=[],
        report_fields=counts,
        size_reusable=size_reusable,
    )._with_sizes(send_nbytes)
