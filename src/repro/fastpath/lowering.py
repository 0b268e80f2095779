"""Lowering: a :class:`~repro.core.schedule.Schedule` as flat arrays.

The lowering consumes the same :meth:`Schedule.lowered` per-rank round
plans as the generator executor, then flattens them into a
**structure-of-arrays** :class:`FastPlan`:

* parallel per-send int32/int64/float64 numpy arrays — source,
  destination, byte count, round — with every per-send cost the replay
  needs (sender overhead, receiver overhead + combining copy) resolved
  by **vectorized** numpy arithmetic over per-round parameter tables;
* one flat operation stream (``op_code`` / ``op_arg`` / ``op_aux``
  segmented by ``op_start``): ``(SEND, sid)``, ``(RECV, src, round)``
  and ``(WAIT, sid)`` entries in exactly the order the generator
  program issues them (all sends, then all receives, then the
  send-completion waits — per round);
* a CSR view of each send's message set (``msg_members`` /
  ``msg_start``), which is what makes a plan **size-rebindable**: the
  structural arrays are shared and only the byte-dependent arrays are
  recomputed for a new size table (see :meth:`FastPlan.rebind_sizes`);
* the metrics report fields the schedule alone fixes: every transfer
  lowers to one send and one receive, so per-rank op and byte counts
  are known before replay and are counted here, once per plan.

Float discipline: every vectorized expression reproduces the scalar
engine's evaluation order term by term (``(nbytes * t_mem_byte) *
scale``, ``recv_overhead + copy``), and float64 elementwise ops are
IEEE-754 identical to Python floats, so lowered costs are bit-equal to
what :class:`~repro.mpsim.comm.Comm` would have computed one message at
a time.  Receive matching stays *dynamic* in the kernel (per-inbox
FIFO, mirroring the Store), so the lowering records match predicates —
``(source, round)`` — rather than presuming which send satisfies which
receive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.problem import BroadcastProblem
    from repro.core.schedule import Schedule

__all__ = ["OP_SEND", "OP_RECV", "OP_WAIT", "FastPlan", "lower_schedule"]

#: Operation stream opcodes (values in the ``op_code`` array).
OP_SEND = 0
OP_RECV = 1
OP_WAIT = 2


@dataclass
class FastPlan:
    """A schedule lowered to contiguous arrays, ready for kernel replay.

    All per-send arrays are parallel (indexed by send id, in global
    issue-plan order).  The plan splits into a **structural** part —
    pure function of (machine parameters, algorithm, source placement)
    — and a **size-bound** part (byte counts and the costs derived from
    them).  When :attr:`size_reusable` is true the structural part is
    valid for *any* per-source size table and
    :meth:`rebind_sizes` produces the size-bound arrays for a new
    problem without re-lowering.  The plan is seed-independent — link
    paths depend on the run's rank mapping and are resolved by the
    evaluator at bind time.
    """

    p: int
    num_rounds: int
    num_sends: int
    # -- structural (size-independent) arrays ---------------------------
    #: int32[num_sends] sender / destination / round of each send.
    send_src: Any
    send_dst: Any
    send_round: Any
    #: Flat per-rank operation streams: int32 code/arg/aux arrays
    #: segmented by ``op_start`` (int32[p + 1]).
    op_code: Any
    op_arg: Any
    op_aux: Any
    op_start: Any
    #: Phase name of each round — the span names of traced replays.
    round_phase: Tuple[str, ...]
    #: Rounds in which some rank sends or receives, ascending.
    active_rounds: Tuple[int, ...]
    #: Per rank, the number of rounds in which it sends or receives.
    rank_rounds: List[int]
    #: CSR message sets: send ``i`` carries source messages
    #: ``msg_members[msg_start[i]:msg_start[i + 1]]`` (int32).
    msg_members: Any
    msg_start: Any
    # -- per-round parameter tables (float64[num_rounds]) ---------------
    round_send_ovh: Any
    round_recv_ovh: Any
    round_mem_scale: Any
    #: The machine's per-byte memory-copy cost (the one scalar the
    #: size-cost expressions need beyond the round tables).
    t_mem_byte: float
    # -- size-bound arrays ----------------------------------------------
    #: int64[num_sends] byte count of each send.
    send_nbytes: Any
    #: float64[num_sends] sender software overhead before issue.
    send_ovh: Any
    #: float64[num_sends] receiver overhead + combining copy.
    recv_total: Any
    #: float64[num_sends] the copy component alone (metrics report it).
    recv_copy: Any
    #: The :class:`~repro.metrics.report.MetricsReport` fields the plan
    #: fixes before replay (see :func:`_schedule_counts`):
    #: ``iterations``, ``congestion``, ``send_recv_ops``,
    #: ``av_act_proc``, ``total_messages``, ``av_msg_lgth`` and
    #: ``total_bytes``; the last two are size-bound.
    report_fields: Dict[str, Any]
    #: Whether every send's byte count equals the sum of its message
    #: set's source sizes — i.e. the *structure* is size-independent and
    #: :meth:`rebind_sizes` is exact.  Pipelined schedules that move
    #: explicit segments (``nbytes_override``) lower with this false.
    size_reusable: bool = True
    #: Lazily built plain-list views of the arrays (the kernel's
    #: containers); see :meth:`list_views`.
    _lists: Dict[str, list] = field(default_factory=dict, repr=False)

    def list_views(self) -> Dict[str, list]:
        """Plain-list views of every kernel-facing array, built once.

        The kernel indexes these instead of numpy arrays: list indexing
        returns unboxed ``int`` / ``float`` and is several times faster
        in the interpreter, while ``ndarray.tolist()`` is an exact
        conversion.
        """
        if not self._lists:
            self._lists = {
                name: getattr(self, name).tolist()
                for name in (
                    "send_src",
                    "send_dst",
                    "send_round",
                    "send_nbytes",
                    "send_ovh",
                    "recv_total",
                    "recv_copy",
                    "op_code",
                    "op_arg",
                    "op_aux",
                    "op_start",
                )
            }
        return self._lists

    def rank_ops(self, rank: int) -> List[Tuple[int, ...]]:
        """Rank ``rank``'s operation stream as ``(OP_*, ...)`` tuples.

        A debugging/testing view of the flat stream: ``(OP_SEND, sid)``,
        ``(OP_RECV, src, round)`` and ``(OP_WAIT, sid)`` in issue order.
        """
        out: List[Tuple[int, ...]] = []
        lo = int(self.op_start[rank])
        hi = int(self.op_start[rank + 1])
        for i in range(lo, hi):
            code = int(self.op_code[i])
            if code == OP_RECV:
                out.append((code, int(self.op_arg[i]), int(self.op_aux[i])))
            else:
                out.append((code, int(self.op_arg[i])))
        return out

    def rebind_sizes(self, problem: "BroadcastProblem") -> "FastPlan":
        """This plan's structure bound to ``problem``'s size table.

        Recomputes the size-bound arrays — byte counts via the CSR
        message sets, costs via the *same* vectorized expressions the
        lowering used — and shares every structural array.  The result
        is bit-identical to lowering ``problem``'s schedule from
        scratch; :attr:`size_reusable` must be true.
        """
        import numpy as np

        if not self.size_reusable:
            raise ValueError(
                "plan structure depends on message sizes; re-lower instead"
            )
        send_nbytes = _csr_nbytes(
            self.msg_members, self.msg_start, self.num_sends, problem
        )
        send_ovh, recv_total, recv_copy = _size_costs(
            np,
            send_nbytes,
            self.send_round,
            self.round_send_ovh,
            self.round_recv_ovh,
            self.round_mem_scale,
            self.t_mem_byte,
        )
        report_fields = dict(self.report_fields)
        report_fields.update(_byte_counts(
            np, self.p, self.send_src, self.send_dst, send_nbytes,
            self.rank_rounds,
        ))
        return FastPlan(
            p=self.p,
            num_rounds=self.num_rounds,
            num_sends=self.num_sends,
            send_src=self.send_src,
            send_dst=self.send_dst,
            send_round=self.send_round,
            op_code=self.op_code,
            op_arg=self.op_arg,
            op_aux=self.op_aux,
            op_start=self.op_start,
            round_phase=self.round_phase,
            active_rounds=self.active_rounds,
            rank_rounds=self.rank_rounds,
            msg_members=self.msg_members,
            msg_start=self.msg_start,
            round_send_ovh=self.round_send_ovh,
            round_recv_ovh=self.round_recv_ovh,
            round_mem_scale=self.round_mem_scale,
            t_mem_byte=self.t_mem_byte,
            send_nbytes=send_nbytes,
            send_ovh=send_ovh,
            recv_total=recv_total,
            recv_copy=recv_copy,
            report_fields=report_fields,
            size_reusable=True,
        )


def _csr_nbytes(msg_members, msg_start, num_sends: int, problem) -> Any:
    """int64 byte counts per send from the CSR message sets.

    Integer sums are exact in any order, so the segmented reduction
    equals the scalar ``sum(size_of(m) for m in msgset)`` bit-for-bit.
    """
    import numpy as np

    if num_sends == 0:
        return np.zeros(0, dtype=np.int64)
    size_of = problem.size_of
    member_sizes = np.fromiter(
        (size_of(int(m)) for m in msg_members),
        dtype=np.int64,
        count=len(msg_members),
    )
    return np.add.reduceat(member_sizes, msg_start[:-1].astype(np.intp))


def _schedule_counts(np, p, num_rounds, send_src, send_dst, send_round):
    """The report fields fixed by the plan's structure.

    Every transfer lowers to one send at its source and one receive at
    its destination, both in the transfer's round, so each rank's send,
    receive and per-round op counts are known before replay.  Returns
    ``(fields, active_rounds, rank_rounds)``; the reductions repeat
    :meth:`MetricsReport.from_collector` on exact integers.
    """
    num_sends = len(send_src)
    cells = np.concatenate((send_src, send_dst)).astype(np.intp) * num_rounds
    cells += np.concatenate((send_round, send_round))
    ops = np.bincount(cells, minlength=p * num_rounds).reshape(p, num_rounds)
    active = ops > 0
    round_ranks = active.sum(axis=0)
    active_rounds = tuple(np.flatnonzero(round_ranks).tolist())
    iterations = len(active_rounds)
    fields = {
        "iterations": iterations,
        "congestion": int(ops.max()) if ops.size else 0,
        "send_recv_ops": int(ops.sum(axis=1).max()),
        "av_act_proc": (
            int(round_ranks.sum()) / iterations if iterations else 0.0
        ),
        "total_messages": num_sends,
    }
    return fields, active_rounds, active.sum(axis=1).tolist()


def _byte_counts(np, p, send_src, send_dst, send_nbytes, rank_rounds):
    """The size-bound report fields: ``av_msg_lgth`` and ``total_bytes``.

    A rank's message lengths are the bytes it sends plus the bytes it
    receives; integer sums, so exact in any order.
    """
    msg_bytes = np.zeros(p, dtype=np.int64)
    np.add.at(msg_bytes, send_src, send_nbytes)
    np.add.at(msg_bytes, send_dst, send_nbytes)
    av_msg = 0.0
    for total, rounds in zip(msg_bytes.tolist(), rank_rounds):
        if rounds:
            av_msg = max(av_msg, total / rounds)
    return {"av_msg_lgth": av_msg, "total_bytes": int(send_nbytes.sum())}


def _size_costs(np, send_nbytes, send_round, round_send_ovh,
                round_recv_ovh, round_mem_scale, t_mem_byte):
    """The three per-send cost arrays from byte counts + round tables.

    One vectorized gather + elementwise pass; the expressions mirror
    ``Comm.recv`` / ``params.copy_cost`` term order exactly.
    """
    ridx = send_round.astype(np.intp)
    nbytes_f = send_nbytes.astype(np.float64)
    send_ovh = round_send_ovh[ridx]
    recv_copy = (nbytes_f * t_mem_byte) * round_mem_scale[ridx]
    recv_total = round_recv_ovh[ridx] + recv_copy
    return send_ovh, recv_total, recv_copy


def lower_schedule(schedule: "Schedule") -> FastPlan:
    """Lower ``schedule`` into a :class:`FastPlan`."""
    import numpy as np

    problem = schedule.problem
    params = problem.machine.params
    p = problem.p
    plan = schedule.lowered()

    send_src: List[int] = []
    send_dst: List[int] = []
    send_nbytes: List[int] = []
    send_round: List[int] = []
    msg_members: List[int] = []
    msg_start: List[int] = [0]
    op_code: List[int] = []
    op_arg: List[int] = []
    op_aux: List[int] = []
    op_start: List[int] = [0]
    for rank in range(p):
        for round_idx, _phase, _collective, _mpi, sends, recvs in plan[rank]:
            first_sid = len(send_src)
            for dst, msgset, nbytes in sends:
                send_src.append(rank)
                send_dst.append(dst)
                send_nbytes.append(nbytes)
                send_round.append(round_idx)
                msg_members.extend(sorted(msgset))
                msg_start.append(len(msg_members))
                op_code.append(OP_SEND)
                op_arg.append(len(send_src) - 1)
                op_aux.append(0)
            for src in recvs:
                op_code.append(OP_RECV)
                op_arg.append(src)
                op_aux.append(round_idx)
            for sid in range(first_sid, first_sid + len(sends)):
                op_code.append(OP_WAIT)
                op_arg.append(sid)
                op_aux.append(0)
        op_start.append(len(op_code))

    # Per-round parameter tables (one scalar resolution per round), then
    # one vectorized gather + elementwise pass over all sends.
    rounds = schedule.rounds
    num_rounds = len(rounds)
    round_send_ovh = np.fromiter(
        (
            params.send_overhead(collective=r.collective, mpi=r.mpi)
            for r in rounds
        ),
        dtype=np.float64,
        count=num_rounds,
    )
    round_recv_ovh = np.fromiter(
        (
            params.recv_overhead(collective=r.collective, mpi=r.mpi)
            for r in rounds
        ),
        dtype=np.float64,
        count=num_rounds,
    )
    round_mem_scale = np.fromiter(
        (params.collective_mem_scale if r.collective else 1.0 for r in rounds),
        dtype=np.float64,
        count=num_rounds,
    )
    num_sends = len(send_src)

    i32 = np.int32
    send_src_a = np.asarray(send_src, dtype=i32)
    send_dst_a = np.asarray(send_dst, dtype=i32)
    send_round_a = np.asarray(send_round, dtype=i32)
    send_nbytes_a = np.asarray(send_nbytes, dtype=np.int64)
    msg_members_a = np.asarray(msg_members, dtype=i32)
    msg_start_a = np.asarray(msg_start, dtype=i32)

    report_fields, active_rounds, rank_rounds = _schedule_counts(
        np, p, num_rounds, send_src_a, send_dst_a, send_round_a
    )
    report_fields.update(_byte_counts(
        np, p, send_src_a, send_dst_a, send_nbytes_a, rank_rounds
    ))

    send_ovh, recv_total, recv_copy = _size_costs(
        np,
        send_nbytes_a,
        send_round_a,
        round_send_ovh,
        round_recv_ovh,
        round_mem_scale,
        params.t_mem_byte,
    )

    # Size-reusability probe: the structure transfers to other size
    # tables exactly when every send moves whole messages — i.e. its
    # byte count is the sum of its message set under *this* problem's
    # table.  Segmented transfers (nbytes_override) fail the probe.
    csr_nbytes = _csr_nbytes(msg_members_a, msg_start_a, num_sends, problem)
    size_reusable = bool(np.array_equal(send_nbytes_a, csr_nbytes))

    return FastPlan(
        p=p,
        num_rounds=num_rounds,
        num_sends=num_sends,
        send_src=send_src_a,
        send_dst=send_dst_a,
        send_round=send_round_a,
        op_code=np.asarray(op_code, dtype=i32),
        op_arg=np.asarray(op_arg, dtype=i32),
        op_aux=np.asarray(op_aux, dtype=i32),
        op_start=np.asarray(op_start, dtype=i32),
        round_phase=tuple(
            name
            for name, first, last in schedule.phases()
            for _ in range(first, last + 1)
        ),
        active_rounds=active_rounds,
        rank_rounds=rank_rounds,
        msg_members=msg_members_a,
        msg_start=msg_start_a,
        round_send_ovh=round_send_ovh,
        round_recv_ovh=round_recv_ovh,
        round_mem_scale=round_mem_scale,
        t_mem_byte=params.t_mem_byte,
        send_nbytes=send_nbytes_a,
        send_ovh=send_ovh,
        recv_total=recv_total,
        recv_copy=recv_copy,
        report_fields=report_fields,
        size_reusable=size_reusable,
    )
