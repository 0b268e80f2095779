"""The per-transfer lowering, kept verbatim as a reference.

``lower_schedule`` as it was before it summed each message set once per
lowering and built its op streams per round: every transfer pays a
``t.nbytes(problem)`` sum, and every transfer's sender and receiver get
their round slice through ``slices.setdefault``.  The body is unchanged.
It reads the schedule as rounds of transfer objects, so callers pass
``tests.schedule_view.rounds_view(schedule)``, and it builds the same
:class:`~repro.fastpath.lowering.FastPlan` through that module's
``FastPlan``, and the same ``_with_sizes``.
``tests/test_fastpath_lowering_reference.py`` holds the production
lowering to it, field by field.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, List

from repro.fastpath.lowering import OP_RECV, OP_SEND, OP_WAIT
from tests.schedule_view import FastPlan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from tests.schedule_view import ScheduleView as Schedule


def lower_schedule(schedule: "Schedule") -> FastPlan:
    """Lower ``schedule`` into a :class:`FastPlan`."""
    problem = schedule.problem
    params = problem.machine.params
    p = problem.p
    nbytes_of = problem.nbytes

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
    for rnd_idx, rnd in enumerate(schedule.rounds):
        collective = rnd.collective
        mpi = rnd.mpi
        ovh = params.send_overhead(collective=collective, mpi=mpi)
        round_collective.append(collective)
        round_mpi.append(mpi)
        round_recv_ovh.append(params.recv_overhead(collective=collective, mpi=mpi))
        round_mem_scale.append(params.collective_mem_scale if collective else 1.0)
        # rank -> (send ids, receive sources): its slice of this round.
        slices: Dict[int, tuple] = {}
        for t in rnd.transfers:
            sid = len(send_src)
            src = t.src
            msgset = t.msgset
            nbytes = t.nbytes(problem)
            if t.nbytes_override is not None and size_reusable:
                # Size-reusability probe: the structure transfers to
                # other size tables exactly when every send moves whole
                # messages, i.e. its byte count is its message set's sum
                # under this problem's table.
                size_reusable = nbytes == nbytes_of(msgset)
            send_src.append(src)
            send_dst.append(t.dst)
            send_round.append(rnd_idx)
            send_msgset.append(msgset)
            send_nbytes.append(nbytes)
            send_ovh.append(ovh)
            slices.setdefault(src, ([], []))[0].append(sid)
            slices.setdefault(t.dst, ([], []))[1].append(src)
        if slices:
            active_rounds.append(rnd_idx)
        for rank, (sids, srcs) in slices.items():
            n_send = len(sids)
            ops = n_send + len(srcs)
            if ops > congestion:
                congestion = ops
            rank_ops[rank] += ops
            rank_rounds[rank] += 1
            codes[rank] += [OP_SEND] * n_send + [OP_RECV] * len(srcs) + [OP_WAIT] * n_send
            args[rank] += sids + srcs + sids
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
