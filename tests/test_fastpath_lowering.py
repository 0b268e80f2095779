"""Unit tests for ``lower_schedule``, the one lowering both engines run.

The event engine's :class:`~repro.core.executor.ScheduleExecutor` walks
the plan's operation streams as each rank's program and the replay
kernel replays them, so the engines share the op order by
construction.  The op-stream check here is the independent half: it
rebuilds each rank's expected program straight from the schedule's
columns and shares no code with either engine.
"""

from __future__ import annotations

import pytest

from repro.core.algorithms import get_algorithm
from repro.core.executor import ScheduleExecutor
from repro.core.problem import BroadcastProblem
from repro.fastpath.lowering import OP_RECV, OP_SEND, OP_WAIT, lower_schedule
from repro.machines import machine_from_spec
from tests.schedule_view import all_rounds

CASES = [
    ("paragon:4x4", "PersAlltoAll", 4),
    ("paragon:4x4", "Br_xy_source", 3),
    ("t3d:16", "MPI_AllGather", 5),
    ("t3d:16", "2-Step", 8),
]


def _schedule(spec: str, algorithm: str, s: int):
    problem = BroadcastProblem(
        machine=machine_from_spec(spec),
        sources=tuple(range(s)),
        message_size=512,
    )
    return get_algorithm(algorithm).build_schedule(problem)


def _expected_slices(schedule):
    """Per rank: ``(round, its sends, receive sources)`` per round."""
    p = schedule.problem.p
    slices = [[] for _ in range(p)]
    for rnd_idx, rnd in enumerate(all_rounds(schedule)):
        for rank in range(p):
            sends = [send for send in rnd if send[0] == rank]
            recvs = [send[0] for send in rnd if send[1] == rank]
            if sends or recvs:
                slices[rank].append((rnd_idx, sends, recvs))
    return slices


@pytest.mark.parametrize("spec,algorithm,s", CASES)
def test_op_stream_follows_schedule_rounds(spec, algorithm, s):
    """Per rank, rounds ascend; within a round come its sends in transfer
    order, then one ``(RECV, src)`` per transfer it receives, then one
    WAIT per send, every op tagged with its round in ``op_aux``."""
    schedule = _schedule(spec, algorithm, s)
    problem = schedule.problem
    plan = lower_schedule(schedule)
    assert plan.p == problem.p
    assert plan.num_sends == schedule.num_transfers
    assert len(plan.op_start) == plan.p + 1
    seen_sids = []
    for rank, expected in enumerate(_expected_slices(schedule)):
        lo, hi = plan.op_start[rank], plan.op_start[rank + 1]
        ops = list(zip(plan.op_code[lo:hi], plan.op_arg[lo:hi],
                       plan.op_aux[lo:hi]))
        i = 0
        for rnd_idx, sends, recvs in expected:
            sids = []
            for _src, dst, msgset, override in sends:
                code, sid, aux = ops[i]
                assert (code, aux) == (OP_SEND, rnd_idx)
                assert plan.send_src[sid] == rank
                assert plan.send_dst[sid] == dst
                assert plan.send_round[sid] == rnd_idx
                assert plan.send_msgset[sid] == msgset
                assert isinstance(plan.send_msgset[sid], frozenset)
                assert plan.send_nbytes[sid] == (
                    problem.nbytes(msgset) if override is None else override
                )
                sids.append(sid)
                i += 1
            for src in recvs:
                assert ops[i] == (OP_RECV, src, rnd_idx)
                i += 1
            for sid in sids:
                assert ops[i] == (OP_WAIT, sid, rnd_idx)
                i += 1
            seen_sids.extend(sids)
        assert i == len(ops)
    # Every send of the schedule lowers to exactly one send.
    assert sorted(seen_sids) == list(range(plan.num_sends))


@pytest.mark.parametrize("spec,algorithm,s", CASES)
def test_executor_runs_the_lowered_plan(spec, algorithm, s):
    """The event executor's program reads the plan ``lower_schedule``
    returns, field for field."""
    schedule = _schedule(spec, algorithm, s)
    assert ScheduleExecutor(schedule).plan == lower_schedule(schedule)


#: The plan fields that are the lowered schedule's own lists.
SHARED_COLUMNS = (
    "send_src",
    "send_dst",
    "send_msgset",
    "send_round",
    "round_phase",
    "round_collective",
    "round_mpi",
)


@pytest.mark.parametrize("spec,algorithm,s", CASES)
def test_plan_shares_the_schedules_columns(spec, algorithm, s):
    """The lowering hands the plan the schedule's lists, not copies, and
    a size rebind of the plan keeps sharing them."""
    schedule = _schedule(spec, algorithm, s)
    plan = lower_schedule(schedule)
    plans = [plan]
    if plan.size_reusable:
        plans.append(plan.rebind_sizes(schedule.problem))
    for lowered in plans:
        for name in SHARED_COLUMNS:
            assert getattr(lowered, name) is getattr(schedule, name), name


@pytest.mark.parametrize("spec,algorithm,s", CASES)
def test_round_tables_follow_schedule_rounds(spec, algorithm, s):
    """Per-send costs come from the mode of the round each send belongs
    to."""
    schedule = _schedule(spec, algorithm, s)
    params = schedule.problem.machine.params
    plan = lower_schedule(schedule)
    assert plan.num_rounds == schedule.num_rounds == len(plan.round_phase)
    assert len(plan.round_recv_ovh) == len(plan.round_mem_scale) == plan.num_rounds
    for sid, rnd_idx in enumerate(plan.send_round):
        collective = schedule.round_collective[rnd_idx]
        mode = {"collective": collective, "mpi": schedule.round_mpi[rnd_idx]}
        copy = params.copy_cost(plan.send_nbytes[sid], collective=collective)
        assert plan.send_ovh[sid] == params.send_overhead(**mode)
        assert plan.recv_copy[sid] == copy
        assert plan.recv_total[sid] == params.recv_overhead(**mode) + copy
