"""Property-based tests (hypothesis) for the library collectives.

``MPI_AllGather`` and ``MPI_Alltoall`` are schedules whose rounds run
in the machine's library-collective tier.  These properties check
their collective semantics for any group size, contributor set,
message sizes and tier parameters.
"""

from __future__ import annotations

import math
from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BroadcastProblem, run_broadcast
from repro.core.algorithms import MPIAllGather
from repro.machines import Machine
from repro.network.linear import LinearArray
from repro.simulator.trace import Tracer
from tests.conftest import TEST_PARAMS
from tests.test_algorithms_collectives import message_time, two_ranks
from tests.schedule_view import all_rounds

group_sizes = st.integers(2, 9)


def contributors(n: int):
    return st.sets(st.integers(0, n - 1), min_size=1).map(sorted).map(tuple)


def line(n: int, **overrides) -> Machine:
    return Machine(LinearArray(n), TEST_PARAMS.with_overrides(**overrides))


@settings(max_examples=25, deadline=None)
@given(
    n=group_sizes,
    style=st.sampled_from(["monolithic", "pipelined"]),
    segment=st.sampled_from([64, 256, 16384]),
    size=st.integers(1, 1000),
    data=st.data(),
)
def test_allgather_delivers_every_contribution(n, style, segment, size, data):
    sources = data.draw(contributors(n), label="sources")
    machine = line(
        n, collective_style=style, collective_segment_bytes=segment
    )
    problem = BroadcastProblem(machine, sources, message_size=size)
    # The event engine raises VerificationError on a short delivery.
    event = run_broadcast(problem, "MPI_AllGather", engine="event")
    assert event.metrics.total_messages == event.num_transfers
    assert run_broadcast(problem, "MPI_AllGather", engine="fast") == event


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 12), data=st.data())
def test_alltoall_sends_each_contribution_to_each_rank_once(n, data):
    sources = data.draw(contributors(n), label="sources")
    problem = BroadcastProblem(line(n), sources, message_size=32)
    tracer = Tracer(kinds=("send",))
    run_broadcast(problem, "MPI_Alltoall", engine="event", tracer=tracer)
    sent = sorted((rec.fields["src"], rec.fields["dst"]) for rec in tracer)
    assert sent == [
        (src, dst) for src in sources for dst in range(n) if dst != src
    ]


@settings(max_examples=40, deadline=None)
@given(n=group_sizes, data=st.data())
def test_monolithic_broadcast_is_a_binomial_tree(n, data):
    sources = data.draw(contributors(n), label="sources")
    problem = BroadcastProblem(line(n), sources, message_size=64)
    schedule = MPIAllGather().build_schedule(problem)
    bcast = [
        rnd
        for label, rnd in zip(schedule.round_label, all_rounds(schedule))
        if label.startswith("bcast")
    ]
    assert len(bcast) == math.ceil(math.log2(n))
    transfers = [t for rnd in bcast for t in rnd]
    assert sorted(t.dst for t in transfers) == list(range(1, n))
    assert all(t.msgset == frozenset(sources) for t in transfers)


@settings(max_examples=40, deadline=None)
@given(n=group_sizes, segment=st.integers(32, 512), data=st.data())
def test_pipelined_ring_carries_every_byte_for_any_sizes(n, segment, data):
    sources = data.draw(contributors(n), label="sources")
    sizes = {
        src: data.draw(st.integers(1, 600), label=f"size[{src}]")
        for src in sources
    }
    machine = line(
        n, collective_style="pipelined", collective_segment_bytes=segment
    )
    problem = BroadcastProblem(machine, sources, message_size=1, sizes=sizes)
    schedule = MPIAllGather().build_schedule(problem)
    carried = defaultdict(int)
    for label, rnd in zip(schedule.round_label, all_rounds(schedule)):
        if label.startswith("ring"):
            for t in rnd:
                (msg,) = t.msgset
                carried[(t.src, t.dst, msg)] += t.nbytes(problem)
    assert carried == {
        (u, u + 1, src): sizes[src] for u in range(n - 1) for src in sources
    }


@settings(max_examples=30, deadline=None)
@given(
    cs=st.sampled_from([0.125, 0.25, 0.5, 1.0]),
    ms=st.sampled_from([0.5, 1.0, 2.0, 4.0]),
    cms=st.sampled_from([0.125, 0.25, 0.5, 1.0]),
    engine=st.sampled_from(["event", "fast"]),
)
def test_collective_rounds_pay_the_collective_tier(cs, ms, cms, engine):
    problem = BroadcastProblem(two_ranks((cs, ms, cms)), (0,), message_size=64)
    result = run_broadcast(problem, "MPI_Alltoall", engine=engine)
    assert result.elapsed_us == message_time(cs * ms, cms)
    twin = run_broadcast(problem, "PersAlltoAll", engine=engine)
    assert twin.elapsed_us == message_time(1.0, 1.0)
