"""The paper's library collectives, checked as the schedules they are.

``MPI_AllGather`` (a flat gather at ``P0``, then a binomial or a
pipelined-ring broadcast) and ``MPI_Alltoall`` (the ``p - 1``
permutation rounds) are schedules whose rounds run in the machine's
library-collective overhead tier.  These tests pin the collective
semantics on that form: who sends what to whom, that every rank ends
with every contribution over the simulated message layer on both
engines, and that collective rounds — and only those — pay the
collective tiers.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict

import pytest

from repro.core import BroadcastProblem, run_broadcast
from repro.core.algorithms import MPIAllGather, MPIAlltoAll
from repro.machines import Machine, MachineParams
from repro.network.linear import LinearArray
from repro.simulator.trace import Tracer
from tests.conftest import TEST_PARAMS
from tests.schedule_view import round_sends

#: Segment size of the pipelined ring in these tests: small enough that
#: every message below splits into several segments.
SEGMENT = 256

#: Contributor sets, as functions of the group size ``p``.
SOURCE_SETS = {
    "root-only": lambda p: (0,),
    "root-excluded": lambda p: (1, p - 1),
    "odd-ranks": lambda p: tuple(range(1, p, 2)),
    "every-rank": lambda p: tuple(range(p)),
}


def line(p: int, **overrides) -> Machine:
    """A ``p``-rank linear array with the suite's simple parameters."""
    return Machine(LinearArray(p), TEST_PARAMS.with_overrides(**overrides))


def pipelined(p: int) -> Machine:
    return line(p, collective_style="pipelined", collective_segment_bytes=SEGMENT)


def rounds_labelled(schedule, prefix):
    return [
        round_sends(schedule, rnd)
        for rnd, label in enumerate(schedule.round_label)
        if label.startswith(prefix)
    ]


@pytest.fixture(params=[5, 8], ids=["p5", "p8"])
def p(request):
    """Both a non-power-of-two and a power-of-two group size."""
    return request.param


@pytest.fixture(params=sorted(SOURCE_SETS))
def sources(request, p):
    return SOURCE_SETS[request.param](p)


class TestGather:
    @pytest.mark.parametrize("style", ["monolithic", "pipelined"])
    def test_each_non_root_source_sends_its_own_message_to_the_root(
        self, style, p, sources
    ):
        machine = line(p, collective_style=style)
        problem = BroadcastProblem(machine, sources, message_size=64)
        schedule = MPIAllGather().build_schedule(problem)
        # "gather" (monolithic) or "gatherv" (pipelined); a root-only
        # problem has nothing to gather and adds no round at all.
        rounds = rounds_labelled(schedule, "gather")
        assert len(rounds) == (0 if sources == (0,) else 1)
        assert all(schedule.round_collective) and all(schedule.round_mpi)
        gather = [t for rnd in rounds for t in rnd]
        assert sorted((t.src, t.dst, t.msgset) for t in gather) == [
            (src, 0, frozenset({src})) for src in sorted(sources) if src != 0
        ]


class TestBinomialBroadcast:
    def test_every_other_rank_receives_the_combined_message_once(
        self, p, sources
    ):
        problem = BroadcastProblem(line(p), sources, message_size=64)
        schedule = MPIAllGather().build_schedule(problem)
        bcast = [t for rnd in rounds_labelled(schedule, "bcast") for t in rnd]
        assert sorted(t.dst for t in bcast) == list(range(1, p))
        assert all(t.msgset == frozenset(sources) for t in bcast)

    def test_broadcast_takes_ceil_log2_p_rounds(self, p):
        problem = BroadcastProblem(line(p), (0,), message_size=64)
        schedule = MPIAllGather().build_schedule(problem)
        bcast = rounds_labelled(schedule, "bcast")
        assert len(bcast) == math.ceil(math.log2(p))
        assert [t.src for t in bcast[0]] == [0]


class TestPipelinedRing:
    @staticmethod
    def build(p, sources):
        sizes = {src: 300 + 97 * i for i, src in enumerate(sources)}
        problem = BroadcastProblem(
            pipelined(p), sources, message_size=300, sizes=sizes
        )
        return problem, MPIAllGather().build_schedule(problem)

    def test_ring_follows_the_linear_order_from_the_root(self, p):
        problem, schedule = self.build(p, (0, p - 1))
        edges = {
            (t.src, t.dst)
            for rnd in rounds_labelled(schedule, "ring")
            for t in rnd
        }
        order = problem.machine.linear_order()
        assert edges == set(zip(order, order[1:]))

    def test_every_edge_carries_every_message_whole_and_in_source_order(
        self, p, sources
    ):
        problem, schedule = self.build(p, sources)
        carried = defaultdict(list)
        for rnd in rounds_labelled(schedule, "ring"):
            for t in rnd:
                (msg,) = t.msgset
                carried[(t.src, t.dst)].append((msg, t.nbytes(problem)))
        assert len(carried) == p - 1
        for items in carried.values():
            msgs = [msg for msg, _ in items]
            assert [k for k, _ in itertools.groupby(msgs)] == list(
                problem.sources
            )
            for src in problem.sources:
                segments = [n for msg, n in items if msg == src]
                size = problem.size_of(src)
                assert len(segments) == math.ceil(size / SEGMENT)
                assert sum(segments) == size
                assert max(segments) <= SEGMENT

    def test_each_rank_forwards_at_most_one_segment_per_round(self, p):
        problem, schedule = self.build(p, tuple(range(p)))
        ring = rounds_labelled(schedule, "ring")
        for rnd in ring:
            senders = [t.src for t in rnd]
            receivers = [t.dst for t in rnd]
            assert len(set(senders)) == len(senders)
            assert len(set(receivers)) == len(receivers)
        items = sum(
            math.ceil(problem.size_of(src) / SEGMENT) for src in problem.sources
        )
        # The last item enters the first edge in round items - 1 and
        # needs p - 2 more rounds to cross the remaining edges.
        assert len(ring) == items + p - 2


class TestPersonalizedExchange:
    def test_each_source_reaches_every_other_rank_exactly_once(
        self, p, sources
    ):
        problem = BroadcastProblem(line(p), sources, message_size=64)
        schedule = MPIAlltoAll().build_schedule(problem)
        assert schedule.num_rounds == p - 1
        sent = sorted(zip(schedule.send_src, schedule.send_dst))
        assert sent == [
            (src, dst) for src in sorted(sources) for dst in range(p) if dst != src
        ]

    def test_null_contributions_send_nothing(self, p):
        problem = BroadcastProblem(line(p), (2,), message_size=64)
        tracer = Tracer(kinds=("send",))
        result = run_broadcast(
            problem, "MPI_Alltoall", engine="event", tracer=tracer
        )
        assert result.metrics.total_messages == p - 1
        assert {rec.fields["src"] for rec in tracer} == {2}


VARIANTS = [
    ("MPI_AllGather", "monolithic"),
    ("MPI_AllGather", "pipelined"),
    ("MPI_Alltoall", "monolithic"),
]


class TestDeliveryOverTheMessageLayer:
    @pytest.mark.parametrize(
        "algorithm,style", VARIANTS, ids=["-".join(v) for v in VARIANTS]
    )
    def test_every_rank_ends_with_every_contribution(
        self, algorithm, style, p, sources
    ):
        machine = line(
            p, collective_style=style, collective_segment_bytes=SEGMENT
        )
        problem = BroadcastProblem(machine, sources, message_size=600)
        # The event engine raises VerificationError when a rank's
        # simulated holdings fall short of the full source set.
        event = run_broadcast(problem, algorithm, engine="event")
        assert event.complete
        assert event.metrics.total_messages == event.num_transfers
        assert run_broadcast(problem, algorithm, engine="fast") == event


#: Binary-exact parameters, so hand-counted times compare with ``==``.
EXACT = MachineParams(
    name="exact",
    t_send_overhead=8.0,
    t_recv_overhead=4.0,
    t_byte=0.25,
    t_hop=0.5,
    t_mem_byte=0.125,
)

#: (collective_overhead_scale, mpi_overhead_scale, collective_mem_scale)
TIERS = {
    "flat": (1.0, 1.0, 1.0),
    "cheap-collective": (0.25, 1.0, 1.0),
    "mpi-penalty": (1.0, 2.0, 1.0),
    "direct-deposit": (1.0, 1.0, 0.5),
}


def two_ranks(tier) -> Machine:
    cs, ms, cms = tier
    return Machine(
        LinearArray(2),
        EXACT.with_overrides(
            collective_overhead_scale=cs,
            mpi_overhead_scale=ms,
            collective_mem_scale=cms,
        ),
    )


def message_time(overhead_scale: float, mem_scale: float) -> float:
    """One 64-byte neighbour message under :data:`EXACT`: send and
    receive overheads, one hop plus 64 bytes on the wire, and the
    receive copy."""
    return 12.0 * overhead_scale + (0.5 + 64 * 0.25) + 64 * 0.125 * mem_scale


class TestCollectiveTier:
    # (algorithm, sources, messages on the critical path): MPI_Alltoall
    # sends 0 -> 1 once; MPI_AllGather gathers 1 -> 0, then broadcasts
    # 0 -> 1, one message after the other.
    CASES = [("MPI_Alltoall", (0,), 1), ("MPI_AllGather", (1,), 2)]

    @pytest.mark.parametrize("engine", ["event", "fast"])
    @pytest.mark.parametrize("tier", sorted(TIERS))
    @pytest.mark.parametrize(
        "algorithm,sources,messages", CASES, ids=[c[0] for c in CASES]
    )
    def test_collective_rounds_pay_every_collective_tier(
        self, algorithm, sources, messages, tier, engine
    ):
        cs, ms, cms = TIERS[tier]
        problem = BroadcastProblem(
            two_ranks(TIERS[tier]), sources, message_size=64
        )
        result = run_broadcast(problem, algorithm, engine=engine)
        assert result.elapsed_us == messages * message_time(cs * ms, cms)

    @pytest.mark.parametrize("engine", ["event", "fast"])
    @pytest.mark.parametrize(
        "algorithm,sources,messages",
        [("PersAlltoAll", (0,), 1), ("2-Step", (1,), 2)],
        ids=["PersAlltoAll", "2-Step"],
    )
    def test_point_to_point_twins_ignore_the_collective_tiers(
        self, algorithm, sources, messages, engine
    ):
        problem = BroadcastProblem(
            two_ranks((0.25, 2.0, 0.5)), sources, message_size=64
        )
        result = run_broadcast(problem, algorithm, engine=engine)
        assert result.elapsed_us == messages * message_time(1.0, 1.0)
