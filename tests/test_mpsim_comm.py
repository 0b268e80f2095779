"""Unit tests for the point-to-point communication layer."""

from __future__ import annotations

import pytest

from repro.errors import CommError, RecvTimeoutError
from repro.machines import Machine
from repro.mpsim import ANY_SOURCE, ANY_TAG
from repro.network.linear import LinearArray
from repro.simulator.trace import Tracer
from tests.conftest import TEST_PARAMS

#: Binary-exact timing on two neighbours: a 16-byte message leaves after
#: the 8 us send overhead and lands 0.5 + 16 * 0.25 us later.
EXACT = TEST_PARAMS.with_overrides(t_send_overhead=8.0, t_byte=0.25, t_hop=0.5)
ARRIVAL = 12.5


@pytest.fixture
def machine():
    return Machine(LinearArray(6), TEST_PARAMS)


class TestSendRecv:
    def test_payload_roundtrip(self, machine):
        def program(comm):
            if comm.rank == 0:
                yield from comm.send(1, {"k": 1}, nbytes=64, tag=5)
            elif comm.rank == 1:
                env = yield from comm.recv(source=0, tag=5)
                return (env.payload, env.source, env.tag, env.nbytes)

        result = machine.run(program)
        assert result.returns[1] == ({"k": 1}, 0, 5, 64)

    def test_tag_matching_out_of_order_arrival(self, machine):
        """A receive for tag 2 must not consume the tag-1 message."""

        def program(comm):
            if comm.rank == 0:
                yield from comm.send(1, "first", nbytes=10, tag=1)
                yield from comm.send(1, "second", nbytes=10, tag=2)
            elif comm.rank == 1:
                env2 = yield from comm.recv(source=0, tag=2)
                env1 = yield from comm.recv(source=0, tag=1)
                return (env1.payload, env2.payload)

        result = machine.run(program)
        assert result.returns[1] == ("first", "second")

    def test_any_source_any_tag(self, machine):
        def program(comm):
            if comm.rank in (0, 2):
                yield from comm.send(1, f"from{comm.rank}", nbytes=10, tag=comm.rank)
            elif comm.rank == 1:
                a = yield from comm.recv(source=ANY_SOURCE, tag=ANY_TAG)
                b = yield from comm.recv(source=ANY_SOURCE, tag=ANY_TAG)
                return sorted([a.payload, b.payload])

        result = machine.run(program)
        assert result.returns[1] == ["from0", "from2"]

    def test_non_overtaking_same_source_tag(self, machine):
        def program(comm):
            if comm.rank == 0:
                yield from comm.send(1, "one", nbytes=10, tag=7)
                yield from comm.send(1, "two", nbytes=10, tag=7)
            elif comm.rank == 1:
                a = yield from comm.recv(source=0, tag=7)
                b = yield from comm.recv(source=0, tag=7)
                return (a.payload, b.payload)

        result = machine.run(program)
        assert result.returns[1] == ("one", "two")

    def test_self_send(self, machine):
        def program(comm):
            if comm.rank == 2:
                req = yield from comm.isend(2, "me", nbytes=10, tag=0)
                env = yield from comm.recv(source=2, tag=0)
                yield from req.wait()
                return env.payload

        result = machine.run(program)
        assert result.returns[2] == "me"

    @pytest.mark.parametrize(
        "op,rank", [("isend", 6), ("send", -1), ("recv", 6), ("recv", -2)]
    )
    def test_rank_outside_world_rejected(self, machine, op, rank):
        def program(comm):
            if comm.rank == 0:
                if op == "recv":
                    yield from comm.recv(source=rank, tag=0)
                else:
                    yield from getattr(comm, op)(rank, None, nbytes=1)

        with pytest.raises(CommError, match=f"rank {rank} outside world"):
            machine.run(program)

    def test_negative_tag_rejected(self, machine):
        def program(comm):
            if comm.rank == 0:
                yield from comm.send(1, None, nbytes=1, tag=-3)

        with pytest.raises(CommError):
            machine.run(program)

    def test_isend_returns_before_delivery(self, machine):
        def program(comm):
            if comm.rank == 0:
                req = yield from comm.isend(5, None, nbytes=100_000, tag=0)
                issued_at = comm.now
                yield from req.wait()
                done_at = comm.now
                return (issued_at, done_at)
            if comm.rank == 5:
                yield from comm.recv(source=0, tag=0)

        result = machine.run(program)
        issued_at, done_at = result.returns[0]
        assert done_at > issued_at  # wait covered the wire time


class TestBlockingSemantics:
    def test_recv_wait_time_recorded(self, machine):
        def program(comm):
            if comm.rank == 0:
                yield comm.world.engine.timeout(100.0)  # sender is late
                yield from comm.send(1, None, nbytes=10, tag=0)
            elif comm.rank == 1:
                yield from comm.recv(source=0, tag=0)

        result = machine.run(program)
        assert result.metrics.total_recv_wait > 90.0

    def test_pairwise_exchange_no_deadlock(self, machine):
        """Blocking sends are eager: both partners may send first."""

        def program(comm):
            partner = comm.rank ^ 1
            if partner >= comm.size:
                return None
            yield from comm.send(partner, comm.rank, nbytes=64, tag=0)
            env = yield from comm.recv(source=partner, tag=0)
            return env.payload

        result = machine.run(program)
        assert result.returns[0] == 1
        assert result.returns[1] == 0


class TestModes:
    def test_mode_flags_flip_overheads(self):
        """Each flag flip charges the next send its mode's overhead."""
        params = EXACT.with_overrides(
            collective_overhead_scale=0.25, mpi_overhead_scale=2.0
        )
        modes = [(False, False), (True, False), (True, True), (False, False)]

        def program(comm):
            if comm.rank == 1:
                for _ in modes:
                    yield from comm.recv(source=0)
                return None
            issued = []
            for collective, mpi in modes:
                comm.collective, comm.mpi = collective, mpi
                start = comm.now
                request = yield from comm.isend(1, None, nbytes=16)
                issued.append(comm.now - start)
                yield from request.wait()
            return issued

        result = Machine(LinearArray(2), params).run(program)
        assert result.returns[0] == [8.0, 2.0, 4.0, 8.0]

    def test_iteration_buckets_metrics(self, machine):
        """Operations count under the iteration set when they are issued."""

        def program(comm):
            if comm.rank > 1:
                return None
            for iteration in (4, 7):
                comm.iteration = iteration
                if comm.rank == 0:
                    yield from comm.send(1, None, nbytes=16)
                else:
                    yield from comm.recv(source=0)

        result = machine.run(program)
        assert [it for it, _ in result.metrics.iteration_times] == [4, 7]


def late_message_run(receiver, tracer=None):
    """Rank 0 sends 16 bytes to rank 1 at t=0 (landing at ``ARRIVAL``);
    ``receiver`` is rank 1's program."""

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(1, "late", nbytes=16, tag=3)
            return None
        return (yield from receiver(comm))

    return Machine(LinearArray(2), EXACT).run(program, tracer=tracer)


class TestRecvTimeout:
    def test_expiry_raises_and_is_traced(self):
        tracer = Tracer(kinds=("recv_timeout",))

        def receiver(comm):
            try:
                yield from comm.recv(source=0, tag=3, timeout_us=5.0)
            except RecvTimeoutError:
                return comm.now

        result = late_message_run(receiver, tracer)
        assert result.returns[1] == 5.0
        (record,) = tracer
        assert record.fields == {"rank": 1, "src": 0, "tag": 3, "budget_us": 5.0}

    def test_message_after_expiry_waits_for_the_next_recv(self):
        def receiver(comm):
            with pytest.raises(RecvTimeoutError):
                yield from comm.recv(source=0, tag=3, timeout_us=5.0)
            env = yield from comm.recv(source=0, tag=3)
            return (env.payload, env.arrival_time)

        result = late_message_run(receiver)
        assert result.returns[1] == ("late", ARRIVAL)

    def test_arrival_at_the_expiry_instant_is_received_not_lost(self):
        tracer = Tracer(kinds=("recv_timeout",))

        def receiver(comm):
            env = yield from comm.recv(source=0, tag=3, timeout_us=ARRIVAL)
            return env.payload

        result = late_message_run(receiver, tracer)
        assert result.returns[1] == "late"
        assert len(tracer) == 0

    @pytest.mark.parametrize("budget", [0.0, -1.0])
    def test_non_positive_budget_rejected(self, machine, budget):
        def program(comm):
            if comm.rank == 1:
                yield from comm.recv(source=0, timeout_us=budget)

        with pytest.raises(CommError, match="timeout must be positive"):
            machine.run(program)
