"""Unit tests for the point-to-point communication layer."""

from __future__ import annotations

import pytest

from repro.errors import CommError
from repro.machines import Machine
from repro.mpsim import ANY_SOURCE, ANY_TAG
from repro.network.linear import LinearArray
from tests.conftest import TEST_PARAMS


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
                yield from comm.compute(100.0)  # sender is late
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


class TestGroups:
    def test_sub_communicator_rank_translation(self, machine):
        def program(comm):
            sub = comm.sub([1, 3, 5])
            if sub is None:
                return None
            if sub.rank == 0:
                yield from sub.send(2, "hello-sub", nbytes=10, tag=0)
            elif sub.rank == 2:
                env = yield from sub.recv(source=0, tag=0)
                return (env.payload, env.source, sub.world_rank)

        result = machine.run(program)
        assert result.returns[5] == ("hello-sub", 0, 5)
        assert result.returns[0] is None

    def test_sub_returns_none_for_outsiders(self, machine):
        def program(comm):
            sub = comm.sub([0, 1])
            return sub is None
            yield

        result = machine.run(program)
        assert result.returns[2] is True
        assert result.returns[0] is False

    def test_duplicate_group_rejected(self, machine):
        def program(comm):
            comm.sub([0, 0])
            yield comm.world.engine.timeout(0)

        with pytest.raises(CommError):
            machine.run(program)

    def test_with_mode_flips_overheads(self, machine):
        def program(comm):
            lib = comm.with_mode(collective=True)
            assert lib.collective and not comm.collective
            assert lib.group == comm.group
            return None
            yield

        machine.run(program)

    def test_iteration_cell_shared_across_views(self, machine):
        def program(comm):
            lib = comm.with_mode(collective=True)
            comm.iteration = 4
            return lib.iteration
            yield

        result = machine.run(program)
        assert result.returns[0] == 4
