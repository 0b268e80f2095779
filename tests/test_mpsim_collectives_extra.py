"""Unit tests for the extended collectives (scatter/reduce/ring)."""

from __future__ import annotations

import pytest

from repro.errors import CommError
from repro.machines import Machine
from repro.mpsim import collectives as coll
from repro.network.linear import LinearArray
from tests.conftest import TEST_PARAMS


@pytest.fixture(params=[3, 6, 8])
def machine(request):
    return Machine(LinearArray(request.param), TEST_PARAMS)


class TestScatter:
    def test_each_rank_gets_its_item(self, machine):
        def program(comm):
            items = (
                [f"item{r}" for r in range(comm.size)]
                if comm.rank == 0
                else None
            )
            mine = yield from coll.scatter(comm, items, nbytes_each=128)
            return mine

        result = machine.run(program)
        assert list(result.returns) == [f"item{r}" for r in range(machine.p)]

    def test_nonzero_root(self, machine):
        root = machine.p - 1

        def program(comm):
            items = (
                [r * 2 for r in range(comm.size)] if comm.rank == root else None
            )
            mine = yield from coll.scatter(comm, items, nbytes_each=64, root=root)
            return mine

        result = machine.run(program)
        assert list(result.returns) == [r * 2 for r in range(machine.p)]

    def test_root_without_payloads_raises(self, machine):
        def program(comm):
            yield from coll.scatter(comm, None, nbytes_each=8)

        with pytest.raises(CommError):
            machine.run(program)

    def test_message_count_logarithmic_at_root(self, machine):
        """Binomial scatter: the root sends ceil(log2 p) bundles."""

        def program(comm):
            items = list(range(comm.size)) if comm.rank == 0 else None
            yield from coll.scatter(comm, items, nbytes_each=64)

        result = machine.run(program)
        # total message count of a binomial scatter is p - 1
        assert result.metrics.total_messages == machine.p - 1


class TestReduce:
    def test_sum_at_root(self, machine):
        def program(comm):
            return (
                yield from coll.reduce(
                    comm, comm.rank + 1, nbytes=8, op=lambda a, b: a + b
                )
            )

        result = machine.run(program)
        p = machine.p
        assert result.returns[0] == p * (p + 1) // 2
        assert all(v is None for v in result.returns[1:])

    def test_non_commutative_safety_with_max(self, machine):
        def program(comm):
            return (
                yield from coll.reduce(
                    comm, comm.rank, nbytes=8, op=max, root=1
                )
            )

        result = machine.run(program)
        assert result.returns[1] == machine.p - 1

    def test_allreduce_everywhere(self, machine):
        def program(comm):
            return (
                yield from coll.allreduce(
                    comm, comm.rank + 1, nbytes=8, op=lambda a, b: a + b
                )
            )

        result = machine.run(program)
        p = machine.p
        assert all(v == p * (p + 1) // 2 for v in result.returns)


class TestRingAllgather:
    def test_everyone_collects_everything(self, machine):
        def program(comm):
            items = yield from coll.ring_allgather(
                comm, f"x{comm.rank}", nbytes=64
            )
            return tuple(items)

        result = machine.run(program)
        expected = tuple(f"x{r}" for r in range(machine.p))
        assert all(v == expected for v in result.returns)

    def test_message_count_is_p_times_p_minus_1(self, machine):
        def program(comm):
            yield from coll.ring_allgather(comm, comm.rank, nbytes=32)

        result = machine.run(program)
        p = machine.p
        assert result.metrics.total_messages == p * (p - 1)

    def test_per_rank_traffic_balanced(self, machine):
        """Every rank sends exactly p - 1 messages (bandwidth optimal)."""

        def program(comm):
            yield from coll.ring_allgather(comm, comm.rank, nbytes=32)

        # use a fresh collector via machine.run, then inspect totals
        result = machine.run(program)
        assert result.metrics.send_recv_ops == 2 * (machine.p - 1)
