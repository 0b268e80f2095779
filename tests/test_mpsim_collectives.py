"""Unit tests for the library collectives."""

from __future__ import annotations

import pytest

from repro.machines import Machine
from repro.mpsim import collectives as coll
from repro.mpsim.collectives import xor_or_cyclic_partner
from repro.network.linear import LinearArray
from repro.errors import CommError
from tests.conftest import TEST_PARAMS


@pytest.fixture(params=[5, 8])
def machine(request):
    """Both a power-of-two and a non-power-of-two group size."""
    return Machine(LinearArray(request.param), TEST_PARAMS)


class TestBarrier:
    def test_no_rank_leaves_before_last_enters(self, machine):
        def program(comm):
            if comm.rank == 0:
                yield from comm.compute(500.0)  # last to enter
            entered = comm.now
            yield from coll.barrier(comm)
            left = comm.now
            return (entered, left)

        result = machine.run(program)
        latest_entry = max(entered for entered, _ in result.returns)
        for _, left in result.returns:
            assert left >= latest_entry


class TestBcast:
    @pytest.mark.parametrize("root", [0, 1, 3])
    def test_all_ranks_get_payload(self, machine, root):
        def program(comm):
            data = f"r{root}" if comm.rank == root else None
            data = yield from coll.bcast(comm, data, nbytes=256, root=root)
            return data

        result = machine.run(program)
        assert all(v == f"r{root}" for v in result.returns)

    def test_binomial_message_count(self, machine):
        """A binomial tree sends exactly p - 1 messages."""

        def program(comm):
            yield from coll.bcast(comm, "x", nbytes=64, root=0)

        result = machine.run(program)
        assert result.metrics.total_messages == machine.p - 1


class TestGather:
    def test_root_collects_in_rank_order(self, machine):
        def program(comm):
            items = yield from coll.gather(comm, comm.rank * 10, nbytes=8, root=0)
            return items

        result = machine.run(program)
        assert result.returns[0] == [r * 10 for r in range(machine.p)]
        assert all(v is None for v in result.returns[1:])

    def test_gatherv_skips_zero_counts(self, machine):
        counts = [16 if r % 2 == 0 else 0 for r in range(machine.p)]

        def program(comm):
            mine = comm.rank if counts[comm.rank] else None
            items = yield from coll.gatherv(
                comm, mine, counts[comm.rank], counts, root=0
            )
            return items

        result = machine.run(program)
        gathered = result.returns[0]
        for rank in range(machine.p):
            assert gathered[rank] == (rank if counts[rank] else None)
        # Only non-zero non-root ranks sent anything.
        expected_msgs = sum(1 for r in range(1, machine.p) if counts[r])
        assert result.metrics.total_messages == expected_msgs

    def test_gatherv_count_mismatch_raises(self, machine):
        def program(comm):
            yield from coll.gatherv(comm, None, 32, [0] * comm.size, root=0)

        with pytest.raises(CommError):
            machine.run(program)


class TestAllgatherv:
    def test_everyone_gets_everything(self, machine):
        counts = [8 * (r + 1) if r != 1 else 0 for r in range(machine.p)]

        def program(comm):
            mine = f"data{comm.rank}" if counts[comm.rank] else None
            items = yield from coll.allgatherv(
                comm, mine, counts[comm.rank], counts
            )
            return tuple(items)

        result = machine.run(program)
        expected = tuple(
            f"data{r}" if counts[r] else None for r in range(machine.p)
        )
        assert all(v == expected for v in result.returns)


class TestAlltoall:
    def test_personalized_exchange(self, machine):
        p = machine.p

        def program(comm):
            payloads = [f"{comm.rank}->{d}" for d in range(p)]
            counts = [[32] * p for _ in range(p)]
            got = yield from coll.alltoall(comm, payloads, counts)
            return tuple(got)

        result = machine.run(program)
        for rank, got in enumerate(result.returns):
            assert got == tuple(f"{src}->{rank}" for src in range(p))

    def test_null_messages_skipped(self, machine):
        p = machine.p
        counts = [[0] * p for _ in range(p)]
        for d in range(p):
            counts[0][d] = 16  # only rank 0 has data

        def program(comm):
            payloads = [f"m{d}" for d in range(p)]
            got = yield from coll.alltoall(comm, payloads, counts)
            return tuple(got)

        result = machine.run(program)
        for rank, got in enumerate(result.returns):
            for src in range(p):
                if src == rank:
                    continue
                if src == 0:
                    assert got[src] == f"m{rank}"
                else:
                    assert got[src] is None
        assert result.metrics.total_messages == p - 1


class TestPartnerGeneration:
    def test_xor_for_powers_of_two(self):
        dst, src = xor_or_cyclic_partner(3, 8, 5)
        assert dst == src == 3 ^ 5

    def test_cyclic_for_other_sizes(self):
        dst, src = xor_or_cyclic_partner(2, 10, 3)
        assert dst == 5
        assert src == (2 - 3) % 10

    def test_rounds_form_permutations(self):
        for size in (7, 8, 12):
            for k in range(1, size):
                dsts = [xor_or_cyclic_partner(r, size, k)[0] for r in range(size)]
                assert sorted(dsts) == list(range(size)), (size, k)

    def test_recv_matches_send(self):
        """If i sends to dst, then dst's source partner must be i."""
        for size in (7, 8):
            for k in range(1, size):
                for rank in range(size):
                    dst, _ = xor_or_cyclic_partner(rank, size, k)
                    _, src_of_dst = xor_or_cyclic_partner(dst, size, k)
                    assert src_of_dst == rank

    def test_round_bounds_checked(self):
        with pytest.raises(CommError):
            xor_or_cyclic_partner(0, 8, 0)
        with pytest.raises(CommError):
            xor_or_cyclic_partner(0, 8, 8)
