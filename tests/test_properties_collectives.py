"""Property-based tests (hypothesis) for the library collectives."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machines import Machine
from repro.mpsim import collectives as coll
from repro.network.linear import LinearArray
from tests.conftest import TEST_PARAMS

sizes = st.integers(2, 9)


def make_machine(n: int) -> Machine:
    return Machine(LinearArray(n), TEST_PARAMS)


@settings(max_examples=25, deadline=None)
@given(n=sizes, root=st.integers(0, 8))
def test_bcast_reaches_everyone_from_any_root(n, root):
    machine = make_machine(n)
    root %= n

    def program(comm):
        data = "payload" if comm.rank == root else None
        data = yield from coll.bcast(comm, data, nbytes=128, root=root)
        return data

    result = machine.run(program)
    assert all(v == "payload" for v in result.returns)


@settings(max_examples=25, deadline=None)
@given(n=sizes, data=st.data())
def test_allgatherv_with_random_counts(n, data):
    machine = make_machine(n)
    counts = data.draw(
        st.lists(
            st.sampled_from([0, 16, 64]), min_size=n, max_size=n
        ).filter(lambda c: sum(c) > 0),
        label="counts",
    )

    def program(comm):
        mine = comm.rank if counts[comm.rank] else None
        items = yield from coll.allgatherv(
            comm, mine, counts[comm.rank], counts
        )
        return tuple(items)

    result = machine.run(program)
    expected = tuple(
        r if counts[r] else None for r in range(n)
    )
    assert all(v == expected for v in result.returns)


@settings(max_examples=25, deadline=None)
@given(n=sizes, root=st.integers(0, 8))
def test_scatter_delivers_rank_indexed_items(n, root):
    machine = make_machine(n)
    root %= n

    def program(comm):
        items = (
            [f"#{r}" for r in range(comm.size)] if comm.rank == root else None
        )
        mine = yield from coll.scatter(comm, items, nbytes_each=32, root=root)
        return mine

    result = machine.run(program)
    assert list(result.returns) == [f"#{r}" for r in range(n)]


@settings(max_examples=25, deadline=None)
@given(n=sizes, root=st.integers(0, 8), values=st.data())
def test_reduce_computes_sum_for_any_values(n, root, values):
    machine = make_machine(n)
    root %= n
    xs = values.draw(
        st.lists(st.integers(-50, 50), min_size=n, max_size=n), label="xs"
    )

    def program(comm):
        return (
            yield from coll.reduce(
                comm, xs[comm.rank], nbytes=8, op=lambda a, b: a + b, root=root
            )
        )

    result = machine.run(program)
    assert result.returns[root] == sum(xs)


@settings(max_examples=20, deadline=None)
@given(n=sizes)
def test_ring_allgather_equivalent_to_allgatherv(n):
    """Two independent allgather implementations must agree."""
    machine = make_machine(n)
    counts = [32] * n

    def program(comm):
        ring = yield from coll.ring_allgather(comm, comm.rank * 3, nbytes=32)
        flat = yield from coll.allgatherv(comm, comm.rank * 3, 32, counts)
        return (tuple(ring), tuple(flat))

    result = machine.run(program)
    for ring, flat in result.returns:
        assert ring == flat == tuple(r * 3 for r in range(n))


@settings(max_examples=20, deadline=None)
@given(n=sizes, late=st.integers(0, 8))
def test_barrier_holds_everyone_for_the_latest(n, late):
    machine = make_machine(n)
    late %= n

    def program(comm):
        if comm.rank == late:
            yield from comm.compute(777.0)
        entered = comm.now
        yield from coll.barrier(comm)
        return (entered, comm.now)

    result = machine.run(program)
    latest_entry = max(e for e, _ in result.returns)
    assert all(left >= latest_entry for _, left in result.returns)
