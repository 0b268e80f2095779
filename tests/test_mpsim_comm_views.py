"""Communicator-view semantics: mode caching, interning, localization.

``Comm.with_mode`` and ``Comm.sub`` are cheap *views* after the
hot-path overhaul — they skip re-validation, share interned group
index dicts, and cache mode variants.  These tests pin the sharing
contracts and prove the views are behaviorally interchangeable with
freshly built communicators.
"""

from __future__ import annotations

import pytest

from repro.errors import CommError
from repro.machines import Machine
from repro.network.linear import LinearArray
from tests.conftest import TEST_PARAMS


@pytest.fixture
def machine():
    return Machine(LinearArray(6), TEST_PARAMS)


class TestWithMode:
    def test_same_mode_returns_self(self, machine):
        def program(comm):
            same = comm.with_mode(collective=False, mpi=False)
            default = comm.with_mode()
            return (same is comm, default is comm)
            yield  # pragma: no cover - makes this a generator

        result = machine.run(program)
        assert result.returns[0] == (True, True)

    def test_mode_variants_are_cached(self, machine):
        def program(comm):
            a = comm.with_mode(collective=True)
            b = comm.with_mode(collective=True)
            c = comm.with_mode(collective=True, mpi=True)
            return (a is b, a is c, a.collective, a.mpi, c.mpi)
            yield  # pragma: no cover

        result = machine.run(program)
        assert result.returns[0] == (True, False, True, False, True)

    def test_views_share_group_index_and_iteration_cell(self, machine):
        def program(comm):
            view = comm.with_mode(collective=True)
            shared_before = view._iteration_cell is comm._iteration_cell
            comm.iteration = 7
            return (
                shared_before,
                view.iteration,
                view.group is comm.group,
                view._index is comm._index,
            )
            yield  # pragma: no cover

        result = machine.run(program)
        assert result.returns[0] == (True, 7, True, True)

    def test_mode_view_messages_behave_like_base_comm(self, machine):
        """A send through a cached view delivers exactly like the base."""

        def program(comm):
            mode = comm.with_mode(collective=True)
            if comm.rank == 0:
                yield from mode.send(1, "via-view", nbytes=32, tag=3)
            elif comm.rank == 1:
                env = yield from mode.recv(source=0, tag=3)
                return (env.payload, env.source, env.nbytes)

        result = machine.run(program)
        assert result.returns[1] == ("via-view", 0, 32)


class TestSub:
    def test_non_member_gets_none_even_with_duplicates(self, machine):
        """Membership is checked before duplicate rejection (seed
        behavior: the constructor never ran for non-members)."""

        def program(comm):
            if comm.rank == 5:
                return comm.sub([0, 0]) is None
            return True
            yield  # pragma: no cover

        result = machine.run(program)
        assert result.returns[5] is True

    def test_member_duplicate_group_raises(self, machine):
        def program(comm):
            if comm.rank == 0:
                try:
                    comm.sub([0, 0])
                except CommError:
                    return "raised"
                return "no-error"
            return None
            yield  # pragma: no cover

        result = machine.run(program)
        assert result.returns[0] == "raised"

    def test_sub_recv_localizes_source_to_group_rank(self, machine):
        """Envelope sources come back as *group* ranks via the interned
        world->group index."""

        def program(comm):
            sub = comm.sub([2, 4])
            if sub is None:
                return None
            if sub.rank == 0:  # world rank 2
                yield from sub.send(1, "hello", nbytes=16)
                return sub.group
            env = yield from sub.recv(source=0)
            return (env.source, env.dest, env.payload)

        result = machine.run(program)
        assert result.returns[2] == (2, 4)
        assert result.returns[4] == (0, 1, "hello")

    def test_world_comm_rank_out_of_range(self, machine):
        def program(comm):
            with pytest.raises(CommError):
                comm.world.comm(99)
            with pytest.raises(CommError):
                comm.world.comm(-1)
            return "ok"
            yield  # pragma: no cover

        result = machine.run(program)
        assert result.returns[0] == "ok"

    def test_group_index_interned_per_group_tuple(self, machine):
        def program(comm):
            world = comm.world
            a = world.group_index((1, 3, 5))
            b = world.group_index((1, 3, 5))
            return (a is b, a)
            yield  # pragma: no cover

        result = machine.run(program)
        same, index = result.returns[0]
        assert same is True
        assert index == {1: 0, 3: 1, 5: 2}
