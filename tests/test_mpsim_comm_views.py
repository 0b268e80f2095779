"""Communicator-view semantics: mode caching and shared state.

``Comm.with_mode`` returns cheap cached *views* of a rank's world
communicator that share its iteration cell.  These tests pin the
sharing contracts and prove the views are behaviorally interchangeable
with the base communicator.
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

    def test_views_share_iteration_cell(self, machine):
        def program(comm):
            view = comm.with_mode(collective=True)
            shared_before = view._iteration_cell is comm._iteration_cell
            comm._iteration_cell[0] = 7
            return (shared_before, view._iteration_cell[0])
            yield  # pragma: no cover

        result = machine.run(program)
        assert result.returns[0] == (True, 7)

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


class TestWorld:
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
