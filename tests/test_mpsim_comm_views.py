"""Communicator mode flags and the world's rank lookup.

A rank has one :class:`~repro.mpsim.comm.Comm`; the schedule executor
flips its ``collective`` / ``mpi`` flags per round.  A message sent
under flipped flags delivers exactly like one sent in the default mode.
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


class TestModeFlags:
    def test_flipped_mode_messages_behave_like_default_mode(self, machine):
        """A send under the collective flag delivers like a default one."""

        def program(comm):
            comm.collective = True
            if comm.rank == 0:
                yield from comm.send(1, "flipped", nbytes=32, tag=3)
            elif comm.rank == 1:
                env = yield from comm.recv(source=0, tag=3)
                return (env.payload, env.source, env.nbytes)

        result = machine.run(program)
        assert result.returns[1] == ("flipped", 0, 32)


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
