"""Shared fixtures: small machines and problems used across the suite."""

from __future__ import annotations

import pytest

from repro.core.problem import BroadcastProblem
from repro.machines import Machine, MachineParams, paragon, t3d
from repro.network.linear import LinearArray

#: Cheap, fast parameters for unit tests where absolute times are
#: irrelevant — overheads and byte costs chosen to make hand-computed
#: expectations easy (10 + 0.01/byte send path, 5 + 0.02/byte receive).
TEST_PARAMS = MachineParams(
    name="test",
    t_send_overhead=10.0,
    t_recv_overhead=5.0,
    t_byte=0.01,
    t_hop=0.1,
    t_mem_byte=0.02,
    route_setup=0.0,
)


def model_is_exact(problem: BroadcastProblem) -> bool:
    """Where the contention-free model must equal the simulation.

    Wormhole switching (the model charges wormhole wire time) and one
    message size for every source (with mixed sizes two messages
    between one pair in one round can overtake each other, and the
    engines match them in arrival order).  See
    :mod:`repro.core.predict`.
    """
    sizes = {problem.size_of(source) for source in problem.sources}
    return problem.machine.params.switching == "wormhole" and len(sizes) == 1


@pytest.fixture
def small_paragon() -> Machine:
    """A 4x5 Paragon submesh (20 ranks, odd/even mixed dimensions)."""
    return paragon(4, 5)


@pytest.fixture
def square_paragon() -> Machine:
    """The paper's canonical 10x10 Paragon."""
    return paragon(10, 10)


@pytest.fixture
def small_t3d() -> Machine:
    """A 32-processor T3D partition (random mapping)."""
    return t3d(32)


@pytest.fixture
def line_machine() -> Machine:
    """An 8-node linear array with simple test parameters."""
    return Machine(LinearArray(8), TEST_PARAMS)


@pytest.fixture
def small_problem(small_paragon) -> BroadcastProblem:
    """5 sources on the 4x5 Paragon, 1 KiB messages."""
    return BroadcastProblem(
        small_paragon, sources=(0, 3, 7, 12, 19), message_size=1024
    )
