"""The lowering and the bind against their per-transfer references.

``lower_schedule`` sums each message set once per lowering and builds
its op streams per round; ``bind_plan`` resolves one route per distinct
rank pair.  These tests hold the lowering to ``tests/lowering_reference.py``
— the per-transfer lowering it replaced, kept verbatim and fed the
schedule through ``tests/schedule_view.py``'s adapter — field by field
for every registered algorithm on a small grid, and the bind to one
``route_links`` call per send.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.algorithms import get_algorithm, list_algorithms
from repro.core.problem import BroadcastProblem
from repro.fastpath.evaluator import bind_plan
from repro.fastpath.lowering import lower_schedule
from repro.machines import machine_from_spec
from repro.network import topology as topology_mod
from tests import lowering_reference as reference
from tests.schedule_view import rounds_view

#: Machines of the grid: a mesh, a T3D (random ranks, pipelined
#: MPI_AllGather) and a T3D whose 256-byte segments split messages.
MACHINES = ("paragon:4x4", "t3d:16", "t3d:16+collective_segment_bytes=256")
SOURCES = ((0,), (1, 6, 11), tuple(range(0, 16, 2)))


def _problems(spec):
    machine = machine_from_spec(spec)
    for sources in SOURCES:
        yield BroadcastProblem(machine=machine, sources=sources, message_size=512)
    # Varied sizes, one per source, some spanning several segments.
    sources = SOURCES[2]
    yield BroadcastProblem(
        machine=machine,
        sources=sources,
        sizes={rank: 100 + 97 * i for i, rank in enumerate(sources)},
    )


def _fields(plan):
    return {f.name: getattr(plan, f.name) for f in dataclasses.fields(plan)}


@pytest.mark.parametrize(
    "spec,algorithm",
    [
        (spec, algorithm)
        for spec in MACHINES
        for algorithm in list_algorithms()
        if get_algorithm(algorithm).supports(machine_from_spec(spec))
    ],
)
def test_lowering_equals_per_transfer_reference(spec, algorithm):
    alg = get_algorithm(algorithm)
    for problem in _problems(spec):
        schedule = alg.build_schedule(problem)
        assert _fields(lower_schedule(schedule)) == _fields(
            reference.lower_schedule(rounds_view(schedule))
        )


def test_pipelined_allgather_lowers_unreusable_with_overrides():
    """Split segments make the probe fail exactly as the reference's."""
    machine = machine_from_spec(MACHINES[2])
    problem = BroadcastProblem(machine=machine, sources=(0, 5), message_size=600)
    schedule = get_algorithm("MPI_AllGather").build_schedule(problem)
    assert any(schedule.send_override)
    plan = lower_schedule(schedule)
    assert plan.size_reusable is False
    assert _fields(plan) == _fields(reference.lower_schedule(rounds_view(schedule)))


@pytest.mark.parametrize("algorithm", ["Br_xy_source", "PersAlltoAll", "2-Step"])
def test_size_rebind_equals_reference_lowering(algorithm):
    """A plan lowered at one size table and rebound to another equals the
    reference lowering of the other table's schedule."""
    alg = get_algorithm(algorithm)
    *uniform, varied = _problems("paragon:4x4")
    base = lower_schedule(alg.build_schedule(uniform[2]))
    assert base.size_reusable
    rebound = base.rebind_sizes(varied)
    assert _fields(rebound) == _fields(
        reference.lower_schedule(rounds_view(alg.build_schedule(varied)))
    )


@pytest.mark.parametrize(
    "spec", ["t3d:16", "paragon:4x4+collective_style=pipelined"]
)
def test_bind_resolves_one_shared_path_per_rank_pair(monkeypatch, spec):
    """Paths equal one ``route_links`` call per send, and every send of a
    rank pair shares one tuple, even when the route cache evicts the
    pair between sends (a pipelined MPI_AllGather ring repeats pairs)."""
    machine = machine_from_spec(spec)
    problem = BroadcastProblem(
        machine=machine, sources=SOURCES[2], message_size=40000
    )
    schedule = get_algorithm("MPI_AllGather").build_schedule(problem)
    plan = lower_schedule(schedule)
    monkeypatch.setattr(topology_mod, "_ROUTE_CACHE_MAX", 4)
    binding = bind_plan(plan, machine, seed=3)
    route_links = machine.topology.route_links
    nodes = [machine.build_mapping(3).node_of(rank) for rank in range(plan.p)]
    assert binding.nodes == nodes
    assert binding.paths == [
        route_links(nodes[src], nodes[dst])
        for src, dst in zip(plan.send_src, plan.send_dst)
    ]
    first = {}
    for pair, path in zip(zip(plan.send_src, plan.send_dst), binding.paths):
        assert path is first.setdefault(pair, path)
    assert len(first) < plan.num_sends  # some pair repeats
