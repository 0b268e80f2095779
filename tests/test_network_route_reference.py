"""Routes joined from memoized legs equal the hop-by-hop reference.

Every topology writes its dimension order once, as a route's corner
nodes and a walk along one straight leg; ``route_nodes`` and
``route_links`` both derive from it, and ``route_links`` joins each
route from per-leg link tuples memoized on the topology.  These tests
hold both views to ``tests/route_reference.py`` — the hop-by-hop
construction the routes were built with before — on every ordered pair
of fresh topologies whose extents include 1 and 2, and the closed-form
``distance`` to the route's length.
"""

from __future__ import annotations

import pytest

from repro.network.hypercube import Hypercube
from repro.network.linear import LinearArray
from repro.network.mesh import Mesh2D
from repro.network.torus import Torus3D
from tests import route_reference as reference

#: Fresh-topology factories: each test starts with empty memos.
SHAPES = {
    "paragon:1x5": lambda: Mesh2D(1, 5),
    "paragon:5x1": lambda: Mesh2D(5, 1),
    "paragon:3x7": lambda: Mesh2D(3, 7),
    "paragon:10x10": lambda: Mesh2D(10, 10),
    "paragon:16x16": lambda: Mesh2D(16, 16),
    "torus:8x4x4": lambda: Torus3D(8, 4, 4),
    "torus:4x4x4": lambda: Torus3D(4, 4, 4),
    "torus:2x4x1": lambda: Torus3D(2, 4, 1),
    "torus:4x2x4": lambda: Torus3D(4, 2, 4),
    "torus:2x2x2": lambda: Torus3D(2, 2, 2),
    "hypercube:16": lambda: Hypercube(4),
    "linear:7": lambda: LinearArray(7),
}


def _pairs(topo):
    n = topo.num_nodes
    return [(src, dst) for src in range(n) for dst in range(n)]


@pytest.mark.parametrize("name", SHAPES)
def test_route_links_equal_hop_by_hop_reference(name):
    topo = SHAPES[name]()
    wrong = [
        (src, dst)
        for src, dst in _pairs(topo)
        if src != dst
        and topo.route_links(src, dst) != reference.build_route(topo, src, dst)
    ]
    assert wrong == []


@pytest.mark.parametrize("name", SHAPES)
def test_route_nodes_equal_reference_and_distance(name):
    topo = SHAPES[name]()
    wrong = []
    for src, dst in _pairs(topo):
        nodes = topo.route_nodes(src, dst)
        if nodes != reference.route_nodes(topo, src, dst):
            wrong.append(("nodes", src, dst))
        if topo.distance(src, dst) != len(nodes) - 1:
            wrong.append(("distance", src, dst))
    assert wrong == []


@pytest.mark.parametrize("name", SHAPES)
def test_leg_memo_is_bounded_by_the_extents(name):
    """A leg stays in one dimension: at most ``n`` x (sum of extents)."""
    topo = SHAPES[name]()
    for src, dst in _pairs(topo):
        topo.route_links(src, dst)
    assert 0 < len(topo._legs) <= topo.num_nodes * sum(topo.shape)


def test_routes_sharing_a_leg_share_its_links():
    """Two routes leaving one node along one row reuse the memoized leg."""
    mesh = Mesh2D(4, 6)
    first = mesh.route_links(0, 2 * 6 + 5)
    legs = len(mesh._legs)
    second = mesh.route_links(0, 3 * 6 + 5)
    assert first[:6] == second[:6]  # injection + the 5-hop row leg
    assert len(mesh._legs) == legs + 1  # only the new column leg
