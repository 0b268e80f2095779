"""Unit tests for the 2-D mesh and its XY routing."""

from __future__ import annotations

import pytest

from repro.errors import TopologyError
from repro.network import Mesh2D


class TestMeshShape:
    def test_node_count(self):
        assert Mesh2D(3, 4).num_nodes == 12

    def test_coords_roundtrip(self):
        topo = Mesh2D(3, 4)
        for node in range(topo.num_nodes):
            r, c = topo.coords(node)
            assert topo.node_at(r, c) == node

    def test_out_of_range_coordinate_raises(self):
        topo = Mesh2D(3, 4)
        with pytest.raises(TopologyError):
            topo.node_at(3, 0)
        with pytest.raises(TopologyError):
            topo.node_at(0, 4)

    def test_invalid_shape_raises(self):
        with pytest.raises(TopologyError):
            Mesh2D(0, 4)

    def test_wire_link_count(self):
        # 2 directed links per undirected edge: r*(c-1) + c*(r-1) edges
        topo = Mesh2D(3, 4)
        assert topo.num_wire_links == 2 * (3 * 3 + 4 * 2)

    def test_corner_and_interior_degree(self):
        topo = Mesh2D(3, 4)
        assert len(topo.neighbors(0)) == 2  # corner
        assert len(topo.neighbors(topo.node_at(1, 1))) == 4  # interior

    def test_no_wraparound(self):
        topo = Mesh2D(3, 4)
        assert not topo.has_wire_link(topo.node_at(0, 0), topo.node_at(0, 3))
        assert not topo.has_wire_link(topo.node_at(0, 0), topo.node_at(2, 0))


class TestXYRouting:
    def test_row_first_then_column(self):
        topo = Mesh2D(4, 4)
        nodes = topo.route_nodes(topo.node_at(0, 0), topo.node_at(2, 3))
        coords = [topo.coords(n) for n in nodes]
        assert coords == [(0, 0), (0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]

    def test_westward_and_northward(self):
        topo = Mesh2D(4, 4)
        nodes = topo.route_nodes(topo.node_at(3, 3), topo.node_at(1, 1))
        coords = [topo.coords(n) for n in nodes]
        assert coords == [(3, 3), (3, 2), (3, 1), (2, 1), (1, 1)]

    def test_same_row_route(self):
        topo = Mesh2D(4, 4)
        nodes = topo.route_nodes(topo.node_at(2, 0), topo.node_at(2, 2))
        assert [topo.coords(n) for n in nodes] == [(2, 0), (2, 1), (2, 2)]

    def test_same_column_route(self):
        topo = Mesh2D(4, 4)
        nodes = topo.route_nodes(topo.node_at(0, 2), topo.node_at(2, 2))
        assert [topo.coords(n) for n in nodes] == [(0, 2), (1, 2), (2, 2)]

    def test_distance_is_manhattan(self):
        topo = Mesh2D(5, 7)
        for a in (0, 6, 17, 34):
            for b in (0, 6, 17, 34):
                ra, ca = topo.coords(a)
                rb, cb = topo.coords(b)
                assert topo.distance(a, b) == abs(ra - rb) + abs(ca - cb)

    def test_consecutive_route_nodes_are_neighbors(self):
        topo = Mesh2D(5, 7)
        nodes = topo.route_nodes(0, topo.num_nodes - 1)
        for u, v in zip(nodes, nodes[1:]):
            assert topo.has_wire_link(u, v)

    def test_route_is_deterministic(self):
        topo = Mesh2D(6, 6)
        assert topo.route_links(3, 29) == topo._build_route(3, 29)
