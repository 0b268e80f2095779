"""Unit tests for the 3-D torus and its dimension-order ring routing."""

from __future__ import annotations

import pytest

from repro.errors import TopologyError
from repro.network import Torus3D


class TestTorusShape:
    def test_node_count(self):
        assert Torus3D(4, 2, 2).num_nodes == 16

    def test_coords_roundtrip(self):
        topo = Torus3D(4, 3, 2)
        for node in range(topo.num_nodes):
            x, y, z = topo.coords(node)
            assert topo.node_at(x, y, z) == node

    def test_degree_with_full_dimensions(self):
        topo = Torus3D(4, 4, 4)
        # 6 neighbours in a full 3-D torus
        assert all(len(topo.neighbors(n)) == 6 for n in range(topo.num_nodes))

    def test_extent_two_has_single_link_pair(self):
        topo = Torus3D(2, 1, 1)
        # two nodes, one bidirectional pair — not doubled by wraparound
        assert topo.num_wire_links == 2

    def test_extent_one_contributes_no_links(self):
        topo = Torus3D(3, 1, 1)
        assert topo.num_wire_links == 2 * 3  # the x-ring only

    def test_invalid_shape(self):
        with pytest.raises(TopologyError):
            Torus3D(0, 2, 2)


class TestRingRouting:
    def test_short_way_around(self):
        topo = Torus3D(8, 1, 1)
        # 0 -> 6 should wrap backwards (distance 2, not 6)
        assert topo.distance(topo.node_at(0, 0, 0), topo.node_at(6, 0, 0)) == 2

    def test_tie_goes_forward(self):
        topo = Torus3D(4, 1, 1)
        nodes = topo.route_nodes(topo.node_at(0, 0, 0), topo.node_at(2, 0, 0))
        xs = [topo.coords(n)[0] for n in nodes]
        assert xs == [0, 1, 2]

    def test_dimension_order_x_y_z(self):
        topo = Torus3D(4, 4, 4)
        src = topo.node_at(0, 0, 0)
        dst = topo.node_at(1, 1, 1)
        coords = [topo.coords(n) for n in topo.route_nodes(src, dst)]
        assert coords == [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)]

    def test_consecutive_route_nodes_are_neighbors(self):
        topo = Torus3D(4, 4, 2)
        nodes = topo.route_nodes(1, 25)
        for u, v in zip(nodes, nodes[1:]):
            assert topo.has_wire_link(u, v)

    def test_self_route_empty(self):
        topo = Torus3D(2, 2, 2)
        assert topo.route_links(3, 3) == ()

    def test_route_symmetric_distance(self):
        topo = Torus3D(4, 4, 4)
        for a, b in ((0, 21), (5, 60), (17, 2)):
            assert topo.distance(a, b) == topo.distance(b, a)


class TestDimsFor:
    def test_near_cubic_factorizations(self):
        assert Torus3D.dims_for(8) == (2, 2, 2)
        assert Torus3D.dims_for(64) == (4, 4, 4)
        assert Torus3D.dims_for(128) == (8, 4, 4)
        assert Torus3D.dims_for(256) == (8, 8, 4)
        assert Torus3D.dims_for(512) == (8, 8, 8)

    def test_product_is_p(self):
        for k in range(0, 10):
            p = 1 << k
            nx, ny, nz = Torus3D.dims_for(p)
            assert nx * ny * nz == p

    def test_non_power_of_two_rejected(self):
        with pytest.raises(TopologyError):
            Torus3D.dims_for(96)
        with pytest.raises(TopologyError):
            Torus3D.dims_for(0)
