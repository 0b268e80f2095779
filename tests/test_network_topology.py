"""Unit tests for the topology base machinery and the linear array."""

from __future__ import annotations

import pytest

from repro.errors import RoutingError, TopologyError
from repro.network import LinearArray


class TestLinkNumbering:
    def test_injection_and_ejection_ids(self):
        topo = LinearArray(4)
        assert [topo.injection_link(i) for i in range(4)] == [0, 1, 2, 3]
        assert [topo.ejection_link(i) for i in range(4)] == [4, 5, 6, 7]

    def test_wire_link_lookup_roundtrip(self):
        topo = LinearArray(4)
        link = topo.wire_link(1, 2)
        assert topo.link_endpoints(link) == (1, 2)

    def test_missing_wire_link_raises(self):
        topo = LinearArray(4)
        with pytest.raises(RoutingError):
            topo.wire_link(0, 2)

    def test_num_links_accounting(self):
        topo = LinearArray(5)
        # 5 inj + 5 ej + 2*(5-1) wires
        assert topo.num_links == 10 + 8
        assert topo.num_wire_links == 8

    def test_link_endpoints_for_endpoint_channels(self):
        topo = LinearArray(3)
        assert topo.link_endpoints(topo.injection_link(2)) == (2, 2)
        assert topo.link_endpoints(topo.ejection_link(1)) == (1, 1)

    def test_unknown_link_id_raises(self):
        topo = LinearArray(3)
        with pytest.raises(TopologyError):
            topo.link_endpoints(999)

    def test_node_bounds_checked(self):
        topo = LinearArray(3)
        with pytest.raises(TopologyError):
            topo.injection_link(3)
        with pytest.raises(TopologyError):
            topo.route(0, 5)


class TestLinearArrayRouting:
    def test_forward_route_nodes(self):
        topo = LinearArray(6)
        assert topo.route_nodes(1, 4) == [1, 2, 3, 4]

    def test_backward_route_nodes(self):
        topo = LinearArray(6)
        assert topo.route_nodes(4, 1) == [4, 3, 2, 1]

    def test_self_route_is_empty(self):
        topo = LinearArray(6)
        assert topo.route(2, 2) == []
        assert topo.distance(2, 2) == 0

    def test_route_includes_injection_and_ejection(self):
        topo = LinearArray(6)
        path = topo.route(0, 2)
        assert path[0] == topo.injection_link(0)
        assert path[-1] == topo.ejection_link(2)
        assert len(path) == 2 + 2  # inj + 2 wires + ej

    def test_distance_is_hop_count(self):
        topo = LinearArray(6)
        assert topo.distance(0, 5) == 5
        assert topo.distance(5, 0) == 5

    def test_neighbors(self):
        topo = LinearArray(4)
        assert topo.neighbors(0) == [1]
        assert topo.neighbors(2) == [1, 3]

    def test_invalid_size_rejected(self):
        with pytest.raises(TopologyError):
            LinearArray(0)

    def test_coords(self):
        topo = LinearArray(4)
        assert topo.coords(3) == (3,)
        assert topo.shape == (4,)


class TestClosedFormDistance:
    """Each topology's closed-form hop count equals its route's length."""

    @pytest.mark.parametrize("spec", [
        "paragon:2x2", "paragon:4x4", "paragon:5x7", "paragon:10x10",
        "paragon:16x16", "t3d:32", "t3d:64", "t3d:128", "hypercube:16",
    ])
    def test_machine_topologies(self, spec):
        from repro.machines import machine_from_spec

        self._check_all_pairs(machine_from_spec(spec).topology)

    def test_linear_array(self):
        self._check_all_pairs(LinearArray(7))

    @staticmethod
    def _check_all_pairs(topo):
        n = topo.num_nodes
        wrong = [
            (src, dst)
            for src in range(n)
            for dst in range(n)
            if topo.distance(src, dst) != len(topo.route_nodes(src, dst)) - 1
        ]
        assert wrong == []

    @pytest.mark.parametrize("spec", ["paragon:4x4", "t3d:32"])
    def test_node_range_checked(self, spec):
        from repro.machines import machine_from_spec

        topo = machine_from_spec(spec).topology
        for src, dst in ((0, topo.num_nodes), (-1, 0)):
            with pytest.raises(TopologyError):
                topo.distance(src, dst)

    def test_linear_array_node_range_checked(self):
        with pytest.raises(TopologyError):
            LinearArray(4).distance(0, 4)
