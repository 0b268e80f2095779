"""Unit tests for the hypercube topology and machine."""

from __future__ import annotations

import pytest

from repro.core import BroadcastProblem, run_broadcast
from repro.errors import ConfigurationError, TopologyError
from repro.machines import hypercube
from repro.network import Hypercube


class TestTopology:
    def test_node_and_link_counts(self):
        cube = Hypercube(4)
        assert cube.num_nodes == 16
        # d * 2^(d-1) undirected edges, two directed links each
        assert cube.num_wire_links == 2 * 4 * 8

    def test_zero_dimensional_cube(self):
        cube = Hypercube(0)
        assert cube.num_nodes == 1
        assert cube.num_wire_links == 0

    def test_neighbors_are_bit_flips(self):
        cube = Hypercube(3)
        assert cube.neighbors(0) == [1, 2, 4]
        assert cube.neighbors(5) == [1, 4, 7]

    def test_distance_is_hamming(self):
        cube = Hypercube(5)
        assert cube.distance(0b00000, 0b10101) == 3
        assert cube.distance(7, 7) == 0

    def test_ecube_routes_high_dimension_first(self):
        cube = Hypercube(4)
        assert cube.route_nodes(0b0000, 0b1011) == [0b0000, 0b1000, 0b1010, 0b1011]

    def test_route_hops_match_distance(self):
        cube = Hypercube(4)
        for src in (0, 5, 9):
            for dst in (3, 12, 15):
                assert len(cube.route_nodes(src, dst)) - 1 == cube.distance(
                    src, dst
                )

    def test_consecutive_route_nodes_adjacent(self):
        cube = Hypercube(4)
        nodes = cube.route_nodes(1, 14)
        for u, v in zip(nodes, nodes[1:]):
            assert cube.has_wire_link(u, v)

    def test_coords_are_address_bits(self):
        cube = Hypercube(3)
        assert cube.coords(0b101) == (1, 0, 1)

    def test_dimension_bounds(self):
        with pytest.raises(TopologyError):
            Hypercube(-1)
        with pytest.raises(TopologyError):
            Hypercube(21)


class TestMachine:
    def test_factory_requires_power_of_two(self):
        with pytest.raises(ConfigurationError):
            hypercube(48)

    def test_all_core_algorithms_deliver(self):
        machine = hypercube(32)
        problem = BroadcastProblem(
            machine, tuple(range(0, 32, 5)), message_size=512
        )
        for name in ("Br_Lin", "2-Step", "PersAlltoAll", "Repos_Lin"):
            run_broadcast(problem, name)

    def test_pers_alltoall_xor_rounds_are_single_hop(self):
        """On a hypercube, XOR permutations touch only cube edges when
        the round index is a power of two."""
        machine = hypercube(16)
        problem = BroadcastProblem(machine, tuple(range(16)), message_size=64)
        from repro.core.algorithms import PersAlltoAll

        sched = PersAlltoAll().build_schedule(problem)
        for src, dst, rnd in zip(sched.send_src, sched.send_dst, sched.send_round):
            k = rnd + 1
            if k & (k - 1) == 0:  # power-of-two round: single bit flip
                assert machine.topology.distance(src, dst) == 1

    def test_br_lin_cheaper_than_pers_on_cube(self):
        machine = hypercube(64)
        problem = BroadcastProblem(
            machine, tuple(range(0, 64, 9)), message_size=2048
        )
        t_lin = run_broadcast(problem, "Br_Lin").elapsed_us
        t_pers = run_broadcast(problem, "PersAlltoAll").elapsed_us
        assert t_lin < t_pers
