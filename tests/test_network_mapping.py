"""Unit tests for rank→node mappings."""

from __future__ import annotations

from repro.network import IdentityMapping, Mesh2D, RandomMapping, Torus3D


class TestIdentityMapping:
    def test_rank_equals_node(self):
        mapping = IdentityMapping(Mesh2D(3, 3))
        for rank in range(9):
            assert mapping.node_of(rank) == rank
            assert mapping.rank_of(rank) == rank


class TestRandomMapping:
    def test_is_permutation(self):
        mapping = RandomMapping(Torus3D(4, 2, 2), seed=7)
        nodes = [mapping.node_of(r) for r in range(16)]
        assert sorted(nodes) == list(range(16))

    def test_seed_determinism(self):
        topo = Torus3D(4, 2, 2)
        a = RandomMapping(topo, seed=7)
        b = RandomMapping(topo, seed=7)
        assert [a.node_of(r) for r in range(16)] == [
            b.node_of(r) for r in range(16)
        ]

    def test_different_seeds_differ(self):
        topo = Torus3D(4, 4, 4)
        a = RandomMapping(topo, seed=0)
        b = RandomMapping(topo, seed=1)
        assert [a.node_of(r) for r in range(64)] != [
            b.node_of(r) for r in range(64)
        ]

    def test_inverse_consistency(self):
        mapping = RandomMapping(Torus3D(4, 2, 2), seed=3)
        for rank in range(16):
            assert mapping.rank_of(mapping.node_of(rank)) == rank
