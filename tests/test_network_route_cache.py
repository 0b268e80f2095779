"""Route-cache correctness: memoized paths vs. uncached construction.

``Topology.route_links`` memoizes link-id paths in a bounded FIFO memo
filled on first use.
These tests pin the cached path against ``_build_route`` — the seed
code's uncached construction, kept verbatim for exactly this purpose —
and check the cache never changes observable behavior: bounds errors,
immutability, and sharing.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.network import topology as topology_mod
from repro.network.fabric import Fabric
from repro.network.hypercube import Hypercube
from repro.network.linear import LinearArray
from repro.network.mesh import Mesh2D
from repro.network.torus import Torus3D

TOPOLOGIES = [
    LinearArray(7),
    Mesh2D(4, 4),
    Mesh2D(3, 5),
    Hypercube(4),
    Torus3D(2, 3, 4),
]


@pytest.mark.parametrize("topo", TOPOLOGIES, ids=repr)
def test_cached_routes_match_uncached_construction(topo):
    """Every cached pair equals the seed-code route, for all pairs."""
    n = topo.num_nodes
    for src in range(n):
        for dst in range(n):
            if src == dst:
                assert topo.route_links(src, dst) == ()
            else:
                assert topo.route_links(src, dst) == topo._build_route(src, dst)


@pytest.mark.parametrize("topo", TOPOLOGIES, ids=repr)
def test_route_links_returns_shared_immutable_tuple(topo):
    first = topo.route_links(0, topo.num_nodes - 1)
    second = topo.route_links(0, topo.num_nodes - 1)
    assert isinstance(first, tuple)
    assert first is second  # memoized, not rebuilt


def test_out_of_range_does_not_alias_cached_pair():
    """Flat src*n+dst keys must not let bad ids hit a valid entry.

    On a 3-node line, key(0, 5) == key(1, 2): without a bounds guard
    the cache would silently return node 1's route to node 2 for the
    invalid query (0, 5).
    """
    line = LinearArray(3)
    line.route_links(1, 2)  # ensure the aliasing target is cached
    with pytest.raises(TopologyError):
        line.route_links(0, 5)
    with pytest.raises(TopologyError):
        line.route_links(-1, 2)


@pytest.mark.parametrize("rows", [4, 6])
def test_routes_memoize_lazily_and_evict_at_the_cap(monkeypatch, rows):
    """Every size fills the memo on first use and evicts at the cap."""
    monkeypatch.setattr(topology_mod, "_ROUTE_CACHE_MAX", 8)
    mesh = Mesh2D(rows, 6)
    assert mesh._route_cache == {}
    for dst in range(1, 21):
        assert mesh.route_links(0, dst) == mesh._build_route(0, dst)
    assert len(mesh._route_cache) <= 8
    # Evicted entries are rebuilt correctly on re-query.
    assert mesh.route_links(0, 1) == mesh._build_route(0, 1)


@pytest.mark.parametrize("topo", TOPOLOGIES, ids=repr)
def test_neighbors_served_from_adjacency_table(topo):
    for node in range(topo.num_nodes):
        expected = sorted(
            v for (u, v) in topo._wire_endpoints if u == node
        )
        assert topo.neighbors(node) == expected


@settings(max_examples=40, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 15)),
        min_size=1,
        max_size=30,
    ),
    nbytes=st.integers(0, 4096),
)
def test_fabric_transfers_never_mutate_cached_paths(pairs, nbytes):
    """The fabric shares the memo's tuples; reservations must not
    corrupt them, no matter the transfer order or repetition."""
    mesh = Mesh2D(4, 4)
    fabric = Fabric(mesh, t_byte=0.01, t_hop=0.1, route_setup=0.5)
    snapshots = {
        (src, dst): mesh.route_links(src, dst)
        for src, dst in pairs
        if src != dst
    }
    now = 0.0
    for src, dst in pairs:
        stats = fabric.transfer(src, dst, nbytes, now)
        now = stats.finish_time
    for (src, dst), path in snapshots.items():
        assert mesh.route_links(src, dst) is path
        assert path == mesh._build_route(src, dst)
