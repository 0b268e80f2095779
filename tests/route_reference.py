"""Hop-by-hop route construction, kept verbatim as a reference.

Each topology's ``route_nodes`` and the base class's ``_build_route`` as
they were before routes were joined from memoized straight legs: the
node path is built one hop at a time through ``coords``/``node_at``,
and every hop is looked up in a ``(u, v)``-keyed wire index.  The
bodies are unchanged; they take the topology as ``self``, the torus's
ring helper sits beside them, and the tuple-keyed wire index is rebuilt
from the topology's link list the way its constructor used to build it.
``tests/test_network_route_reference.py`` holds the production routes to
these, pair by pair.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Tuple

from repro.errors import RoutingError
from repro.network.hypercube import Hypercube
from repro.network.linear import LinearArray
from repro.network.mesh import Mesh2D
from repro.network.topology import Topology
from repro.network.torus import Torus3D


def mesh_route_nodes(self: Mesh2D, src: int, dst: int) -> List[int]:
    """XY dimension-order route: move along the row first, then the column."""
    sr, sc = self.coords(src)
    dr, dc = self.coords(dst)
    nodes = [src]
    col_step = 1 if dc > sc else -1
    for c in range(sc + col_step, dc + col_step, col_step) if dc != sc else []:
        nodes.append(self.node_at(sr, c))
    row_step = 1 if dr > sr else -1
    for r in range(sr + row_step, dr + row_step, row_step) if dr != sr else []:
        nodes.append(self.node_at(r, dc))
    return nodes


def ring_steps(src: int, dst: int, extent: int) -> List[int]:
    """Coordinates visited moving ``src -> dst`` the short way round.

    Returns the intermediate+final coordinates (``src`` excluded).
    Ties (distance exactly ``extent/2``) go in the +direction.
    """
    if src == dst:
        return []
    forward = (dst - src) % extent
    backward = (src - dst) % extent
    step = +1 if forward <= backward else -1
    coords = []
    cur = src
    while cur != dst:
        cur = (cur + step) % extent
        coords.append(cur)
    return coords


def torus_route_nodes(self: Torus3D, src: int, dst: int) -> List[int]:
    """Dimension-order (X, then Y, then Z) shortest-ring route."""
    sx, sy, sz = self.coords(src)
    dx, dy, dz = self.coords(dst)
    nodes = [src]
    for x in ring_steps(sx, dx, self.nx):
        nodes.append(self.node_at(x, sy, sz))
    for y in ring_steps(sy, dy, self.ny):
        nodes.append(self.node_at(dx, y, sz))
    for z in ring_steps(sz, dz, self.nz):
        nodes.append(self.node_at(dx, dy, z))
    return nodes


def hypercube_route_nodes(self: Hypercube, src: int, dst: int) -> List[int]:
    """E-cube: correct differing bits from the highest dimension down."""
    self._check_node(src)
    self._check_node(dst)
    nodes = [src]
    current = src
    for k in range(self.dimensions - 1, -1, -1):
        bit = 1 << k
        if (current ^ dst) & bit:
            current ^= bit
            nodes.append(current)
    return nodes


def linear_route_nodes(self: LinearArray, src: int, dst: int) -> List[int]:
    self._check_node(src)
    self._check_node(dst)
    step = 1 if dst >= src else -1
    return list(range(src, dst + step, step))


_ROUTE_NODES = {
    Mesh2D: mesh_route_nodes,
    Torus3D: torus_route_nodes,
    Hypercube: hypercube_route_nodes,
    LinearArray: linear_route_nodes,
}


def route_nodes(self: Topology, src: int, dst: int) -> List[int]:
    """The reference node path of ``self``'s topology class."""
    return _ROUTE_NODES[type(self)](self, src, dst)


@lru_cache(maxsize=2)
def wire_index(self: Topology) -> Dict[Tuple[int, int], int]:
    """The ``(u, v)``-keyed wire index: link ids in registration order
    (built once per topology)."""
    first = 2 * self.num_nodes
    return {key: first + i for i, key in enumerate(self._wire_endpoints)}


def build_route(self: Topology, src: int, dst: int) -> Tuple[int, ...]:
    """Uncached route construction: what fills the route cache on a
    :meth:`route_links` miss."""
    nodes = route_nodes(self, src, dst)
    if nodes[0] != src or nodes[-1] != dst:
        raise RoutingError(
            f"route_nodes({src}, {dst}) returned endpoints "
            f"{nodes[0]}..{nodes[-1]}"
        )
    path = [self.injection_link(src)]
    index = wire_index(self)
    append = path.append
    for u, v in zip(nodes, nodes[1:]):
        try:
            append(index[(u, v)])
        except KeyError:
            raise RoutingError(f"no link {u}->{v} in {self!r}") from None
    append(self.ejection_link(dst))
    return tuple(path)
