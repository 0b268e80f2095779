"""Topology base class: nodes, directed links, and routes.

A topology is a directed multigraph over ``num_nodes`` physical nodes.
Every node owns one *injection* link (processor → router) and one
*ejection* link (router → processor), plus the topology's wire links.
Links are identified by dense integer ids so the fabric can keep its
reservation state in flat arrays.

Subclasses implement the coordinate system, the dimension order and
the route's hop count, :meth:`distance`.  The dimension order is written
once, as a route's corner nodes (:meth:`Topology._corners`) and a walk
along one straight leg between two of them (:meth:`Topology._walk`);
the base class derives both views of a route from it: the node path
(:meth:`route_nodes`) and the link path (:meth:`route_links`), joined
from per-leg link tuples memoized on the topology.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Sequence, Tuple

from repro.errors import RoutingError, TopologyError

__all__ = ["Topology"]

#: Cap on memoized routes.  It holds every ordered pair of a 256-node
#: machine (65,280), the largest the configs build; a 32x32 mesh has
#: ~1M pairs, but real workloads touch a small working set, so the memo
#: evicts in FIFO order once full instead of growing unboundedly.
_ROUTE_CACHE_MAX = 1 << 16


class Topology(ABC):
    """Base class for interconnect topologies.

    Subclasses call :meth:`_finalize` after registering their wire
    links via :meth:`_add_link`.  Link ids are assigned as follows:

    * ``0 .. num_nodes-1`` — injection links (node *i*'s is id *i*);
    * ``num_nodes .. 2*num_nodes-1`` — ejection links;
    * ``2*num_nodes ..`` — wire links, in registration order.

    A route is its *corners* — ``src``, the nodes where it turns from
    one dimension to the next, ``dst`` — joined by straight legs.  Each
    leg's link tuple is memoized on first use, keyed ``a * n + b`` by
    its end nodes: a leg stays within one dimension, so there are at
    most ``n`` times the sum of the extents of them (8,192 on a 16x16
    mesh), and routes that share a leg share its tuple.
    """

    def __init__(self, num_nodes: int) -> None:
        if num_nodes <= 0:
            raise TopologyError(f"need at least one node, got {num_nodes}")
        self._num_nodes = num_nodes
        self._wire_endpoints: List[Tuple[int, int]] = []
        #: Wire link id by ``u * num_nodes + v``.
        self._wire_index: Dict[int, int] = {}
        self._finalized = False
        self._adjacency: Tuple[Tuple[int, ...], ...] = ()
        self._route_cache: Dict[int, Tuple[int, ...]] = {}
        #: Wire links of the straight leg ``a -> b``, by ``a * n + b``.
        self._legs: Dict[int, Tuple[int, ...]] = {}

    # -- construction -----------------------------------------------------
    def _add_link(self, u: int, v: int) -> int:
        """Register the directed wire link ``u -> v``; returns its id."""
        if self._finalized:
            raise TopologyError("topology already finalized")
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise TopologyError(f"self-link at node {u}")
        key = u * self._num_nodes + v
        if key in self._wire_index:
            raise TopologyError(f"duplicate link {u}->{v}")
        link_id = 2 * self._num_nodes + len(self._wire_endpoints)
        self._wire_endpoints.append((u, v))
        self._wire_index[key] = link_id
        return link_id

    def _finalize(self) -> None:
        """Freeze the link set and build the derived lookup structures.

        * adjacency table — per-node sorted neighbor tuples, so
          :meth:`neighbors` is O(degree) instead of an O(num_links) scan;
        * route cache — an empty, bounded memo of link paths.
        """
        self._finalized = True
        out: List[List[int]] = [[] for _ in range(self._num_nodes)]
        for u, v in self._wire_endpoints:
            out[u].append(v)
        self._adjacency = tuple(tuple(sorted(vs)) for vs in out)
        self._route_cache = {}

    # -- identity --------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of physical nodes."""
        return self._num_nodes

    @property
    def num_links(self) -> int:
        """Total number of links (injection + ejection + wires)."""
        return 2 * self._num_nodes + len(self._wire_endpoints)

    @property
    def num_wire_links(self) -> int:
        """Number of directed wire links (excludes injection/ejection)."""
        return len(self._wire_endpoints)

    def injection_link(self, node: int) -> int:
        """Id of ``node``'s processor→router channel."""
        self._check_node(node)
        return node

    def ejection_link(self, node: int) -> int:
        """Id of ``node``'s router→processor channel."""
        self._check_node(node)
        return self._num_nodes + node

    def wire_link(self, u: int, v: int) -> int:
        """Id of the directed wire link ``u -> v``.

        Raises :class:`~repro.errors.RoutingError` if absent.
        """
        if self.has_wire_link(u, v):
            return self._wire_index[u * self._num_nodes + v]
        raise RoutingError(f"no link {u}->{v} in {self!r}")

    def has_wire_link(self, u: int, v: int) -> bool:
        """Whether the directed wire link ``u -> v`` exists."""
        n = self._num_nodes
        # The range check keeps a bad id from aliasing another pair's key.
        return 0 <= u < n and 0 <= v < n and u * n + v in self._wire_index

    def link_endpoints(self, link_id: int) -> Tuple[int, int]:
        """``(u, v)`` endpoints of any link (end nodes for inj/ej)."""
        n = self._num_nodes
        if 0 <= link_id < n:
            return (link_id, link_id)
        if n <= link_id < 2 * n:
            return (link_id - n, link_id - n)
        try:
            return self._wire_endpoints[link_id - 2 * n]
        except IndexError:
            raise TopologyError(f"unknown link id {link_id}") from None

    def neighbors(self, node: int) -> List[int]:
        """Nodes reachable from ``node`` over one wire link, sorted."""
        self._check_node(node)
        if self._finalized:
            return list(self._adjacency[node])
        return sorted(v for (u, v) in self._wire_endpoints if u == node)

    # -- routing ---------------------------------------------------------
    @abstractmethod
    def _corners(self, src: int, dst: int) -> Sequence[int]:
        """The dimension-order route's corners: ``src``, the node where
        it turns into each next dimension, ``dst``.

        Consecutive corners differ in at most one dimension; equal ones
        (a dimension the route does not move in) are skipped.
        """

    @abstractmethod
    def _walk(self, a: int, b: int) -> List[int]:
        """The nodes after ``a`` up to ``b`` on the straight leg between
        two corners (``a != b``, one dimension apart)."""

    def route_nodes(self, src: int, dst: int) -> List[int]:
        """Dimension-order node path ``[src, ..., dst]`` (inclusive)."""
        self._check_node(src)
        self._check_node(dst)
        nodes = [src]
        a = src
        for b in self._corners(src, dst):
            if b != a:
                nodes += self._walk(a, b)
                a = b
        return nodes

    def route_links(self, src: int, dst: int) -> Tuple[int, ...]:
        """Memoized link-id path as an immutable tuple: injection, wires
        along the node path, ejection (empty for ``src == dst``: a
        self-send never touches the network).

        The returned tuple is shared across calls and **must not** be
        mutated by consumers; :class:`~repro.network.fabric.Fabric`
        iterates it in place.  Paths fill a bounded FIFO-evicting memo
        on first use.
        """
        if src == dst:
            return ()
        n = self._num_nodes
        if not 0 <= src < n or not 0 <= dst < n:
            # Raise TopologyError, and keep out-of-range ids from
            # aliasing a valid pair in the flat src*n+dst keyspace.
            self._check_node(src)
            self._check_node(dst)
        cache = self._route_cache
        key = src * n + dst
        path = cache.get(key)
        if path is not None:
            return path
        path = self._build_route(src, dst)
        if len(cache) >= _ROUTE_CACHE_MAX:
            cache.pop(next(iter(cache)))
        cache[key] = path
        return path

    def _build_route(self, src: int, dst: int) -> Tuple[int, ...]:
        """Uncached route construction, what fills the route cache on a
        :meth:`route_links` miss: the injection channel, each leg's
        memoized wire links, the ejection channel."""
        n = self._num_nodes
        legs = self._legs
        path: Tuple[int, ...] = (src,)  # node i's injection link is id i
        a = src
        for b in self._corners(src, dst):
            if b != a:
                key = a * n + b
                leg = legs.get(key)
                if leg is None:
                    leg = legs[key] = self._leg_links(a, b)
                path += leg
                a = b
        return path + (n + dst,)  # and its ejection link id n + i

    def _leg_links(self, a: int, b: int) -> Tuple[int, ...]:
        """Wire link ids of the straight leg ``a -> b``."""
        n = self._num_nodes
        wire_index = self._wire_index
        links = []
        u = a
        for v in self._walk(a, b):
            link = wire_index.get(u * n + v)
            if link is None:
                raise RoutingError(f"no link {u}->{v} in {self!r}")
            links.append(link)
            u = v
        return tuple(links)

    @abstractmethod
    def distance(self, src: int, dst: int) -> int:
        """Hop count of the dimension-order route (0 for self).

        A closed form that builds no route: it must equal
        ``len(self.route_nodes(src, dst)) - 1``.
        """

    # -- helpers ------------------------------------------------------------
    def _check_node(self, node: int) -> None:
        if not 0 <= node < self._num_nodes:
            raise TopologyError(
                f"node {node} out of range [0, {self._num_nodes})"
            )

    @property
    @abstractmethod
    def shape(self) -> Sequence[int]:
        """Dimension extents, e.g. ``(rows, cols)`` or ``(x, y, z)``."""

    def __repr__(self) -> str:
        dims = "x".join(str(d) for d in self.shape)
        return f"<{type(self).__name__} {dims} ({self._num_nodes} nodes)>"
