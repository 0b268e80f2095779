"""Topology base class: nodes, directed links, and routes.

A topology is a directed multigraph over ``num_nodes`` physical nodes.
Every node owns one *injection* link (processor → router) and one
*ejection* link (router → processor), plus the topology's wire links.
Links are identified by dense integer ids so the fabric can keep its
reservation state in flat arrays.

Subclasses implement the coordinate system, the dimension-order
:meth:`route_nodes` and its hop count, :meth:`distance`; the base class
turns node paths into link paths memoized on first use
(:meth:`route_links`).
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
    """

    def __init__(self, num_nodes: int) -> None:
        if num_nodes <= 0:
            raise TopologyError(f"need at least one node, got {num_nodes}")
        self._num_nodes = num_nodes
        self._wire_endpoints: List[Tuple[int, int]] = []
        self._wire_index: Dict[Tuple[int, int], int] = {}
        self._finalized = False
        self._adjacency: Tuple[Tuple[int, ...], ...] = ()
        self._route_cache: Dict[int, Tuple[int, ...]] = {}

    # -- construction -----------------------------------------------------
    def _add_link(self, u: int, v: int) -> int:
        """Register the directed wire link ``u -> v``; returns its id."""
        if self._finalized:
            raise TopologyError("topology already finalized")
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise TopologyError(f"self-link at node {u}")
        key = (u, v)
        if key in self._wire_index:
            raise TopologyError(f"duplicate link {u}->{v}")
        link_id = 2 * self._num_nodes + len(self._wire_endpoints)
        self._wire_endpoints.append(key)
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
        try:
            return self._wire_index[(u, v)]
        except KeyError:
            raise RoutingError(f"no link {u}->{v} in {self!r}") from None

    def has_wire_link(self, u: int, v: int) -> bool:
        """Whether the directed wire link ``u -> v`` exists."""
        return (u, v) in self._wire_index

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
    def route_nodes(self, src: int, dst: int) -> List[int]:
        """Dimension-order node path ``[src, ..., dst]`` (inclusive)."""

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
        """Uncached route construction: what fills the route cache on a
        :meth:`route_links` miss."""
        nodes = self.route_nodes(src, dst)
        if nodes[0] != src or nodes[-1] != dst:
            raise RoutingError(
                f"route_nodes({src}, {dst}) returned endpoints "
                f"{nodes[0]}..{nodes[-1]}"
            )
        path = [self.injection_link(src)]
        wire_index = self._wire_index
        append = path.append
        for u, v in zip(nodes, nodes[1:]):
            try:
                append(wire_index[(u, v)])
            except KeyError:
                raise RoutingError(f"no link {u}->{v} in {self!r}") from None
        append(self.ejection_link(dst))
        return tuple(path)

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
