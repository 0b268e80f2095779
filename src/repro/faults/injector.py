"""Run-time fault state: a :class:`FaultSchedule` bound to a topology.

The injector is the single source of truth the fabric and the message
layer consult during a run:

* :meth:`plan` — the fault-aware link path for a transfer.  When the
  dimension-order route crosses a dead link (or a dead intermediate
  node), a deterministic BFS finds the shortest detour over the
  surviving links; when no detour exists the transfer is undeliverable
  (``None``) and the message is lost.
* :meth:`node_dead` — whether a send into a node must fail at the
  sender (:class:`~repro.errors.PeerFailedError`).
* :meth:`byte_factor` / :meth:`link_factor` — bandwidth-degradation
  multipliers for the per-byte wire time.

Everything is deterministic: degraded link subsets are drawn from a
generator seeded by the schedule's canonical string and the run seed
(string seeding is hash-randomisation-independent), detour BFS visits
neighbours in sorted order, and fault activation depends only on the
transfer's request time.  Faults apply at *request* time — a worm that
acquired its path before a link died completes normally, mirroring the
path-reservation approximation the fabric already makes.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.faults.spec import (
    DegradeFault,
    Endpoint,
    FaultSchedule,
    LinkFault,
    NodeFault,
)
from repro.network.topology import Topology

__all__ = ["FaultInjector"]


class FaultInjector:
    """Resolved fault state for one ``(schedule, topology, seed)`` run."""

    def __init__(
        self, schedule: FaultSchedule, topology: Topology, seed: int = 0
    ) -> None:
        self.schedule = schedule
        self.topology = topology
        self.seed = seed
        #: link id -> earliest virtual time at which the link is dead.
        self._dead_links: Dict[int, float] = {}
        #: node id -> earliest virtual time at which the node is dead.
        self._dead_nodes: Dict[int, float] = {}
        #: link id -> [(at_us, factor), ...] bandwidth degradations.
        self._degraded: Dict[int, List[Tuple[float, float]]] = {}
        descriptions: List[str] = []
        for fault in schedule.faults:
            if isinstance(fault, LinkFault):
                descriptions.append(self._resolve_link_fault(fault))
            elif isinstance(fault, NodeFault):
                descriptions.append(self._resolve_node_fault(fault))
            else:
                descriptions.append(self._resolve_degrade_fault(fault))
        #: Human-readable resolved faults, in schedule order — these are
        #: what deadlock diagnostics and ``BroadcastResult.faults_active``
        #: report.
        self.descriptions: Tuple[str, ...] = tuple(descriptions)
        # Distinct link/node death times; the index found by bisect is
        # the "kill epoch" of a request time, which keys the route memo
        # (the set of dead links and nodes is monotone in time, so the
        # epoch fully determines it).  Degradations slow links but never
        # reroute, so they do not advance it and do not invalidate
        # cached BFS detours.
        times = {t for t in self._dead_links.values()}
        times.update(self._dead_nodes.values())
        self._kill_times: List[float] = sorted(times)
        self._route_memo: Dict[Tuple[int, int, int], Optional[Tuple[int, ...]]] = {}
        self._any_degraded = bool(self._degraded)

    # -- resolution -------------------------------------------------------
    def _resolve_node_id(self, endpoint: Endpoint, context: str) -> int:
        topology = self.topology
        if isinstance(endpoint, tuple):
            node_at = getattr(topology, "node_at", None)
            if node_at is None:
                raise ConfigurationError(
                    f"{context}: {topology!r} has no coordinate system; "
                    "use plain node ids in fault endpoints"
                )
            try:
                return node_at(*endpoint)
            except TypeError:
                raise ConfigurationError(
                    f"{context}: coordinate {endpoint} has the wrong arity "
                    f"for {topology!r}"
                ) from None
        if not 0 <= endpoint < topology.num_nodes:
            raise ConfigurationError(
                f"{context}: node {endpoint} out of range "
                f"[0, {topology.num_nodes})"
            )
        return endpoint

    def _kill_link(self, link_id: int, at_us: float) -> None:
        prev = self._dead_links.get(link_id)
        if prev is None or at_us < prev:
            self._dead_links[link_id] = at_us

    def _resolve_link_fault(self, fault: LinkFault) -> str:
        context = fault.canonical()
        a = self._resolve_node_id(fault.a, context)
        b = self._resolve_node_id(fault.b, context)
        topology = self.topology
        killed = False
        for u, v in ((a, b), (b, a)):
            if topology.has_wire_link(u, v):
                self._kill_link(topology.wire_link(u, v), fault.at_us)
                killed = True
        if not killed:
            raise ConfigurationError(
                f"{context}: no wire link between nodes {a} and {b} "
                f"in {topology!r}"
            )
        return f"link {a}<->{b} dead from t={fault.at_us:g}us"

    def _resolve_node_fault(self, fault: NodeFault) -> str:
        context = fault.canonical()
        node = self._resolve_node_id(fault.node, context)
        topology = self.topology
        prev = self._dead_nodes.get(node)
        if prev is None or fault.at_us < prev:
            self._dead_nodes[node] = fault.at_us
        self._kill_link(topology.injection_link(node), fault.at_us)
        self._kill_link(topology.ejection_link(node), fault.at_us)
        for neighbor in topology.neighbors(node):
            self._kill_link(topology.wire_link(node, neighbor), fault.at_us)
            if topology.has_wire_link(neighbor, node):
                self._kill_link(topology.wire_link(neighbor, node), fault.at_us)
        return f"node {node} dead from t={fault.at_us:g}us"

    def _resolve_degrade_fault(self, fault: DegradeFault) -> str:
        topology = self.topology
        num_wire = topology.num_wire_links
        if num_wire == 0:
            raise ConfigurationError(
                f"{fault.canonical()}: {topology!r} has no wire links to degrade"
            )
        count = max(1, round(fault.fraction * num_wire))
        # Seeded by (canonical schedule, run seed): string seeding is
        # stable across processes and PYTHONHASHSEED values, so worker
        # pools and the cache see the identical degraded subset.
        rng = random.Random(f"{self.schedule.canonical()}#{self.seed}")
        base = 2 * topology.num_nodes
        for index in sorted(rng.sample(range(num_wire), count)):
            self._degraded.setdefault(base + index, []).append(
                (fault.at_us, fault.factor)
            )
        return (
            f"{count}/{num_wire} links degraded {fault.factor:g}x "
            f"from t={fault.at_us:g}us"
        )

    # -- queries ----------------------------------------------------------
    def kill_epoch(self, now: float) -> int:
        """Index of the *reachability* epoch containing time ``now``.

        Advances only when a link or node dies — degradations change
        timing, never routes — so two requests in the same kill epoch
        are guaranteed to see the identical survived-link set.
        """
        return bisect_right(self._kill_times, now)

    def node_dead(self, node: int, now: float) -> bool:
        """Whether ``node`` has failed by time ``now``."""
        at = self._dead_nodes.get(node)
        return at is not None and at <= now

    def link_dead(self, link_id: int, now: float) -> bool:
        """Whether ``link_id`` has failed by time ``now``."""
        at = self._dead_links.get(link_id)
        return at is not None and at <= now

    def link_factor(self, link_id: int, now: float) -> float:
        """Bandwidth-degradation multiplier of one link at time ``now``."""
        spans = self._degraded.get(link_id)
        if not spans:
            return 1.0
        return max((f for t, f in spans if t <= now), default=1.0)

    def byte_factor(self, path: Tuple[int, ...], now: float) -> float:
        """Worst degradation multiplier along ``path`` (worm streams at
        the slowest link's rate)."""
        if not self._any_degraded:
            return 1.0
        factor = 1.0
        for link in path:
            f = self.link_factor(link, now)
            if f > factor:
                factor = f
        return factor

    # -- fault-aware routing ----------------------------------------------
    def plan(
        self, src: int, dst: int, now: float
    ) -> Tuple[Optional[Tuple[int, ...]], float]:
        """``(link path, byte factor)`` for a transfer requested at ``now``.

        The path is the dimension-order route when it survives, a BFS
        detour when it does not, and ``None`` when the destination is
        unreachable over the live links (the message is lost).
        """
        path = self.topology.route_links(src, dst)
        if self._dead_links:
            blocked = any(self.link_dead(link, now) for link in path)
            if blocked:
                key = (src, dst, self.kill_epoch(now))
                try:
                    detour = self._route_memo[key]
                except KeyError:
                    detour = self._detour(src, dst, now)
                    self._route_memo[key] = detour
                if detour is None:
                    return None, 1.0
                path = detour
        return path, self.byte_factor(path, now)

    def _detour(self, src: int, dst: int, now: float) -> Optional[Tuple[int, ...]]:
        """Shortest live link path ``src -> dst``, or ``None``.

        Deterministic: BFS expands neighbours in sorted (adjacency)
        order, so ties always resolve the same way.
        """
        topology = self.topology
        if self.link_dead(topology.injection_link(src), now) or self.link_dead(
            topology.ejection_link(dst), now
        ):
            return None
        parent: Dict[int, int] = {src: -1}
        frontier = deque((src,))
        while frontier:
            u = frontier.popleft()
            if u == dst:
                break
            for v in topology.neighbors(u):
                if v in parent:
                    continue
                if self.link_dead(topology.wire_link(u, v), now):
                    continue
                # A dead node cannot forward traffic; it is only a valid
                # hop as the final destination (whose ejection link was
                # already checked above, and is dead for dead nodes).
                if v != dst and self.node_dead(v, now):
                    continue
                parent[v] = u
                frontier.append(v)
        if dst not in parent:
            return None
        nodes = [dst]
        while nodes[-1] != src:
            nodes.append(parent[nodes[-1]])
        nodes.reverse()
        path = [topology.injection_link(src)]
        path.extend(
            topology.wire_link(u, v) for u, v in zip(nodes, nodes[1:])
        )
        path.append(topology.ejection_link(dst))
        return tuple(path)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<FaultInjector {self.schedule.canonical()!r} "
            f"on {self.topology!r} seed={self.seed}>"
        )
