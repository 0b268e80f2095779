"""Virtual-rank → physical-node mappings.

The algorithms of the paper address *ranks* ``0..p-1``.  How ranks sit
on physical nodes matters enormously:

* On the Paragon, applications ran on a contiguous submesh and the rank
  order was the row-major node order — :class:`IdentityMapping`.  An
  algorithm that views the mesh as a linear array walks it in snake
  order (:meth:`~repro.machines.machine.Machine.linear_order`) over
  those ranks.
* On the T3D, "the mapping of virtual to physical processors cannot be
  controlled by the user" (§5): :class:`RandomMapping` draws a seeded
  random permutation, which is why topology-aware algorithms lose their
  edge there (ablated in ``configs/18-ablation-mapping.toml``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List

import numpy as np

from repro.errors import ConfigurationError
from repro.network.topology import Topology

__all__ = ["RankMapping", "IdentityMapping", "RandomMapping"]


class RankMapping(ABC):
    """Bijection between ranks ``0..p-1`` and physical node ids."""

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self._rank_to_node = self._build()
        p = topology.num_nodes
        if sorted(self._rank_to_node) != list(range(p)):
            raise ConfigurationError(
                f"{type(self).__name__} is not a permutation of 0..{p - 1}"
            )
        self._node_to_rank = [0] * p
        for rank, node in enumerate(self._rank_to_node):
            self._node_to_rank[node] = rank

    @abstractmethod
    def _build(self) -> List[int]:
        """Return ``rank_to_node`` as a list of node ids."""

    def node_of(self, rank: int) -> int:
        """Physical node hosting ``rank``."""
        return self._rank_to_node[rank]

    def rank_of(self, node: int) -> int:
        """Rank hosted on physical ``node``."""
        return self._node_to_rank[node]

    @property
    def size(self) -> int:
        """Number of ranks (== number of nodes)."""
        return self.topology.num_nodes

    def __repr__(self) -> str:
        return f"<{type(self).__name__} on {self.topology!r}>"


class IdentityMapping(RankMapping):
    """Rank *i* lives on node *i* (row-major on a mesh)."""

    def _build(self) -> List[int]:
        return list(range(self.topology.num_nodes))


class RandomMapping(RankMapping):
    """A seeded uniformly random permutation (T3D production scheduling)."""

    def __init__(self, topology: Topology, seed: int = 0) -> None:
        self.seed = seed
        super().__init__(topology)

    def _build(self) -> List[int]:
        rng = np.random.default_rng(self.seed)
        return [int(n) for n in rng.permutation(self.topology.num_nodes)]
