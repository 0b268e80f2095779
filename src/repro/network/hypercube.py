"""Hypercube topology — the architecture of the paper's related work.

Much of the collective-communication literature the paper builds on
([3], [13], [16]) targets hypercubes, and ``Br_Lin``'s recursive
halving is exactly a dimension-exchange algorithm there: the iteration-k
partner of node *i* is ``i XOR 2^(d-1-k)``, a physical neighbour.  The
topology is provided so the library can evaluate the paper's algorithms
on the architecture its ancestors were designed for (and so the
``PersAlltoAll`` XOR permutations become single-hop exchanges).

E-cube (dimension-order) routing: correct address bits from the highest
dimension down; deadlock-free and minimal.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import TopologyError
from repro.network.topology import Topology

__all__ = ["Hypercube"]


class Hypercube(Topology):
    """A ``d``-dimensional binary hypercube (``2^d`` nodes).

    Node ids are the natural binary addresses: node *i* is wired to
    ``i XOR 2^k`` for every dimension ``k < d``.
    """

    def __init__(self, dimensions: int) -> None:
        if dimensions < 0 or dimensions > 20:
            raise TopologyError(
                f"hypercube dimension must be in [0, 20], got {dimensions}"
            )
        super().__init__(1 << dimensions)
        self.dimensions = dimensions
        for node in range(self.num_nodes):
            for k in range(dimensions):
                neighbor = node ^ (1 << k)
                if neighbor > node:
                    self._add_link(node, neighbor)
                    self._add_link(neighbor, node)
        self._finalize()

    @property
    def shape(self) -> Sequence[int]:
        return tuple([2] * self.dimensions) if self.dimensions else (1,)

    def coords(self, node: int) -> Tuple[int, ...]:
        """The node's address bits, highest dimension first."""
        self._check_node(node)
        return tuple(
            (node >> k) & 1 for k in range(self.dimensions - 1, -1, -1)
        )

    def _corners(self, src: int, dst: int) -> List[int]:
        """E-cube: correct differing bits from the highest dimension
        down, one hop per corrected bit."""
        corners = [src]
        for k in range(self.dimensions - 1, -1, -1):
            bit = 1 << k
            if (src ^ dst) & bit:
                corners.append(corners[-1] ^ bit)
        return corners

    def _walk(self, a: int, b: int) -> List[int]:
        """A leg is the single hop between two corners."""
        return [b]

    def distance(self, src: int, dst: int) -> int:
        """Hop count == Hamming distance of the addresses."""
        self._check_node(src)
        self._check_node(dst)
        return bin(src ^ dst).count("1")
