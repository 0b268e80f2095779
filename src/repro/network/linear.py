"""1-D linear-array topology.

Used directly in unit tests, and as the *logical* structure underlying
``Br_Lin`` (which views any machine as a linear array; on a physical
mesh :meth:`~repro.machines.machine.Machine.linear_order` realises the
paper's snake-like row-major indexing).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.network.topology import Topology

__all__ = ["LinearArray"]


class LinearArray(Topology):
    """``n`` nodes in a row; node *i* is wired to *i-1* and *i+1*."""

    def __init__(self, n: int) -> None:
        super().__init__(n)
        for i in range(n - 1):
            self._add_link(i, i + 1)
            self._add_link(i + 1, i)
        self._finalize()

    @property
    def shape(self) -> Sequence[int]:
        return (self._num_nodes,)

    def route_nodes(self, src: int, dst: int) -> List[int]:
        self._check_node(src)
        self._check_node(dst)
        step = 1 if dst >= src else -1
        return list(range(src, dst + step, step))

    def distance(self, src: int, dst: int) -> int:
        """Hop count: ``|dst - src|``."""
        self._check_node(src)
        self._check_node(dst)
        return abs(dst - src)

    def coords(self, node: int) -> Tuple[int]:
        """Coordinate tuple of ``node`` (trivially ``(node,)``)."""
        self._check_node(node)
        return (node,)
