"""2-D mesh topology — the Intel Paragon interconnect.

Nodes are laid out in row-major order: node ``r * cols + c`` sits at
mesh coordinate ``(r, c)``.  Each node is wired to its four
north/south/east/west neighbours (no wraparound).  Routing is
deterministic XY dimension-order: first along the row (X/columns), then
along the column (Y/rows) — matching the Paragon's wormhole routers.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import TopologyError
from repro.network.topology import Topology

__all__ = ["Mesh2D"]


class Mesh2D(Topology):
    """A ``rows x cols`` 2-D mesh without wraparound links.

    Parameters
    ----------
    rows, cols:
        Mesh extents; both must be positive.
    """

    def __init__(self, rows: int, cols: int) -> None:
        if rows <= 0 or cols <= 0:
            raise TopologyError(f"invalid mesh shape {rows}x{cols}")
        super().__init__(rows * cols)
        self.rows = rows
        self.cols = cols
        for r in range(rows):
            for c in range(cols):
                node = r * cols + c
                if c + 1 < cols:
                    east = node + 1
                    self._add_link(node, east)
                    self._add_link(east, node)
                if r + 1 < rows:
                    south = node + cols
                    self._add_link(node, south)
                    self._add_link(south, node)
        self._finalize()

    @property
    def shape(self) -> Sequence[int]:
        return (self.rows, self.cols)

    # -- coordinates -----------------------------------------------------
    def coords(self, node: int) -> Tuple[int, int]:
        """``(row, col)`` of ``node`` (0-based)."""
        self._check_node(node)
        return divmod(node, self.cols)

    def node_at(self, row: int, col: int) -> int:
        """Node id at mesh coordinate ``(row, col)``."""
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise TopologyError(
                f"coordinate ({row}, {col}) outside {self.rows}x{self.cols}"
            )
        return row * self.cols + col

    # -- routing -----------------------------------------------------------
    def route_nodes(self, src: int, dst: int) -> List[int]:
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

    def distance(self, src: int, dst: int) -> int:
        """Hop count of the XY route: row distance plus column distance."""
        sr, sc = self.coords(src)
        dr, dc = self.coords(dst)
        return abs(dr - sr) + abs(dc - sc)
