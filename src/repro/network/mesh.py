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

    A route is at most two straight legs, along the source's row and
    then the destination's column; the base class memoizes each leg's
    links and joins routes from them.

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
    def _corners(self, src: int, dst: int) -> Tuple[int, int, int]:
        """XY dimension order: along the row to ``dst``'s column, then
        along that column; the turn is node ``(src row, dst column)``."""
        cols = self.cols
        return (src, src - src % cols + dst % cols, dst)

    def _walk(self, a: int, b: int) -> List[int]:
        """The nodes after ``a`` up to ``b`` along their shared row or column."""
        cols = self.cols
        step = 1 if a // cols == b // cols else cols
        if b < a:
            step = -step
        return list(range(a + step, b + step, step))

    def distance(self, src: int, dst: int) -> int:
        """Hop count of the XY route: row distance plus column distance."""
        sr, sc = self.coords(src)
        dr, dc = self.coords(dst)
        return abs(dr - sr) + abs(dc - sc)
