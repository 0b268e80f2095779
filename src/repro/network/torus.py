"""3-D torus topology — the Cray T3D interconnect.

Nodes are indexed ``x * (ny * nz) + y * nz + z`` with coordinate
``(x, y, z)``.  Every dimension wraps around (a ring), and each node has
six wire links (±x, ±y, ±z); a dimension of extent 1 contributes no
links, and a dimension of extent 2 contributes a single bidirectional
pair (not a double link).  Routing is dimension-order X→Y→Z, taking the
shorter way around each ring (ties broken toward increasing
coordinates, as hardware routers do deterministically), so a route is
at most three straight legs, one per ring.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import TopologyError
from repro.network.topology import Topology

__all__ = ["Torus3D"]


class Torus3D(Topology):
    """An ``nx x ny x nz`` 3-D torus with wraparound in every dimension.

    A route is at most three straight legs, around the x, the y and
    then the z ring; the base class memoizes each leg's links and joins
    routes from them.
    """

    def __init__(self, nx: int, ny: int, nz: int) -> None:
        if nx <= 0 or ny <= 0 or nz <= 0:
            raise TopologyError(f"invalid torus shape {nx}x{ny}x{nz}")
        super().__init__(nx * ny * nz)
        self.nx = nx
        self.ny = ny
        self.nz = nz
        #: ``(node id stride, extent)`` of the x, y and z coordinates.
        self._axes = ((ny * nz, nx), (nz, ny), (1, nz))
        for x in range(nx):
            for y in range(ny):
                for z in range(nz):
                    node = self.node_at(x, y, z)
                    # +direction neighbour per dimension; wraparound pairs
                    # are added once (skip when the wrap duplicates an
                    # existing +1 link, i.e. extent <= 2 edge cases).
                    for dim, extent in (("x", nx), ("y", ny), ("z", nz)):
                        if extent == 1:
                            continue
                        nb = self._shift(x, y, z, dim, +1)
                        if not self.has_wire_link(node, nb):
                            self._add_link(node, nb)
                            self._add_link(nb, node)
        self._finalize()

    @property
    def shape(self) -> Sequence[int]:
        return (self.nx, self.ny, self.nz)

    # -- coordinates ------------------------------------------------------
    def coords(self, node: int) -> Tuple[int, int, int]:
        """``(x, y, z)`` of ``node``."""
        self._check_node(node)
        x, rem = divmod(node, self.ny * self.nz)
        y, z = divmod(rem, self.nz)
        return (x, y, z)

    def node_at(self, x: int, y: int, z: int) -> int:
        """Node id at torus coordinate ``(x, y, z)``."""
        if not (0 <= x < self.nx and 0 <= y < self.ny and 0 <= z < self.nz):
            raise TopologyError(
                f"coordinate ({x}, {y}, {z}) outside "
                f"{self.nx}x{self.ny}x{self.nz}"
            )
        return x * (self.ny * self.nz) + y * self.nz + z

    def _shift(self, x: int, y: int, z: int, dim: str, step: int) -> int:
        if dim == "x":
            return self.node_at((x + step) % self.nx, y, z)
        if dim == "y":
            return self.node_at(x, (y + step) % self.ny, z)
        return self.node_at(x, y, (z + step) % self.nz)

    @staticmethod
    def _ring_steps(src: int, dst: int, extent: int) -> List[int]:
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

    # -- routing ----------------------------------------------------------
    def _corners(self, src: int, dst: int) -> Tuple[int, int, int, int]:
        """Dimension order X, then Y, then Z: the turns are ``(dx, sy,
        sz)`` and ``(dx, dy, sz)``."""
        plane = self.ny * self.nz
        nz = self.nz
        return (
            src,
            dst - dst % plane + src % plane,
            dst - dst % nz + src % nz,
            dst,
        )

    def _walk(self, a: int, b: int) -> List[int]:
        """The nodes after ``a`` up to ``b`` the short way round their
        shared ring."""
        for stride, extent in self._axes:
            s, d = a // stride % extent, b // stride % extent
            if s != d:
                break
        base = a - s * stride
        return [base + c * stride for c in self._ring_steps(s, d, extent)]

    def distance(self, src: int, dst: int) -> int:
        """Hop count of the route: the shorter way round each ring, summed."""
        hops = 0
        for s, d, extent in zip(self.coords(src), self.coords(dst), self.shape):
            forward = (d - s) % extent
            hops += min(forward, extent - forward)
        return hops

    @staticmethod
    def dims_for(p: int) -> Tuple[int, int, int]:
        """Near-cubic power-of-two factorisation used for T3D partitions.

        The T3D allocated partitions with power-of-two extents; we pick
        the factorisation of ``p`` into three powers of two with the
        smallest maximum extent (e.g. ``128 -> (8, 4, 4)``).
        """
        if p <= 0 or p & (p - 1):
            raise TopologyError(f"T3D partition size must be a power of 2, got {p}")
        k = p.bit_length() - 1
        kx = (k + 2) // 3
        ky = (k - kx + 1) // 2
        kz = k - kx - ky
        return (1 << kx, 1 << ky, 1 << kz)
