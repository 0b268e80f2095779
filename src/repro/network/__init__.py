"""Interconnection-network substrate.

Models the two interconnects of the paper:

* :class:`~repro.network.mesh.Mesh2D` — the Intel Paragon's 2-D mesh.
* :class:`~repro.network.torus.Torus3D` — the Cray T3D's 3-D torus.
* :class:`~repro.network.linear.LinearArray` — a 1-D array, useful for
  unit tests and for the logical view used by ``Br_Lin``.

Routing is deterministic dimension-order (X then Y [then Z]), matching
the wormhole routers of both machines.  Contention is modelled by the
:class:`~repro.network.fabric.Fabric`: a message reserves every link on
its path (including the injection and ejection channels of the two end
nodes) for the duration of its transmission — the classic
path-reservation approximation of wormhole routing.  Hot spots such as
the gather root of the paper's *2-Step* algorithm emerge naturally from
serialisation on the ejection channel.
"""

from __future__ import annotations

from repro.network.fabric import Fabric, TransferStats
from repro.network.hypercube import Hypercube
from repro.network.linear import LinearArray
from repro.network.mapping import IdentityMapping, RandomMapping, RankMapping
from repro.network.mesh import Mesh2D
from repro.network.topology import Topology
from repro.network.torus import Torus3D

__all__ = [
    "Topology",
    "LinearArray",
    "Hypercube",
    "Mesh2D",
    "Torus3D",
    "Fabric",
    "TransferStats",
    "RankMapping",
    "IdentityMapping",
    "RandomMapping",
]
