"""Communication-cost parameters of a simulated machine.

The parameter set is a small superset of the LogGP model, split so the
phenomena the paper relies on are separately tunable:

* ``t_send_overhead`` / ``t_recv_overhead`` — per-message *software*
  cost on the sending/receiving processor (LogGP's *o*).  This is what
  makes ``PersAlltoAll``'s s·(p−1) messages expensive on the Paragon.
* ``t_byte`` — wire time per byte per link (LogGP's *G*); together with
  path reservation this produces serialisation at hot spots.
* ``t_hop`` — router latency per hop.
* ``t_mem_byte`` — local memory-copy time per byte, charged when a
  received message is copied/combined.  The paper attributes
  ``Br_Lin``'s poor T3D showing to exactly this cost.
* ``collective_overhead_scale`` — multiplier on the software overheads
  when a message is issued from inside a *library collective*.  ≈1 on
  the Paragon (NX collectives are ordinary sends); ≪1 on the T3D whose
  MPI collectives ride the shmem fast path.
* ``mpi_overhead_scale`` — multiplier on software overheads for MPI
  point-to-point relative to the native library (the paper measured a
  2–5 % end-to-end loss on the Paragon under MPI).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any

from repro.errors import ConfigurationError

__all__ = ["MachineParams"]


@dataclass(frozen=True)
class MachineParams:
    """Immutable timing parameters, all in microseconds (per byte/hop where noted)."""

    name: str
    t_send_overhead: float
    t_recv_overhead: float
    t_byte: float
    t_hop: float
    t_mem_byte: float
    route_setup: float = 0.0
    collective_overhead_scale: float = 1.0
    mpi_overhead_scale: float = 1.0
    #: Scale on ``t_mem_byte`` for receives inside library collectives.
    #: ≪1 on machines whose collectives deposit directly into the user
    #: buffer (T3D shmem); 1 where collectives are ordinary receives.
    collective_mem_scale: float = 1.0
    #: How the vendor implements the gather+broadcast collective:
    #: ``"monolithic"`` (combine at the root, then broadcast one large
    #: message — the Paragon/MPICH reference style) or ``"pipelined"``
    #: (segmented ring broadcast overlapping the gather — the
    #: Cray-optimised style).  See repro.core.algorithms.mpi_coll.
    collective_style: str = "monolithic"
    #: Segment size of the pipelined collective broadcast, bytes.
    collective_segment_bytes: int = 16384
    #: Network switching technique: ``"wormhole"`` (both of the paper's
    #: machines) or ``"store_and_forward"`` (the previous router
    #: generation; kept for the switching ablation).
    switching: str = "wormhole"

    def __post_init__(self) -> None:
        for field_name in (
            "t_send_overhead",
            "t_recv_overhead",
            "t_byte",
            "t_hop",
            "t_mem_byte",
            "route_setup",
            "collective_overhead_scale",
            "mpi_overhead_scale",
            "collective_mem_scale",
        ):
            value = getattr(self, field_name)
            if not isinstance(value, (int, float)) or not 0 <= value < math.inf:
                raise ConfigurationError(
                    f"{self.name or 'params'}: {field_name} must be a "
                    f"finite non-negative number, got {value!r}"
                )
        if self.collective_style not in ("monolithic", "pipelined"):
            raise ConfigurationError(
                f"collective_style must be 'monolithic' or 'pipelined', "
                f"got {self.collective_style!r}"
            )
        if (
            not isinstance(self.collective_segment_bytes, int)
            or self.collective_segment_bytes <= 0
        ):
            raise ConfigurationError(
                "collective_segment_bytes must be a positive integer, got "
                f"{self.collective_segment_bytes!r}"
            )
        if self.switching not in ("wormhole", "store_and_forward"):
            raise ConfigurationError(
                f"switching must be 'wormhole' or 'store_and_forward', "
                f"got {self.switching!r}"
            )

    # -- derived quantities ------------------------------------------------
    def send_overhead(self, *, collective: bool = False, mpi: bool = False) -> float:
        """Sender software cost for one message under the given mode."""
        return self.t_send_overhead * self._scale(collective, mpi)

    def recv_overhead(self, *, collective: bool = False, mpi: bool = False) -> float:
        """Receiver software cost for one message under the given mode."""
        return self.t_recv_overhead * self._scale(collective, mpi)

    def _scale(self, collective: bool, mpi: bool) -> float:
        scale = 1.0
        if collective:
            scale *= self.collective_overhead_scale
        if mpi:
            scale *= self.mpi_overhead_scale
        return scale

    def copy_cost(self, nbytes: int, *, collective: bool = False) -> float:
        """Time to memcpy ``nbytes`` locally (combining / receive copy)."""
        scale = self.collective_mem_scale if collective else 1.0
        return nbytes * self.t_mem_byte * scale

    def latency(self, nbytes: int, hops: int = 1) -> float:
        """Uncontended end-to-end time for one ``nbytes`` message."""
        return (
            self.t_send_overhead
            + self.route_setup
            + hops * self.t_hop
            + nbytes * self.t_byte
            + self.t_recv_overhead
            + self.copy_cost(nbytes)
        )

    def with_overrides(self, **changes: Any) -> "MachineParams":
        """A copy with selected fields replaced (for ablations)."""
        return replace(self, **changes)
