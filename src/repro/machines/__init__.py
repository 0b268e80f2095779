"""Machine models: topology + calibrated communication parameters.

Two machine families are provided, mirroring the paper's testbeds:

* :func:`~repro.machines.paragon.paragon` — Intel Paragon: 2-D mesh,
  NX message passing (with an MPI overhead variant), slow per-message
  software paths, memory copies on the i860 that are slow relative to
  the wires.
* :func:`~repro.machines.t3d.t3d` — Cray T3D: 3-D torus, MPI point to
  point with substantial software overhead but library collectives that
  ride the fast shmem path, high-bandwidth links, and a random
  virtual→physical mapping the application cannot control.

Absolute times are *not* calibrated to the original hardware — the
simulator reproduces relative behaviour (orderings, crossovers), per
DESIGN.md §2.
"""

from __future__ import annotations

from repro.machines.hypercube_machine import hypercube
from repro.machines.machine import (
    SPEC_GRAMMAR,
    Machine,
    RunResult,
    machine_from_spec,
)
from repro.machines.params import MachineParams
from repro.machines.paragon import paragon
from repro.machines.t3d import t3d

__all__ = [
    "Machine",
    "MachineParams",
    "RunResult",
    "paragon",
    "t3d",
    "hypercube",
    "machine_from_spec",
]
