"""Intel Paragon machine model.

The Paragon XP/S is a 2-D mesh of i860 XP nodes with wormhole routing.
Applications run on a contiguous submesh of requested dimensions and
address nodes in row-major order; the native message-passing library is
NX, with MPI available at a measured 2–5 % end-to-end penalty (§5 of
the paper).

Parameter rationale (shapes, not absolute fidelity — DESIGN.md §2):

* large per-message software overhead (NX ``csend``/``crecv`` latency
  was on the order of 10^2 microseconds) — this is what sinks
  ``PersAlltoAll`` and every algorithm issuing many messages;
* moderate link bandwidth (hardware 200 MB/s, sustained well below)
  relative to which the i860's memory-copy rate is *slow* — so message
  combining and receive copies matter;
* library collectives have no privileged fast path: NX collectives are
  built from ordinary sends, hence ``collective_overhead_scale = 1``.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.machines.machine import Machine, machine_spec
from repro.machines.params import MachineParams
from repro.network.mesh import Mesh2D

__all__ = ["paragon", "PARAGON_PARAMS"]

#: Calibrated Paragon timing parameters (microseconds; per byte/hop).
PARAGON_PARAMS = MachineParams(
    name="Intel Paragon (NX)",
    t_send_overhead=82.0,
    t_recv_overhead=40.0,
    t_byte=0.0057,  # ~175 MB/s per mesh channel
    t_hop=0.04,
    t_mem_byte=0.011,  # ~90 MB/s i860 copy rate
    route_setup=1.0,
    collective_overhead_scale=1.0,
    mpi_overhead_scale=1.35,  # per-message MPI penalty (2-5 % end to end)
)


def paragon(
    rows: int, cols: int, params: MachineParams = PARAGON_PARAMS
) -> Machine:
    """A ``rows x cols`` Paragon submesh.

    Ranks are the row-major node order of the submesh, exactly as NX
    numbers them; the mapping is the identity, so algorithms may use
    mesh coordinates (``machine.topology.coords`` / ``node_at``).
    """
    if rows <= 0 or cols <= 0:
        raise ConfigurationError(f"invalid Paragon shape {rows}x{cols}")
    return Machine(
        Mesh2D(rows, cols),
        params,
        mapping_factory=None,  # identity
        spec=machine_spec(f"paragon:{rows}x{cols}", params, PARAGON_PARAMS),
    )
