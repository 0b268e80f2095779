"""Cray T3D machine model.

The T3D is a 3-D torus of Alpha 21064 nodes.  Two properties dominate
the paper's T3D results, and both are modelled explicitly:

* **Uncontrollable placement** — production scheduling assigns virtual
  processors to physical nodes; the application cannot exploit the
  topology.  We draw a seeded random rank→node permutation per run.
* **Two-tier software costs** — MPI point-to-point carried tens of
  microseconds of overhead, while the vendor collectives
  (``MPI_Allgatherv``/``MPI_Alltoallv``) ride the shmem fast path at a
  small fraction of that.  Hand-rolled algorithms such as ``Br_Lin``
  pay the point-to-point tier; library collectives pay the fast tier.
  ``collective_overhead_scale`` expresses the ratio.

Link bandwidth is high (300 MB/s per channel) relative to the Alpha's
memory-copy rate, so the per-byte cost of *combining* messages — which
``Br_Lin`` does every iteration — is a large share of its total, which
is the paper's stated explanation for ``Br_Lin`` losing on the T3D.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.machines.machine import Machine, machine_spec
from repro.machines.params import MachineParams
from repro.network.mapping import RandomMapping
from repro.network.torus import Torus3D

__all__ = ["t3d", "T3D_PARAMS"]

#: Calibrated T3D timing parameters (microseconds; per byte/hop).
T3D_PARAMS = MachineParams(
    name="Cray T3D (MPI)",
    t_send_overhead=22.0,
    t_recv_overhead=13.0,
    t_byte=0.0036,  # ~280 MB/s per torus channel
    t_hop=0.02,
    t_mem_byte=0.050,  # ~20 MB/s effective combine path (alloc+copy+merge) on the 21064
    route_setup=0.5,
    collective_overhead_scale=0.12,  # shmem fast path inside collectives
    mpi_overhead_scale=1.0,  # MPI is the native library here
    collective_mem_scale=0.1,  # shmem deposits into the user buffer
    collective_style="pipelined",  # Cray-optimised Allgatherv
    collective_segment_bytes=16384,
)


def t3d(p: int, params: MachineParams = T3D_PARAMS) -> Machine:
    """A T3D partition of ``p`` virtual processors (``p`` a power of 2).

    The torus dimensions are the near-cubic power-of-two factorisation
    (:meth:`~repro.network.torus.Torus3D.dims_for`); the rank→node
    mapping is a random permutation drawn from the run seed, mirroring
    production scheduling.
    """
    if p <= 0:
        raise ConfigurationError(f"invalid T3D size {p}")
    nx, ny, nz = Torus3D.dims_for(p)
    return Machine(
        Torus3D(nx, ny, nz),
        params,
        mapping_factory=lambda topo, seed: RandomMapping(topo, seed=seed),
        spec=machine_spec(f"t3d:{p}", params, T3D_PARAMS),
    )
