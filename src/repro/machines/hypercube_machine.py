"""A hypercube machine preset (the related-work architecture).

The paper's algorithm family descends from hypercube collectives;
:func:`hypercube` builds a machine on which ``Br_Lin``'s halving
pattern maps to single-hop dimension exchanges, useful for studying the
algorithms where their communication structure is contention-free by
construction.  Parameters reuse the Paragon's software costs (an
nCUBE/iPSC-era machine would have similar per-message dominance), so
cross-architecture comparisons isolate the *topology* effect.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.machines.machine import Machine, machine_spec
from repro.machines.paragon import PARAGON_PARAMS
from repro.machines.params import MachineParams
from repro.network.hypercube import Hypercube

__all__ = ["hypercube"]


def hypercube(p: int, params: MachineParams = PARAGON_PARAMS) -> Machine:
    """A ``p``-processor hypercube machine (``p`` a power of two)."""
    if p <= 0 or p & (p - 1):
        raise ConfigurationError(
            f"hypercube size must be a power of two, got {p}"
        )
    return Machine(
        Hypercube(p.bit_length() - 1),
        params,
        mapping_factory=None,  # identity: ranks are cube addresses
        spec=machine_spec(f"hypercube:{p}", params, PARAGON_PARAMS),
    )
