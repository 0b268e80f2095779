"""repro — s-to-p broadcasting on message-passing MPPs, reproduced.

A from-scratch Python reproduction of Hambrusch, Khokhar & Liu,
*Scalable S-to-P Broadcasting on Message-Passing MPPs* (ICPP 1996):
the broadcasting algorithms, the source distributions, the
repositioning/partitioning approaches, and — because the original
hardware is long gone — discrete-event models of the Intel Paragon
(2-D mesh) and Cray T3D (3-D torus) to run them on.

Quickstart::

    import repro

    machine = repro.paragon(10, 10)                  # 10x10 Paragon submesh
    sources = repro.get_distribution("Dr").generate(machine, 30)
    problem = repro.BroadcastProblem(machine, sources, message_size=4096)
    result = repro.run_broadcast(problem, "Br_xy_source")
    print(f"{result.elapsed_ms:.2f} ms, congestion={result.metrics.congestion}")

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every figure.
"""

from __future__ import annotations

from repro._version import __version__
from repro.core.algorithms import (
    ALGORITHMS,
    BroadcastAlgorithm,
    get_algorithm,
    list_algorithms,
)
from repro.core.problem import BroadcastProblem
from repro.core.runner import BroadcastResult, run_broadcast
from repro.core.schedule import Schedule
from repro.distributions import (
    DISTRIBUTIONS,
    SourceDistribution,
    get_distribution,
    list_distributions,
)
from repro.errors import ReproError
from repro.faults import FaultInjector, FaultSchedule
from repro.machines import Machine, MachineParams, machine_from_spec, paragon, t3d
from repro.sweep import ResultCache, SweepExecutor, SweepPoint, SweepSpec

__all__ = [
    "__version__",
    "ReproError",
    "Machine",
    "MachineParams",
    "paragon",
    "t3d",
    "BroadcastProblem",
    "BroadcastResult",
    "run_broadcast",
    "Schedule",
    "BroadcastAlgorithm",
    "ALGORITHMS",
    "get_algorithm",
    "list_algorithms",
    "SourceDistribution",
    "DISTRIBUTIONS",
    "get_distribution",
    "list_distributions",
    "machine_from_spec",
    "FaultSchedule",
    "FaultInjector",
    "ResultCache",
    "SweepExecutor",
    "SweepPoint",
    "SweepSpec",
]
