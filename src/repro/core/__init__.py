"""The paper's contribution: s-to-p broadcasting.

* :class:`~repro.core.problem.BroadcastProblem` — machine + source set
  + message sizes.
* :mod:`~repro.core.schedule` — the communication-schedule IR every
  algorithm compiles to (rounds of message-set sends, as columns).
* :mod:`~repro.core.algorithms` — the paper's algorithms, each a
  schedule builder.
* :mod:`~repro.core.executor` — runs a schedule on the simulated
  machine with data-parallel (not global) synchronisation.
* :func:`~repro.core.runner.run_broadcast` — the one-call driver:
  builds the schedule, runs it, verifies delivery, reports time and
  metrics.
* :mod:`~repro.core.ideal` — machine-dimension-aware ideal source
  distributions used by the repositioning algorithms.
* :mod:`~repro.core.analysis` — the analytic Figure-2 parameter model.
* :mod:`~repro.core.selector` — the paper's §5.2 recommendation logic.
"""

from __future__ import annotations

from repro.core.problem import BroadcastProblem
from repro.core.recovery import RecoveryOutcome, run_recovery
from repro.core.runner import BroadcastResult, run_broadcast
from repro.core.schedule import Schedule

__all__ = [
    "BroadcastProblem",
    "Schedule",
    "run_broadcast",
    "BroadcastResult",
    "run_recovery",
    "RecoveryOutcome",
]
