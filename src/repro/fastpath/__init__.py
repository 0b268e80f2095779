"""Schedule fast path: one lowering, kernel replay, plan cache.

The paper's algorithms compile to *static* schedules — every round,
transfer, link path and software overhead is known before the clock
starts.  This package exploits that staticness in three layers:

* :mod:`~.lowering` turns a built :class:`~repro.core.schedule.Schedule`
  into a :class:`FastPlan` of plain lists (per-rank op streams, per-send
  message sets and costs, per-round tables, plus the report fields the
  schedule alone fixes), size-rebindable across message-length sweeps.
  It is the one lowering of both engines: the event engine's
  :class:`~repro.core.executor.ScheduleExecutor` runs the same op
  streams as generator programs;
* :mod:`~.kernel` replays a bound plan in **one CPython function** over
  plain lists and memoized route tuples, reproducing the generator
  engine's event ordering **bit-for-bit** (same ``(time, seq)``
  discipline, same float expressions, same metrics accumulation
  order);
* :mod:`~.plancache` amortizes schedule build + validation + lowering
  across sweep points that share the schedule-determining data
  (machine spec, algorithm, source placement), rebinding sizes and
  seeds per point.

Selection is wired through ``run_broadcast(engine=...)``: ``"auto"``
takes this path whenever faults and recovery are off — traced runs
included: the kernel then logs its events and the evaluator rebuilds
the event engine's trace records from the log.  The 49 golden sha256
fixtures, the trace goldens and the randomized differential harness
(``tests/test_fastpath_differential.py``) pin the bit-identity claim
for cold lowerings, warm plan-cache replays and traces alike.  See
``docs/FASTPATH.md`` for the full contract.
"""

from repro.errors import UnsupportedFastPathError
from repro.fastpath.evaluator import (
    FastRunResult,
    PlanBinding,
    bind_plan,
    evaluate_plan,
)
from repro.fastpath.lowering import FastPlan, lower_schedule
from repro.fastpath.plancache import FastOutcome, evaluate_problem

__all__ = [
    "FastOutcome",
    "FastPlan",
    "FastRunResult",
    "PlanBinding",
    "UnsupportedFastPathError",
    "bind_plan",
    "evaluate_plan",
    "evaluate_problem",
    "lower_schedule",
]
