"""Observability: trace exporters, link statistics, and roll-up reports.

The simulator's :class:`~repro.simulator.trace.Tracer` captures two
layers of records — kernel events (``send``, ``recv``, ``xfer``) and
algorithm spans (``span_begin``/``span_end``).  This package turns them
into things a human can look at:

* :mod:`repro.obs.chrome` — Chrome trace-event / Perfetto JSON
  (``chrome://tracing``), one process per rank plus link tracks;
* :mod:`repro.obs.linkstats` — per-link utilization and queue-depth
  time series, rendered as an ASCII heatmap;
* :mod:`repro.obs.summary` — per-phase span roll-ups and sweep-level
  aggregation (slowest phase per algorithm, hottest links).

``python -m repro --trace-json PATH`` prints a single run's roll-up and
heatmap and writes its Chrome trace; ``report --observe`` rolls up
whole sweeps.  An observed sweep point on the fast path builds no
records: :func:`~repro.obs.summary.summarize`, the one summary
arithmetic, is fed the replay's event log instead
(:func:`repro.fastpath.evaluator.summarize_replay`), and gives the
summary :func:`~repro.obs.summary.summarize_trace` gives for the
records, byte for byte.

Everything here is post-hoc: it reads a finished trace and never
touches the simulation, so enabling observability cannot change any
simulated time (the golden fixtures pin this).
"""

from __future__ import annotations

from repro.obs.chrome import (
    TRACE_SCHEMA,
    export_chrome_trace,
    write_chrome_trace,
)
from repro.obs.linkstats import LinkUsage, link_usage, render_link_heatmap
from repro.obs.summary import (
    aggregate_observations,
    phase_stats,
    render_rollup,
    render_sweep_rollup,
    span_intervals,
    summarize,
    summarize_trace,
)

__all__ = [
    "TRACE_SCHEMA",
    "export_chrome_trace",
    "write_chrome_trace",
    "LinkUsage",
    "link_usage",
    "render_link_heatmap",
    "span_intervals",
    "phase_stats",
    "summarize",
    "summarize_trace",
    "render_rollup",
    "aggregate_observations",
    "render_sweep_rollup",
]
