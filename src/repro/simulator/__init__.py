"""Discrete-event simulation kernel.

A tiny, deterministic, generator-based discrete-event engine in the style
of SimPy, purpose-built for simulating message-passing machines:

* :class:`~repro.simulator.engine.Engine` — the event loop: a binary-heap
  calendar queue with a virtual clock in **microseconds**.
* :class:`~repro.simulator.events.Event` and friends — one-shot
  triggerable events; processes block on them by ``yield``-ing them.
* :class:`~repro.simulator.process.Process` — wraps a Python generator
  into a simulated thread of control.
* :class:`~repro.simulator.resources.Store` — a FIFO buffer used for
  processor inboxes and link-arbitration queues.

Determinism: events scheduled for the same timestamp fire in scheduling
order (a monotonically increasing sequence number breaks ties), so a
simulation is a pure function of its inputs and seeds.
"""

from __future__ import annotations

from repro.simulator.engine import Engine
from repro.simulator.events import AnyOf, Event, Timeout
from repro.simulator.process import Process
from repro.simulator.resources import Store
from repro.simulator.trace import (
    NULL_SPAN,
    SPAN_BEGIN,
    SPAN_END,
    Span,
    TraceRecord,
    Tracer,
)

__all__ = [
    "Engine",
    "Event",
    "Timeout",
    "AnyOf",
    "Process",
    "Store",
    "Tracer",
    "TraceRecord",
    "Span",
    "NULL_SPAN",
    "SPAN_BEGIN",
    "SPAN_END",
]
