"""The discrete-event engine: calendar queue plus virtual clock.

The engine is deliberately minimal — a heap of ``(time, seq, event)``
triples and a ``run()`` loop — because everything interesting
(link arbitration, message matching, process control) is layered on top
via :class:`~repro.simulator.events.Event` callbacks.

Two design points matter for reproducing the paper:

* **Determinism.**  Ties in time are broken by a monotonically
  increasing sequence number, so two events scheduled for the same
  instant always fire in scheduling order.  A whole machine simulation
  is therefore a pure function of its configuration and seeds.
* **Deadlock detection.**  When the calendar drains while processes are
  still alive, the engine raises
  :class:`~repro.errors.DeadlockError` naming the blocked processes —
  the moral equivalent of an MPI job hanging in ``MPI_Recv``.
"""

from __future__ import annotations

import heapq
from typing import Any, Generator, List, Optional, Tuple

from repro.errors import DeadlockError
from repro.simulator.events import Event, Timeout
from repro.simulator.process import Process
from repro.simulator.trace import NULL_SPAN, Span, Tracer

__all__ = ["Engine"]


class Engine:
    """A deterministic discrete-event simulation engine.

    Time is a ``float`` in **microseconds**, starting at ``0.0``.

    Examples
    --------
    >>> engine = Engine()
    >>> def hello():
    ...     yield engine.timeout(5.0)
    ...     return engine.now
    >>> proc = engine.process(hello())
    >>> engine.run()
    >>> proc.value
    5.0
    """

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self._now = 0.0
        self._queue: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self._processes: List[Process] = []
        self.tracer = tracer
        #: Descriptions of injected faults in scope for this run; when a
        #: deadlock is raised these are appended to the diagnostic, so a
        #: hang caused by a dead link reads as such instead of as a bug.
        self.fault_context: Tuple[str, ...] = ()

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in microseconds."""
        return self._now

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        """Create a fresh pending :class:`Event` bound to this engine."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` microseconds from now."""
        return Timeout(self, delay, value)

    def process(
        self, generator: Generator[Event, Any, Any], name: Optional[str] = None
    ) -> Process:
        """Spawn ``generator`` as a simulated process, starting at ``now``."""
        proc = Process(self, generator, name=name)
        self._processes.append(proc)
        return proc

    # -- main loop ------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Run until the calendar drains (or past time ``until``).

        Raises
        ------
        DeadlockError
            If the calendar drains while spawned processes are still
            alive, i.e. blocked on events nobody will trigger.
        """
        # The dispatch loop is the single hottest frame of a simulation;
        # hoisting the queue and heappop saves two attribute (and one
        # global) lookups per event.
        queue = self._queue
        pop = heapq.heappop
        if until is None:
            while queue:
                when, _seq, event = pop(queue)
                self._now = when
                event._process()
        else:
            while queue:
                if queue[0][0] > until:
                    self._now = until
                    return
                when, _seq, event = pop(queue)
                self._now = when
                event._process()
        blocked = [p for p in self._processes if p.is_alive]
        if blocked:
            detail = "; ".join(p.describe_block() for p in blocked[:16])
            more = "" if len(blocked) <= 16 else f" (+{len(blocked) - 16} more)"
            faults = (
                f" [active faults: {', '.join(self.fault_context)}]"
                if self.fault_context
                else ""
            )
            raise DeadlockError(
                f"simulation deadlocked at t={self._now:.3f}us with "
                f"{len(blocked)} blocked process(es): {detail}{more}{faults}"
            )

    # -- introspection ----------------------------------------------------
    @property
    def events_scheduled(self) -> int:
        """Total events placed on the calendar so far (perf metric)."""
        return self._seq

    def trace(self, kind: str, **fields: Any) -> None:
        """Record a trace event if a tracer is attached (cheap no-op otherwise)."""
        if self.tracer is not None:
            self.tracer.record(self._now, kind, fields)

    def span(self, name: str, **fields: Any) -> Any:
        """A context manager bracketing a named phase in the trace.

        With a tracer attached the span records ``span_begin`` /
        ``span_end`` at the current virtual time; without one it is the
        shared no-op singleton, so instrumented code pays one ``None``
        check and no allocation when observability is off.

        Examples
        --------
        >>> from repro.simulator.trace import Tracer
        >>> engine = Engine(tracer=Tracer())
        >>> with engine.span("fold", rank=0):
        ...     engine.trace("send", dst=1)
        >>> [r.kind for r in engine.tracer]
        ['span_begin', 'send', 'span_end']
        """
        if self.tracer is None:
            return NULL_SPAN
        return Span(self, name, fields)
