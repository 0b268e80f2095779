"""One-shot events for the discrete-event kernel.

An :class:`Event` is the unit of synchronization: a process ``yield``-s an
event and is resumed (with the event's value) once the event *succeeds*.
Events succeed at most once.  :class:`Timeout` is an event pre-scheduled
to succeed after a fixed delay; :class:`AnyOf` fires on the first of
several events (a message layer's receive racing its timeout).
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simulator.engine import Engine

__all__ = ["Event", "Timeout", "Condition", "AnyOf"]

#: Sentinel distinguishing "no value yet" from a legitimate ``None`` value.
_PENDING = object()


class Event:
    """A one-shot occurrence that callbacks (and processes) can wait on.

    Parameters
    ----------
    engine:
        The owning :class:`~repro.simulator.engine.Engine`.

    Notes
    -----
    The life cycle is *pending* → *triggered* (scheduled on the calendar)
    → *processed* (callbacks ran).  Processes that ``yield`` an already
    processed event are resumed immediately with its stored value, so
    waiting on a completed request is race-free.
    """

    __slots__ = ("engine", "callbacks", "_value", "_processed")

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        #: Callbacks invoked (in registration order) when the event fires.
        self.callbacks: Optional[List[Callable[[Event], None]]] = []
        self._value: Any = _PENDING
        self._processed = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """Whether :meth:`succeed` has been called (value is decided)."""
        return self._value is not _PENDING

    @property
    def value(self) -> Any:
        """The event's value; raises if the event is still pending."""
        if self._value is _PENDING:
            raise SimulationError("event value accessed before trigger")
        return self._value

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Schedule this event to fire ``delay`` microseconds from now.

        Returns ``self`` so triggering can be chained/returned.
        """
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._value = value
        # Inlined calendar push — one call frame per event matters;
        # this is the single most frequent operation of a simulation.
        engine = self.engine
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay!r}")
        heapq.heappush(engine._queue, (engine._now + delay, engine._seq, self))
        engine._seq += 1
        return self

    # -- kernel hook ------------------------------------------------------
    def _process(self) -> None:
        """Run callbacks.  Called by the engine exactly once."""
        if self._processed:  # pragma: no cover - engine guarantees once
            raise SimulationError(f"{self!r} processed twice")
        self._processed = True
        callbacks = self.callbacks
        self.callbacks = None
        for callback in callbacks:  # type: ignore[union-attr]
            callback(self)

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Attach ``callback``; runs immediately if already processed."""
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = (
            "processed"
            if self._processed
            else "triggered"
            if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` microseconds after creation.

    Used to model computation time (message combining, per-message
    software overhead) as well as plain sleeps.
    """

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        self.engine = engine
        self.callbacks = []
        self._processed = False
        self.delay = delay
        self._value = value
        # Inlined Event.__init__ + calendar push (hot path; see succeed).
        heapq.heappush(engine._queue, (engine._now + delay, engine._seq, self))
        engine._seq += 1


class Condition(Event):
    """Base class for events composed from several child events."""

    __slots__ = ("events",)

    def __init__(self, engine: "Engine", events: Sequence[Event]) -> None:
        super().__init__(engine)
        self.events = tuple(events)
        for event in self.events:
            if event.engine is not engine:
                raise SimulationError("cannot mix events from different engines")
        if not self.events:
            self.succeed([])
        else:
            for event in self.events:
                event.add_callback(self._child_fired)

    def _child_fired(self, event: Event) -> None:
        raise NotImplementedError


class AnyOf(Condition):
    """Fires as soon as *one* child event fires; value is ``(index, value)``."""

    __slots__ = ()

    def _child_fired(self, event: Event) -> None:
        if not self.triggered:
            index = self.events.index(event)
            self.succeed((index, event.value))
