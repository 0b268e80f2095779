"""FIFO stores: the buffering primitive of the message layer.

A :class:`Store` is an unbounded FIFO of items with event-based ``get``:
consumers receive items in arrival order, and waiting consumers are
served in request order.  Processor inboxes and link-arbitration queues
are built on it.

``get`` optionally takes a *filter* predicate, which is what MPI-style
``(source, tag)`` matching uses: the store scans its buffer for the
first matching item and, when none is present, parks the request until
a matching item is ``put``.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simulator.engine import Engine

from repro.simulator.events import Event

__all__ = ["Store"]

_Filter = Optional[Callable[[Any], bool]]


class Store:
    """Unbounded FIFO buffer with filtered, event-based retrieval.

    Notes
    -----
    Matching semantics follow MPI's non-overtaking rule for a fixed
    (source, tag) pair: because both the item buffer and the waiter
    queue are FIFO and filters are evaluated in order, two messages
    matching the same filter are always delivered in the order they
    were put.
    """

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self._items: Deque[Any] = deque()
        self._getters: Deque[Tuple[Event, _Filter]] = deque()

    def __len__(self) -> int:
        """Number of buffered (unclaimed) items."""
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit ``item``; wakes the first waiting matching getter."""
        for idx, (event, predicate) in enumerate(self._getters):
            if predicate is None or predicate(item):
                del self._getters[idx]
                event.succeed(item)
                return
        self._items.append(item)

    def get(self, predicate: _Filter = None) -> Event:
        """Return an event that fires with the first matching item.

        If a matching item is already buffered, the event fires at the
        current instant (still via the calendar, preserving ordering).
        """
        event = Event(self.engine)
        for idx, item in enumerate(self._items):
            if predicate is None or predicate(item):
                del self._items[idx]
                event.succeed(item)
                return event
        self._getters.append((event, predicate))
        return event

    def cancel(self, event: Event) -> bool:
        """Withdraw a parked :meth:`get` request.

        Needed by timed receives: when the timeout wins the race, the
        abandoned getter must be removed, or the next matching ``put``
        would wake it and the item would vanish unread.  Returns whether
        the request was actually parked (an already-served or unknown
        event is a no-op).
        """
        for idx, (parked, _predicate) in enumerate(self._getters):
            if parked is event:
                del self._getters[idx]
                return True
        return False
