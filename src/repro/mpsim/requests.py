"""Non-blocking operation handles (the analogue of ``MPI_Request``)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulator.events import Event

__all__ = ["Request"]


class Request:
    """Handle for an outstanding non-blocking send (or receive).

    Wraps the completion :class:`~repro.simulator.events.Event`.  Use
    ``yield from request.wait()`` inside a process; to wait on several
    requests, wait on each in turn, as the schedule executor does with a
    round's sends.
    """

    __slots__ = ("event", "kind")

    def __init__(self, event: "Event", kind: str) -> None:
        self.event = event
        self.kind = kind

    def wait(self) -> Generator["Event", Any, Any]:
        """Block the calling process until completion; returns the value."""
        value = yield self.event
        return value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "complete" if self.event.triggered else "pending"
        return f"<Request {self.kind} {state}>"
