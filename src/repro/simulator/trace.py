"""Lightweight structured tracing for simulations.

Attach a :class:`Tracer` to an :class:`~repro.simulator.engine.Engine`
to capture a chronological record of kernel- and network-level events
(sends, link grants, deliveries, ...).  Tracing is off by default —
``Engine.trace`` is a no-op without a tracer — so production benchmark
runs pay nothing for it.

Two record layers share the one tracer:

* **kernel events** — point records emitted by the message layer and
  the fabric (``send``, ``recv``, ``xfer``, ...);
* **spans** — paired ``span_begin``/``span_end`` records bracketing a
  named phase of an algorithm (``Engine.span("fold", rank=3)``), under
  which the kernel events of that phase nest chronologically.

Exporters in :mod:`repro.obs` turn both into Chrome trace-event JSON
and per-phase summaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = ["TraceRecord", "Tracer", "Span", "NULL_SPAN", "SPAN_BEGIN", "SPAN_END"]

#: Record kind of a span opening (fields carry ``name`` + user fields).
SPAN_BEGIN = "span_begin"
#: Record kind of a span closing (fields mirror the opening record).
SPAN_END = "span_end"


@dataclass(frozen=True)
class TraceRecord:
    """One traced occurrence: a timestamp, a kind tag, and free-form fields."""

    time: float
    kind: str
    fields: Dict[str, Any] = field(default_factory=dict)


class Tracer:
    """Accumulates :class:`TraceRecord` objects, optionally filtered by kind.

    Parameters
    ----------
    kinds:
        When given, only records whose ``kind`` is in this set are kept.
    limit:
        Safety cap on stored records; the tracer silently stops
        recording past the cap (``truncated`` turns ``True``).
    """

    def __init__(
        self, kinds: Optional[Tuple[str, ...]] = None, limit: int = 1_000_000
    ) -> None:
        self._kinds = frozenset(kinds) if kinds is not None else None
        self._limit = limit
        self.records: List[TraceRecord] = []
        self.truncated = False

    def wants(self, kind: str) -> bool:
        """Whether the kind filter keeps records of ``kind``."""
        return self._kinds is None or kind in self._kinds

    def record(self, time: float, kind: str, fields: Dict[str, Any]) -> None:
        """Store one record (subject to the kind filter and limit)."""
        if self._kinds is not None and kind not in self._kinds:
            return
        if len(self.records) >= self._limit:
            self.truncated = True
            return
        self.records.append(TraceRecord(time, kind, fields))

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)


class Span:
    """A named phase: records ``span_begin`` on entry, ``span_end`` on exit.

    Built by :meth:`~repro.simulator.engine.Engine.span`; use as a
    context manager so the end record cannot be forgotten.  The same
    ``fields`` dict is recorded on both ends (plus the span ``name``),
    which is what lets exporters pair them back up per rank.
    """

    __slots__ = ("_engine", "name", "fields")

    def __init__(self, engine: Any, name: str, fields: Dict[str, Any]) -> None:
        self._engine = engine
        self.name = name
        self.fields = fields

    def __enter__(self) -> "Span":
        engine = self._engine
        engine.tracer.record(
            engine.now, SPAN_BEGIN, {"name": self.name, **self.fields}
        )
        return self

    def __exit__(self, *exc: Any) -> bool:
        engine = self._engine
        engine.tracer.record(
            engine.now, SPAN_END, {"name": self.name, **self.fields}
        )
        return False


class _NullSpan:
    """Shared no-op span returned when no tracer is attached."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


#: The singleton no-op span — ``Engine.span`` returns this (no
#: allocation) whenever tracing is disabled.
NULL_SPAN = _NullSpan()
