"""The multi-pass trace summary, kept verbatim as a reference.

``span_intervals``, ``phase_stats``, ``_hottest_links`` and
``summarize_trace`` as they were before :mod:`repro.obs.summary` folded
its passes over the records into one: each walks the records again,
keys open spans by their sorted field items and aggregates phases in
dicts.  ``tests/test_obs_summary.py`` holds the production summary to
these outputs byte for byte (``json.dumps``, so key order and float
bits count).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.network.topology import Topology
from repro.simulator.trace import SPAN_BEGIN, SPAN_END, TraceRecord, Tracer

#: Version tag of the summary dict layout.
SUMMARY_SCHEMA = "repro-obs/1"


def span_intervals(records: Iterable[TraceRecord]) -> List[Dict[str, Any]]:
    """Paired span intervals, in begin order.

    Begins and ends are matched LIFO per identical field set (name,
    rank, and any extra fields), which is exactly how the context
    manager emits them.  An unmatched begin (truncated trace, or a
    program that died inside a span) yields no interval.
    """
    open_spans: Dict[Tuple, List[TraceRecord]] = {}
    intervals: List[Dict[str, Any]] = []
    order: List[Tuple[float, Dict[str, Any]]] = []
    for record in records:
        if record.kind == SPAN_BEGIN:
            key = tuple(sorted(record.fields.items()))
            open_spans.setdefault(key, []).append(record)
        elif record.kind == SPAN_END:
            key = tuple(sorted(record.fields.items()))
            stack = open_spans.get(key)
            if not stack:
                continue
            begin = stack.pop()
            order.append(
                (
                    begin.time,
                    {
                        "name": begin.fields.get("name", "span"),
                        "rank": begin.fields.get("rank"),
                        "round": begin.fields.get("round"),
                        "start": begin.time,
                        "end": record.time,
                    },
                )
            )
    order.sort(key=lambda pair: pair[0])
    intervals = [interval for _, interval in order]
    return intervals


def phase_stats(
    intervals: Sequence[Dict[str, Any]]
) -> Dict[str, Dict[str, Any]]:
    """Per-phase aggregation of span intervals.

    Returns ``{name: {count, total_us, max_us, mean_us, first_us,
    last_us}}`` where ``total_us`` sums the per-rank span durations
    (processor-time, so overlapping ranks add up) and ``first_us`` /
    ``last_us`` bound the phase's wall-clock extent.
    """
    stats: Dict[str, Dict[str, Any]] = {}
    for interval in intervals:
        name = interval["name"]
        duration = interval["end"] - interval["start"]
        entry = stats.get(name)
        if entry is None:
            stats[name] = {
                "count": 1,
                "total_us": duration,
                "max_us": duration,
                "first_us": interval["start"],
                "last_us": interval["end"],
            }
        else:
            entry["count"] += 1
            entry["total_us"] += duration
            entry["max_us"] = max(entry["max_us"], duration)
            entry["first_us"] = min(entry["first_us"], interval["start"])
            entry["last_us"] = max(entry["last_us"], interval["end"])
    for entry in stats.values():
        entry["mean_us"] = entry["total_us"] / entry["count"]
    return stats


def _hottest_links(
    records: Iterable[TraceRecord],
    topology: Optional[Topology],
    k: int,
) -> List[Dict[str, Any]]:
    busy: Dict[int, float] = {}
    first_wire = 2 * topology.num_nodes if topology is not None else 0
    for record in records:
        if record.kind != "xfer":
            continue
        duration = record.fields["finish"] - record.fields["start"]
        for link in record.fields["links"]:
            if link >= first_wire:
                busy[link] = busy.get(link, 0.0) + duration
    ranked = sorted(busy.items(), key=lambda item: (-item[1], item[0]))[:k]
    out: List[Dict[str, Any]] = []
    for link, total in ranked:
        entry: Dict[str, Any] = {"link": link, "busy_us": total}
        if topology is not None:
            u, v = topology.link_endpoints(link)
            entry["endpoints"] = [u, v]
        out.append(entry)
    return out


def summarize_trace(
    tracer: Tracer,
    *,
    topology: Optional[Topology] = None,
    k_links: int = 5,
) -> Dict[str, Any]:
    """One JSON-serialisable digest of a finished trace.

    Carries the per-phase span table, the slowest phase (by summed
    processor-time), the hottest wire links, and the event counts a
    report needs — everything the sweep layer stores beside (never
    inside) a cached result.
    """
    records = list(tracer)
    intervals = span_intervals(records)
    phases = phase_stats(intervals)
    slowest = max(
        phases, key=lambda name: phases[name]["total_us"], default=None
    )
    kinds: Dict[str, int] = {}
    for record in records:
        kinds[record.kind] = kinds.get(record.kind, 0) + 1
    return {
        "schema": SUMMARY_SCHEMA,
        "phases": phases,
        "slowest_phase": slowest,
        "spans": len(intervals),
        "hottest_links": _hottest_links(records, topology, k_links),
        "kinds": kinds,
        "lost_transfers": kinds.get("xfer_lost", 0),
        "truncated": tracer.truncated,
    }
