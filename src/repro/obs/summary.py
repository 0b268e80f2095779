"""Span roll-ups: from raw trace records to "what was slow" answers.

``span_intervals`` pairs the tracer's ``span_begin``/``span_end``
records back into intervals; ``phase_stats`` aggregates them per phase
name; ``summarize`` bundles the phase table with fabric-level facts
(hottest links, lost transfers) into one JSON-serialisable dict — the
unit the sweep executor attaches to each observed point and the roll-up
renderers print.  ``summarize_trace`` feeds it a tracer's records; the
fast path feeds it its replay log
(:func:`repro.fastpath.evaluator.summarize_replay`), so no record is
built to be summarized.

>>> from repro.simulator.trace import TraceRecord
>>> records = [TraceRecord(0.0, "span_begin", {"name": "fold", "rank": 0}),
...            TraceRecord(5.0, "span_end", {"name": "fold", "rank": 0})]
>>> span_intervals(records)
[{'name': 'fold', 'rank': 0, 'round': None, 'start': 0.0, 'end': 5.0}]
>>> phase_stats(span_intervals(records))["fold"]["total_us"]
5.0
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.network.topology import Topology
from repro.simulator.trace import SPAN_BEGIN, SPAN_END, TraceRecord, Tracer

__all__ = [
    "span_intervals",
    "phase_stats",
    "summarize",
    "summarize_trace",
    "render_rollup",
    "aggregate_observations",
    "render_sweep_rollup",
]

#: Version tag of the summary dict layout.
SUMMARY_SCHEMA = "repro-obs/1"
#: Hottest wire links a summary lists unless asked for another count.
HOTTEST_LINKS = 5


def span_intervals(records: Iterable[TraceRecord]) -> List[Dict[str, Any]]:
    """Paired span intervals, sorted by start.

    Begins and ends are matched LIFO per identical field set (name,
    rank, and any extra fields, in any insertion order), which is
    exactly how the context manager emits them.  An unmatched begin
    (truncated trace, or a program that died inside a span) yields no
    interval.  The sort is stable, so intervals with equal starts keep
    the order their ends were recorded in, and :func:`phase_stats` sums
    them in that order.
    """
    open_spans: Dict[frozenset, List[TraceRecord]] = {}
    intervals: List[Dict[str, Any]] = []
    for record in records:
        kind = record.kind
        if kind == SPAN_BEGIN:
            key = frozenset(record.fields.items())
            stack = open_spans.get(key)
            if stack is None:
                open_spans[key] = [record]
            else:
                stack.append(record)
        elif kind == SPAN_END:
            stack = open_spans.get(frozenset(record.fields.items()))
            if not stack:
                continue
            begin = stack.pop()
            fields = begin.fields
            intervals.append({
                "name": fields.get("name", "span"),
                "rank": fields.get("rank"),
                "round": fields.get("round"),
                "start": begin.time,
                "end": record.time,
            })
    intervals.sort(key=itemgetter("start"))
    return intervals


def phase_stats(
    intervals: Sequence[Dict[str, Any]]
) -> Dict[str, Dict[str, Any]]:
    """Per-phase aggregation of span intervals.

    Returns ``{name: {count, total_us, max_us, first_us, last_us,
    mean_us}}`` where ``total_us`` sums the per-rank span durations in
    interval order (processor-time, so overlapping ranks add up) and
    ``first_us`` / ``last_us`` bound the phase's wall-clock extent.
    """
    # [count, total, max, first, last] per phase, in first-seen order.
    acc: Dict[str, List[Any]] = {}
    for interval in intervals:
        start = interval["start"]
        end = interval["end"]
        duration = end - start
        entry = acc.get(interval["name"])
        if entry is None:
            acc[interval["name"]] = [1, duration, duration, start, end]
            continue
        entry[0] += 1
        entry[1] += duration
        if duration > entry[2]:
            entry[2] = duration
        if start < entry[3]:
            entry[3] = start
        if end > entry[4]:
            entry[4] = end
    return {
        name: {
            "count": count,
            "total_us": total,
            "max_us": peak,
            "first_us": first,
            "last_us": last,
            "mean_us": total / count,
        }
        for name, (count, total, peak, first, last) in acc.items()
    }


def _hottest_links(
    busy: Dict[int, float], topology: Optional[Topology], k: int
) -> List[Dict[str, Any]]:
    """The ``k`` busiest links of a link → reserved-time table."""
    ranked = sorted(busy.items(), key=lambda item: (-item[1], item[0]))[:k]
    out: List[Dict[str, Any]] = []
    for link, total in ranked:
        entry: Dict[str, Any] = {"link": link, "busy_us": total}
        if topology is not None:
            u, v = topology.link_endpoints(link)
            entry["endpoints"] = [u, v]
        out.append(entry)
    return out


def summarize(
    kinds: Dict[str, int],
    xfers: Iterable[Tuple[Sequence[int], float, float]],
    intervals: List[Dict[str, Any]],
    *,
    truncated: bool,
    topology: Optional[Topology],
    k_links: int,
) -> Dict[str, Any]:
    """One JSON-serialisable digest of a finished trace.

    Carries the per-phase span table, the slowest phase (by summed
    processor-time), the hottest wire links, and the event counts a
    report needs — everything the sweep layer stores beside (never
    inside) a cached result.  It reads only what a trace says, however
    it was kept:

    * ``kinds`` — the count of records of each kind, in first-seen
      order;
    * ``xfers`` — each ``xfer``'s ``(links, start, finish)``, in record
      order: every wire link of the path is busy for ``finish - start``,
      summed in this order;
    * ``intervals`` — the closed span intervals (``name``, ``rank``,
      ``round``, ``start``, ``end``) in the order they closed; they are
      sorted here, in place and stably by start (one linear pass when
      they come sorted, as :func:`span_intervals` returns them), and
      the phase table sums them in that order;
    * ``truncated`` — whether the trace lost records to a limit.
    """
    first_wire = 2 * topology.num_nodes if topology is not None else 0
    busy: Dict[int, float] = {}
    for links, start, finish in xfers:
        duration = finish - start
        for link in links:
            if link >= first_wire:
                busy[link] = busy.get(link, 0.0) + duration
    intervals.sort(key=itemgetter("start"))
    phases = phase_stats(intervals)
    slowest = max(
        phases, key=lambda name: phases[name]["total_us"], default=None
    )
    return {
        "schema": SUMMARY_SCHEMA,
        "phases": phases,
        "slowest_phase": slowest,
        "spans": len(intervals),
        "hottest_links": _hottest_links(busy, topology, k_links),
        "kinds": kinds,
        "lost_transfers": kinds.get("xfer_lost", 0),
        "truncated": truncated,
    }


def summarize_trace(
    tracer: Tracer,
    *,
    topology: Optional[Topology] = None,
    k_links: int = HOTTEST_LINKS,
) -> Dict[str, Any]:
    """:func:`summarize` of a tracer's records.

    One pass over the records counts kinds, takes each ``xfer``'s link
    path and reservation window and collects the span records for
    :func:`span_intervals`.
    """
    kinds: Dict[str, int] = {}
    xfers: List[Tuple[Sequence[int], float, float]] = []
    spans: List[TraceRecord] = []
    for record in tracer.records:
        kind = record.kind
        kinds[kind] = kinds.get(kind, 0) + 1
        if kind == "xfer":
            fields = record.fields
            xfers.append((fields["links"], fields["start"], fields["finish"]))
        elif kind == SPAN_BEGIN or kind == SPAN_END:
            spans.append(record)
    return summarize(
        kinds, xfers, span_intervals(spans),
        truncated=tracer.truncated, topology=topology, k_links=k_links,
    )


def render_rollup(summary: Dict[str, Any]) -> str:
    """Human-readable report of one :func:`summarize` digest."""
    lines: List[str] = []
    phases = summary.get("phases", {})
    if phases:
        lines.append(
            f"{'phase':<18s} {'spans':>6s} {'total ms':>10s} "
            f"{'max ms':>9s} {'extent ms':>12s}"
        )
        ranked = sorted(
            phases.items(), key=lambda item: -item[1]["total_us"]
        )
        for name, entry in ranked:
            extent = entry["last_us"] - entry["first_us"]
            marker = "  <- slowest" if name == summary.get("slowest_phase") else ""
            lines.append(
                f"{name:<18s} {entry['count']:>6d} "
                f"{entry['total_us'] / 1000.0:>10.3f} "
                f"{entry['max_us'] / 1000.0:>9.3f} "
                f"{extent / 1000.0:>12.3f}{marker}"
            )
    else:
        lines.append("(no spans in trace)")
    hottest = summary.get("hottest_links", [])
    if hottest:
        lines.append("")
        lines.append("hottest links (reserved time):")
        for entry in hottest:
            where = (
                "{}->{}".format(*entry["endpoints"])
                if "endpoints" in entry
                else f"link {entry['link']}"
            )
            lines.append(f"  {where:<12s} {entry['busy_us'] / 1000.0:.3f} ms")
    lost = summary.get("lost_transfers", 0)
    if lost:
        lines.append(f"lost transfers: {lost}")
    if summary.get("truncated"):
        lines.append("WARNING: trace truncated; numbers are lower bounds")
    return "\n".join(lines)


def aggregate_observations(
    observations: Sequence[Optional[Dict[str, Any]]]
) -> Dict[str, Any]:
    """Sweep-level aggregation of per-point observation dicts.

    Each observation is the executor's
    ``{"algorithm", "distribution", "machine", "summary"}`` bundle
    (``None`` entries — unobserved cache hits — are skipped).  Groups by
    ``algorithm x distribution``, keeping each group's slowest phase,
    and merges the hottest-link tables per machine.
    """
    groups: Dict[Tuple[str, str], Dict[str, Any]] = {}
    links: Dict[str, Dict[int, float]] = {}
    link_names: Dict[str, Dict[int, List[int]]] = {}
    recovery_ms = 0.0
    observed = 0
    for obs in observations:
        if obs is None:
            continue
        observed += 1
        summary = obs["summary"]
        key = (
            obs.get("algorithm") or "?",
            obs.get("distribution") or "?",
        )
        group = groups.setdefault(
            key, {"points": 0, "phase_total_us": {}}
        )
        group["points"] += 1
        for name, entry in summary.get("phases", {}).items():
            totals = group["phase_total_us"]
            totals[name] = totals.get(name, 0.0) + entry["total_us"]
            if name.startswith("recovery-"):
                recovery_ms += entry["total_us"] / 1000.0
        machine = obs.get("machine", "?")
        for entry in summary.get("hottest_links", []):
            per = links.setdefault(machine, {})
            per[entry["link"]] = per.get(entry["link"], 0.0) + entry["busy_us"]
            if "endpoints" in entry:
                link_names.setdefault(machine, {})[entry["link"]] = entry[
                    "endpoints"
                ]
    table = []
    for (algorithm, distribution), group in sorted(groups.items()):
        totals = group["phase_total_us"]
        slowest = max(totals, key=lambda name: totals[name], default=None)
        table.append(
            {
                "algorithm": algorithm,
                "distribution": distribution,
                "points": group["points"],
                "slowest_phase": slowest,
                "slowest_phase_ms": (
                    totals[slowest] / 1000.0 if slowest is not None else 0.0
                ),
            }
        )
    hottest = []
    for machine, per in sorted(links.items()):
        ranked = sorted(per.items(), key=lambda item: (-item[1], item[0]))[:5]
        for link, busy in ranked:
            entry = {
                "machine": machine,
                "link": link,
                "busy_ms": busy / 1000.0,
            }
            endpoints = link_names.get(machine, {}).get(link)
            if endpoints is not None:
                entry["endpoints"] = endpoints
            hottest.append(entry)
    return {
        "schema": SUMMARY_SCHEMA,
        "observed": observed,
        "groups": table,
        "hottest_links": hottest,
        "recovery_ms": recovery_ms,
    }


def render_sweep_rollup(aggregate: Dict[str, Any]) -> str:
    """Human-readable report of :func:`aggregate_observations`."""
    lines = [f"observed points: {aggregate.get('observed', 0)}"]
    groups = aggregate.get("groups", [])
    if groups:
        lines.append(
            f"{'algorithm':<18s} {'dist':<6s} {'points':>6s} "
            f"{'slowest phase':<16s} {'ms':>10s}"
        )
        for row in groups:
            lines.append(
                f"{row['algorithm']:<18s} {row['distribution']:<6s} "
                f"{row['points']:>6d} {str(row['slowest_phase']):<16s} "
                f"{row['slowest_phase_ms']:>10.3f}"
            )
    hottest = aggregate.get("hottest_links", [])
    if hottest:
        lines.append("")
        lines.append("hottest links:")
        for entry in hottest:
            where = (
                "{}->{}".format(*entry["endpoints"])
                if "endpoints" in entry
                else f"link {entry['link']}"
            )
            lines.append(
                f"  {entry['machine']:<16s} {where:<12s} "
                f"{entry['busy_ms']:.3f} ms"
            )
    if aggregate.get("recovery_ms"):
        lines.append(
            f"recovery span time: {aggregate['recovery_ms']:.3f} ms"
        )
    return "\n".join(lines)
