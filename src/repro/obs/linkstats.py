"""Per-link utilization and queue-depth series from fabric traces.

The fabric records one ``"xfer"`` event per network transfer, carrying
the reserved link path and the ``(request, start, finish)`` timing.
From those this module derives, per wire link, two time series over a
fixed grid of bins:

* **busy fraction** — how much of each bin the link spent reserved
  (the wormhole model holds the whole path for the whole duration);
* **queue depth** — how many transfers were *waiting* on the link
  (requested but not yet started) averaged over the bin: the
  contention the paper's congestion parameter counts, resolved in time
  and space.

``render_link_heatmap`` draws the busiest links as an ASCII heatmap —
same spirit as :mod:`repro.distributions.ascii_art`'s grid pictures,
with a density ramp instead of the source/empty marks:

>>> usage = LinkUsage(bin_us=10.0, bins=4,
...                   busy={7: [0.1, 0.5, 1.0, 0.2]},
...                   queue={7: [0.0, 0.0, 2.0, 0.0]})
>>> print(render_link_heatmap(usage))  # doctest: +NORMALIZE_WHITESPACE
link utilization (busy fraction per 10.0us bin; ramp ' .:-=+*#%@')
link 7       |.+@:|
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.network.topology import Topology
from repro.simulator.trace import TraceRecord
from repro.summation import left_sum

__all__ = ["LinkUsage", "link_usage", "render_link_heatmap", "RAMP"]

#: Density ramp, sparse to dense (index 0 = idle, last = saturated).
RAMP = " .:-=+*#%@"


@dataclass(frozen=True)
class LinkUsage:
    """Binned per-link activity of one run.

    ``busy[link][b]`` is the fraction of bin ``b`` the link was
    reserved; ``queue[link][b]`` the mean number of transfers waiting
    on it during the bin.  Links that never appeared in any transfer
    path have no entry at all.
    """

    bin_us: float
    bins: int
    busy: Dict[int, List[float]]
    queue: Dict[int, List[float]]

    def busiest(self, k: int = 10) -> List[int]:
        """The ``k`` links with the highest total busy time."""
        return sorted(
            self.busy, key=lambda link: (-left_sum(self.busy[link]), link)
        )[:k]


def _overlaps(
    start: float, finish: float, bin_us: float, bins: int
) -> List[Tuple[int, float]]:
    """Interval ``[start, finish)``'s ``(bin, overlap fraction)`` pairs."""
    if finish <= start:
        return []
    first = int(start / bin_us)
    last = min(int(finish / bin_us), bins - 1)
    out = []
    for b in range(first, last + 1):
        lo = max(start, b * bin_us)
        hi = min(finish, (b + 1) * bin_us)
        if hi > lo:
            out.append((b, (hi - lo) / bin_us))
    return out


def link_usage(
    records: Iterable[TraceRecord],
    *,
    bins: int = 60,
    topology: Optional[Topology] = None,
) -> LinkUsage:
    """Binned busy/queue series from a trace's ``"xfer"`` records.

    ``topology`` (optional) restricts the series to wire links,
    dropping the per-node injection/ejection channels (ids below
    ``2 * num_nodes``); without it every reserved link id is kept.

    A transfer holds its whole path for the same interval, so each
    transfer's per-bin overlaps are computed once and added to every
    wire link of its path.
    """
    xfers = [r for r in records if r.kind == "xfer"]
    horizon = max((r.fields["finish"] for r in xfers), default=0.0)
    if horizon <= 0.0 or bins < 1:
        return LinkUsage(bin_us=1.0, bins=0, busy={}, queue={})
    bin_us = horizon / bins
    first_wire = 2 * topology.num_nodes if topology is not None else 0
    busy: Dict[int, List[float]] = {}
    queue: Dict[int, List[float]] = {}
    for r in xfers:
        start = r.fields["start"]
        held = _overlaps(start, r.fields["finish"], bin_us, bins)
        # Waiting interval: requested but the path not yet acquired.
        waited = _overlaps(r.time, start, bin_us, bins)
        for link in r.fields["links"]:
            if link < first_wire:
                continue
            if link not in busy:
                busy[link] = [0.0] * bins
                queue[link] = [0.0] * bins
            series = busy[link]
            for b, fraction in held:
                series[b] += fraction
            series = queue[link]
            for b, fraction in waited:
                series[b] += fraction
    return LinkUsage(bin_us=bin_us, bins=bins, busy=busy, queue=queue)


def _ramp_char(value: float, ceiling: float = 1.0) -> str:
    scaled = 0.0 if ceiling <= 0.0 else min(value / ceiling, 1.0)
    return RAMP[min(int(scaled * (len(RAMP) - 1) + 0.5), len(RAMP) - 1)]


def render_link_heatmap(
    usage: LinkUsage,
    *,
    topology: Optional[Topology] = None,
    k: int = 10,
    queue: bool = False,
) -> str:
    """ASCII heatmap of the ``k`` busiest links, one row per link.

    Columns are time bins; the glyph density encodes busy fraction
    (or, with ``queue=True``, waiting transfers scaled to the series
    maximum).  ``topology`` labels rows with link endpoints.
    """
    if usage.bins == 0 or not usage.busy:
        return "(no traced transfers)"
    series = usage.queue if queue else usage.busy
    links = usage.busiest(k)
    ceiling = 1.0
    if queue:
        ceiling = max(
            (v for link in links for v in series[link]), default=1.0
        )
    what = (
        f"queue depth (mean waiting transfers per {usage.bin_us:.1f}us bin"
        if queue
        else f"link utilization (busy fraction per {usage.bin_us:.1f}us bin"
    )
    lines = [f"{what}; ramp {RAMP!r})"]
    for link in links:
        if topology is not None:
            u, v = topology.link_endpoints(link)
            name = f"{u}->{v}"
        else:
            name = f"link {link}"
        row = "".join(_ramp_char(v, ceiling) for v in series[link])
        lines.append(f"{name:<12s} |{row}|")
    return "\n".join(lines)
