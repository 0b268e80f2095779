"""Progress counters for sweep execution.

A :class:`SweepReport` summarises one (or several, via :meth:`merge`)
executor batches: how many grid points were requested, how many were
answered from the on-disk cache versus computed, how long the batch took
on the wall clock, and how much single-process compute time that wall
time represents.  The ``speedup`` ratio folds both effects together —
process fan-out *and* cache hits — which is what ``python -m repro
report`` prints once per run, for the one batch that evaluates every
selected experiment's points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable

from repro.reliability.retry import ReliabilityCounters

__all__ = ["SweepReport", "merge_shard_reports"]


@dataclass
class SweepReport:
    """Counters for one sweep batch (or an accumulation of batches).

    Attributes
    ----------
    total:
        Points requested.  May exceed ``cached + computed`` when a batch
        contains duplicate points (deduplicated before evaluation).
    cached:
        Points answered from the result cache.
    computed:
        Points actually simulated.
    wall_s:
        Wall-clock seconds spent in :meth:`SweepExecutor.run`.
    busy_s:
        Sum of per-point compute durations of the ``computed`` points
        (measured inside the worker).
    saved_s:
        Sum of the *original* compute durations stored alongside the
        ``cached`` points — the serial time the cache avoided.
    jobs:
        Worker-process count the executor ran with.
    reliability:
        :class:`~repro.reliability.retry.ReliabilityCounters` the
        storage layer accumulated while serving this batch — retries,
        quarantines, lease steals, fencing rejections, corrupt queue
        records.  All-zero on a healthy run, and omitted from
        :meth:`to_dict` in that case so clean-run report bytes are
        unchanged from earlier formats.
    """

    total: int = 0
    cached: int = 0
    computed: int = 0
    wall_s: float = 0.0
    busy_s: float = 0.0
    saved_s: float = 0.0
    jobs: int = 1
    reliability: ReliabilityCounters = field(default_factory=ReliabilityCounters)

    @property
    def serial_estimate_s(self) -> float:
        """Estimated wall time a serial, cold-cache run would have taken."""
        return self.busy_s + self.saved_s

    @property
    def speedup(self) -> float:
        """``serial_estimate_s / wall_s`` (1.0 when nothing was measured)."""
        if self.wall_s <= 0.0 or self.serial_estimate_s <= 0.0:
            return 1.0
        return self.serial_estimate_s / self.wall_s

    def merge(self, other: "SweepReport") -> None:
        """Fold another report's counters into this one."""
        self.total += other.total
        self.cached += other.cached
        self.computed += other.computed
        self.wall_s += other.wall_s
        self.busy_s += other.busy_s
        self.saved_s += other.saved_s
        self.jobs = max(self.jobs, other.jobs)
        self.reliability.merge(other.reliability)

    def merge_concurrent(self, other: "SweepReport") -> None:
        """Fold in a report from a shard that ran *concurrently*.

        Unlike :meth:`merge` (sequential batches: wall times add), shards
        overlap on the wall clock, so their wall times take the max and
        their worker counts add — ``busy_s``/``saved_s`` still sum, which
        keeps :attr:`speedup` honest about the fan-out win.
        """
        self.total += other.total
        self.cached += other.cached
        self.computed += other.computed
        self.wall_s = max(self.wall_s, other.wall_s)
        self.busy_s += other.busy_s
        self.saved_s += other.saved_s
        self.jobs += other.jobs
        self.reliability.merge(other.reliability)

    # -- serialization (shard done-markers and worker hand-off) ----------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form, for lease done-markers and shard reports.

        The ``reliability`` key appears only when one of its counters is
        nonzero: a clean run's report dict (and its JSON bytes) is
        identical to the pre-reliability format, which keeps golden
        fixtures and byte-identity checks stable.
        """
        data: Dict[str, Any] = {
            "total": self.total,
            "cached": self.cached,
            "computed": self.computed,
            "wall_s": self.wall_s,
            "busy_s": self.busy_s,
            "saved_s": self.saved_s,
            "jobs": self.jobs,
        }
        if self.reliability.any():
            data["reliability"] = self.reliability.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SweepReport":
        """Inverse of :meth:`to_dict` (tolerates missing counters)."""
        return cls(
            total=int(data.get("total", 0)),
            cached=int(data.get("cached", 0)),
            computed=int(data.get("computed", 0)),
            wall_s=float(data.get("wall_s", 0.0)),
            busy_s=float(data.get("busy_s", 0.0)),
            saved_s=float(data.get("saved_s", 0.0)),
            jobs=int(data.get("jobs", 1)),
            reliability=ReliabilityCounters.from_dict(
                data.get("reliability", {})
            ),
        )

    def summary(self) -> str:
        """One-line progress rendering for CLI output."""
        line = (
            f"sweep: {self.total} point(s) "
            f"({self.cached} cached, {self.computed} computed) "
            f"in {self.wall_s:.2f}s "
            f"[jobs={self.jobs}, ~{self.speedup:.1f}x vs cold serial]"
        )
        if self.reliability.any():
            line += f" (reliability: {self.reliability.summary()})"
        return line


def merge_shard_reports(reports: Iterable[SweepReport]) -> SweepReport:
    """Cross-shard roll-up of per-worker :class:`SweepReport`\\ s.

    Shards of a distributed sweep run concurrently against one shared
    cache, so the merged wall time is the slowest shard's (the makespan)
    while point counters and compute seconds sum across shards.
    """
    merged = SweepReport(jobs=0)
    for report in reports:
        merged.merge_concurrent(report)
    if merged.jobs == 0:
        merged.jobs = 1
    return merged
