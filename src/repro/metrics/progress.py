"""Progress counters for sweep execution.

A :class:`SweepReport` summarises one executor batch: how many grid
points were requested, how many were answered from the on-disk cache
versus computed, how long the batch took on the wall clock, and how much
single-process compute time that wall time represents.  The ``speedup``
ratio folds both effects together — process fan-out *and* cache hits —
which is what ``python -m repro report`` prints once per run, for the
one batch that evaluates every selected experiment's points.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SweepReport"]


@dataclass
class SweepReport:
    """Counters for one sweep batch.

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
    quarantines:
        Defective cache entries the result cache moved to quarantine
        (and the executor recomputed) while serving this batch.  Zero
        on a healthy run, and then :meth:`summary` says nothing of it.
    """

    total: int = 0
    cached: int = 0
    computed: int = 0
    wall_s: float = 0.0
    busy_s: float = 0.0
    saved_s: float = 0.0
    jobs: int = 1
    quarantines: int = 0

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

    def summary(self) -> str:
        """One-line progress rendering for CLI output."""
        line = (
            f"sweep: {self.total} point(s) "
            f"({self.cached} cached, {self.computed} computed) "
            f"in {self.wall_s:.2f}s "
            f"[jobs={self.jobs}, ~{self.speedup:.1f}x vs cold serial]"
        )
        if self.quarantines:
            line += f" (reliability: quarantines={self.quarantines})"
        return line
