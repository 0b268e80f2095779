"""Crash-consistency harness: kill a cached sweep at every IO op.

The chaos harness (:mod:`repro.faults.chaos` ``--io``) samples random
fault plans; this module is the *exhaustive* counterpart for the one
hazard sampling cannot be trusted with — process death.  It drives a
``SweepExecutor(jobs=1)`` run of a tiny, deterministic grid over a
fresh :class:`~repro.sweep.cache.ResultCache` twice:

1. **Probe pass** — a clean run through a counting
   :class:`~repro.reliability.iofaults.FaultyIO` (empty plan) learns
   the run's IO-op sequence: N counted operations with stable kinds and
   order (the grid is fixed, the cache starts empty, and misses/stores
   happen in point order): one read per point, then a write and a
   replace per stored entry.
2. **Crash sweep** — for *every* index K in ``0..N-1``, a fresh run is
   killed at exactly op K (``crash@K`` raises
   :class:`~repro.reliability.iofaults.SimulatedCrash`, a
   ``BaseException``, so nothing can swallow it) and three invariants
   are checked on the wreckage:

   * **verified-or-quarantined** — an offline
     :meth:`~repro.sweep.cache.ResultCache.verify_all` scan of the
     half-written cache finds every surviving entry verifiable: a crash
     can strand a temp file, never publish a torn entry.
   * **recoverable** — a rerun on a healthy filesystem computes exactly
     the points whose entry ``replace`` had not landed before op K and
     serves the rest from the cache, and a second rerun computes none.
   * **bit-identical** — the recovered results equal a serial
     ``SweepExecutor(jobs=1)`` run without a cache, byte for byte.

Because the op sequence is deterministic, covering ``0..N-1`` covers
every crash point the cache can experience on this workload — each
temp-write/replace pair is caught on both sides of its replace.

Run it via the test suite (``tests/test_reliability_harness.py``, the
``storage-chaos`` CI job) or directly::

    python -m repro.reliability.harness
"""

from __future__ import annotations

import json
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.reliability.iofaults import RAW_IO, FaultyIO, IOBackend, SimulatedCrash

__all__ = ["CrashConsistencyReport", "run_crash_consistency", "main"]

#: The harness grid: four points — the same tiny workload the ``--io``
#: chaos mode samples against.
HARNESS_GRID = dict(
    machines=("paragon:4x4",),
    distributions=("E",),
    s_values=(2, 4),
    message_sizes=(256,),
    algorithms=("Br_Lin", "2-Step"),
    seeds=(0,),
)


@dataclass
class CrashConsistencyReport:
    """Outcome of one exhaustive crash sweep."""

    #: Counted IO ops in a clean run (the number of crash points).
    ops: int = 0
    #: Crash indices actually exercised.
    checked: int = 0
    #: Points the recovery run computed, per exercised crash index.
    recomputed: List[int] = field(default_factory=list)
    #: ``(crash_index, invariant, detail)`` per failed crash point.
    violations: List[Tuple[int, str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        verdict = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        return (
            f"crash-consistency: {self.checked}/{self.ops} crash "
            f"point(s) checked, {verdict}"
        )


def _cached_run(root: str, points, io: IOBackend = RAW_IO):
    """``(fingerprints, report)`` of one serial run over the cache at ``root``."""
    from repro.sweep import ResultCache, SweepExecutor

    executor = SweepExecutor(jobs=1, cache=ResultCache(root, io=io))
    results = executor.run(points)
    fingerprints = [json.dumps(r.to_dict(), sort_keys=True) for r in results]
    return fingerprints, executor.last_report


def run_crash_consistency(
    *,
    max_ops: Optional[int] = None,
    verbose: bool = False,
) -> CrashConsistencyReport:
    """Crash a cached sweep at every IO-op index; check the invariants.

    ``max_ops`` truncates the sweep (for quick smoke runs); the full
    sweep covers every counted operation of a clean run.  Returns a
    :class:`CrashConsistencyReport`; an empty ``violations`` list means
    the cache survived death at every point.
    """
    from repro.sweep import SweepExecutor, SweepSpec

    points = SweepSpec(**HARNESS_GRID).points()
    serial = [
        json.dumps(r.to_dict(), sort_keys=True)
        for r in SweepExecutor(jobs=1).run(points)
    ]
    report = CrashConsistencyReport()

    # Probe pass: learn the clean run's op sequence (and sanity-check
    # the workload itself before trusting any crash-point verdicts).
    workdir = tempfile.mkdtemp(prefix="repro-crash-probe-")
    try:
        probe_io = FaultyIO()
        probe, _ = _cached_run(workdir, points, probe_io)
        if probe != serial:
            report.violations.append(
                (-1, "probe", "clean probe run differs from serial")
            )
            return report
        report.ops = probe_io.ops
        replaces = [i for i, kind, _ in probe_io.trace if kind == "replace"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    indices = range(report.ops if max_ops is None else min(report.ops, max_ops))
    for crash_at in indices:
        # Entries whose replace ran before the crash are durable.
        lost = len(points) - sum(1 for i in replaces if i < crash_at)
        failure = _check_crash_point(crash_at, points, serial, lost, report)
        report.checked += 1
        if verbose:
            status = "FAIL" if failure else "ok"
            print(f"  [{status:4s}] crash@{crash_at}")
        if failure is not None:
            report.violations.append((crash_at, *failure))
    return report


def _check_crash_point(
    crash_at: int,
    points,
    serial: List[str],
    lost: int,
    report: CrashConsistencyReport,
) -> Optional[Tuple[str, str]]:
    """Kill one run at op ``crash_at``; return ``(invariant, detail)`` on
    a breach, ``None`` when the cache recovered cleanly.

    ``lost`` is the number of points whose entry had not landed before
    the crash: exactly what the recovery run must compute.
    """
    from repro.sweep import ResultCache

    workdir = tempfile.mkdtemp(prefix=f"repro-crash-{crash_at}-")
    try:
        try:
            _cached_run(workdir, points, FaultyIO(f"crash@{crash_at}"))
        except SimulatedCrash:
            pass

        # Invariant 1: the wreckage holds nothing unverified.
        audit = ResultCache(workdir).verify_all()
        if audit.quarantined_now:
            return (
                "verified-or-quarantined",
                f"{audit.quarantined_now} torn entr(ies) after the crash",
            )

        # Invariant 2: a rerun recomputes exactly what the crash lost,
        # and after it every point is durable.
        recovered, rerun = _cached_run(workdir, points)
        report.recomputed.append(rerun.computed)
        if rerun.computed != lost:
            return (
                "recoverable",
                f"rerun computed {rerun.computed} point(s), expected {lost}",
            )
        _, warm = _cached_run(workdir, points)
        if warm.computed:
            return (
                "recoverable",
                f"second rerun computed {warm.computed} point(s)",
            )

        # Invariant 3: the recovered sweep is bit-identical to serial.
        if recovered != serial:
            mismatches = sum(1 for a, b in zip(serial, recovered) if a != b)
            return (
                "bit-identical",
                f"{mismatches}/{len(points)} point(s) differ from serial",
            )
    except Exception as exc:  # noqa: BLE001 - any escape is the violation
        return ("recoverable", f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return None


def main() -> int:  # pragma: no cover - exercised via the pytest wrapper
    report = run_crash_consistency(verbose=True)
    print(report.summary())
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
