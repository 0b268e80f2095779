"""Distributed sharded sweep execution over a shared result cache.

:class:`~repro.sweep.executor.SweepExecutor` fans a grid over one
machine's process pool; this module shards a grid across **independent
worker processes** — spawned locally by the coordinator or attached
from other hosts (``python -m repro sweep --worker``) — whose only
shared state is

* the content-addressed :class:`~repro.sweep.cache.ResultCache`
  directory (the data plane: every computed point is durable there the
  moment it is stored), and
* a **run directory** holding an on-disk work queue (the control
  plane): an immutable manifest of expanded point payloads cut into
  plan-affinity units, plus per-unit *lease* and *done* files.

The protocol leans entirely on the package's purity invariant: a sweep
point is a pure function of its payload, so evaluating a point twice is
wasted work but never wrong work.  That turns every distributed-systems
hazard here into a performance footnote:

* **claim** — a worker takes a unit by ``O_CREAT | O_EXCL``-creating its
  lease file (atomic on POSIX and NFSv3+); losers move on.  A claim
  hands back a **fencing token**: a per-unit counter that increases on
  every claim and steal, never resets (an abandoned lease leaves an
  expired tombstone, not an unlink), and must be presented on every
  renew and release.
* **renew** — the lease carries an expiry stamp; the worker re-stamps it
  (atomic temp + ``os.replace``) while evaluating long units.  A renew
  with a stale fence is refused: the unit was stolen while this worker
  was stalled, and the thief's fence now rules.
* **release** — the worker writes a durable *done marker* (with its
  shard's :class:`~repro.metrics.progress.SweepReport` slice and its
  fence) and only then drops the lease.  Release refuses when a done
  marker already exists or the lease no longer carries the caller's
  owner *and* fence — a worker SIGSTOPped past its TTL that wakes up
  after a stealer finished the unit cannot overwrite the stealer's
  released record.
* **steal** — a lease whose expiry has passed belongs to a worker that
  was SIGKILLed, SIGSTOPped, or wedged; any idle worker overwrites it
  (fence + 1) and re-evaluates the unit.  Points the dead worker
  already finished are in the cache, so the stealer's pass over the
  unit re-serves them as hits instead of recomputing.
* **race** — two stealers can both believe they own a unit after an
  expiry; the read-back after stealing picks one winner, and fencing
  rejects the loser's release.  If both somehow proceed, idempotency
  makes what remains harmless.

Every filesystem call routes through an injectable
:class:`~repro.reliability.iofaults.IOBackend` so the crash-consistency
harness (:mod:`repro.reliability.harness`) can kill the protocol at
*every* IO-op index and assert it recovers.  Transient storage errors
(ENOSPC, EIO, ...) are retried with bounded, deterministically-jittered
backoff (:mod:`repro.reliability.retry`); deterministic evaluation
failures are *poison* — recorded in the done marker so the unit
finishes instead of ping-ponging between stealers; everything else is
fatal and kills the worker, whose leases then expire and are stolen.

Resumption needs no recovery pass: re-running the coordinator against
the same run directory (or the same cache with a fresh one) skips done
units via their markers and cached points via the cache, so a sweep
whose every process was SIGKILLed finishes from where the survivors
left off.

Differential guarantee, pinned by ``tests/test_sweep_distributed.py``
and the ``sweep-distributed-differential`` CI job: sharded execution —
including execution interrupted by worker kills — is **bit-identical**
to ``SweepExecutor(jobs=1)``.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.runner import ENGINES, BroadcastResult
from repro.errors import ConfigurationError, DistributedSweepError
from repro.metrics.progress import SweepReport, merge_shard_reports
from repro.reliability.iofaults import RAW_IO, IOBackend
from repro.reliability.retry import (
    DEFAULT_RETRY,
    ReliabilityCounters,
    RetryPolicy,
    with_backoff,
)
from repro.sweep.cache import ResultCache
from repro.sweep.executor import evaluate_point, plan_affinity_batches
from repro.sweep.spec import SweepPoint

__all__ = [
    "DEFAULT_LEASE_TTL_S",
    "DistributedSweepResult",
    "RUN_SCHEMA",
    "WorkQueue",
    "run_sharded",
    "run_worker",
]

#: Run-directory manifest schema (bump on incompatible layout changes).
RUN_SCHEMA = "repro-sweep-run/1"

#: Default lease time-to-live.  A worker renews at half-life, so a live
#: worker is never stolen from; a killed one loses its units within one
#: TTL.  Tests and the chaos harness shrink this to sub-second values.
DEFAULT_LEASE_TTL_S = 30.0

#: Default idle-poll interval while waiting on other workers' leases.
DEFAULT_POLL_S = 0.05


def _write_json_atomic(
    path: pathlib.Path, data: Dict[str, Any], *, io: IOBackend = RAW_IO
) -> None:
    """Temp + ``replace`` write; unique temp name per call."""
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    io.write_text(tmp, json.dumps(data, sort_keys=True))
    io.replace(tmp, path)


def _read_json(
    path: pathlib.Path,
    *,
    io: IOBackend = RAW_IO,
    counters: Optional[ReliabilityCounters] = None,
) -> Optional[Dict[str, Any]]:
    """Parsed JSON or ``None`` (missing file, or a mid-replace read).

    A *missing* file is an ordinary miss.  An unreadable or unparseable
    one is swallowed too — the queue must stay drivable past a torn
    record, which the protocol treats as "unclaimed" — but it is no
    longer swallowed *silently*: each such defect bumps
    ``counters.corrupt_records``, so a run that survived corruption
    says so in its report.
    """
    try:
        text = io.read_text(path)
    except FileNotFoundError:
        return None
    except OSError:
        if counters is not None:
            counters.corrupt_records += 1
        return None
    try:
        return json.loads(text)
    except ValueError:
        if counters is not None:
            counters.corrupt_records += 1
        return None


class WorkQueue:
    """On-disk work queue of a distributed sweep run.

    Layout under the run directory::

        manifest.json        immutable: payloads, units, cache dir, knobs
        leases/unit-K.lease  {owner, fence, expires_unix, claims}
        done/unit-K.json     {owner, fence, report, [errors]} once finished

    Every mutation is a whole-file atomic write; the only cross-process
    primitive beyond that is the exclusive create used by :meth:`claim`.
    The ``fence`` field is the unit's monotonic fencing token: it grows
    on every claim/steal and survives abandonment (an abandoned lease
    becomes an *expired tombstone*, never an unlink, so a later claim
    can never reuse a fence an earlier owner still holds).
    """

    def __init__(
        self,
        run_dir: Union[str, pathlib.Path],
        *,
        io: IOBackend = RAW_IO,
        counters: Optional[ReliabilityCounters] = None,
    ) -> None:
        self.run_dir = pathlib.Path(run_dir).expanduser()
        self.lease_dir = self.run_dir / "leases"
        self.done_dir = self.run_dir / "done"
        self.io = io
        self.counters = counters if counters is not None else ReliabilityCounters()
        self._manifest: Optional[Dict[str, Any]] = None

    # -- creation / opening ------------------------------------------------
    @classmethod
    def create(
        cls,
        run_dir: Union[str, pathlib.Path],
        payloads: Sequence[Dict[str, Any]],
        units: Sequence[Sequence[int]],
        *,
        cache_dir: Union[str, pathlib.Path],
        engine: str = "auto",
        observe: bool = False,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        io: IOBackend = RAW_IO,
        counters: Optional[ReliabilityCounters] = None,
    ) -> "WorkQueue":
        """Write a fresh queue (coordinator side)."""
        queue = cls(run_dir, io=io, counters=counters)
        queue.io.mkdir(queue.lease_dir)
        queue.io.mkdir(queue.done_dir)
        manifest = {
            "schema": RUN_SCHEMA,
            "cache_dir": str(pathlib.Path(cache_dir).expanduser()),
            "engine": engine,
            "observe": bool(observe),
            "lease_ttl_s": float(lease_ttl_s),
            "payloads": list(payloads),
            "units": [list(unit) for unit in units],
        }
        _write_json_atomic(queue.manifest_path, manifest, io=queue.io)
        queue._manifest = manifest
        return queue

    @classmethod
    def open(
        cls,
        run_dir: Union[str, pathlib.Path],
        *,
        io: IOBackend = RAW_IO,
        counters: Optional[ReliabilityCounters] = None,
    ) -> "WorkQueue":
        """Open an existing queue (worker side); validates the manifest."""
        queue = cls(run_dir, io=io, counters=counters)
        queue.manifest  # noqa: B018 - raises on a missing/foreign dir
        return queue

    @property
    def manifest_path(self) -> pathlib.Path:
        return self.run_dir / "manifest.json"

    @property
    def manifest(self) -> Dict[str, Any]:
        if self._manifest is None:
            data = _read_json(
                self.manifest_path, io=self.io, counters=self.counters
            )
            if data is None or data.get("schema") != RUN_SCHEMA:
                raise ConfigurationError(
                    f"{self.run_dir} is not a sweep run directory "
                    f"(missing or invalid manifest.json)"
                )
            self._manifest = data
        return self._manifest

    @property
    def payloads(self) -> List[Dict[str, Any]]:
        return self.manifest["payloads"]

    @property
    def units(self) -> List[List[int]]:
        return self.manifest["units"]

    @property
    def num_units(self) -> int:
        return len(self.units)

    @property
    def cache_dir(self) -> str:
        return self.manifest["cache_dir"]

    @property
    def engine(self) -> str:
        return self.manifest.get("engine", "auto")

    @property
    def observe(self) -> bool:
        return bool(self.manifest.get("observe", False))

    @property
    def lease_ttl_s(self) -> float:
        return float(self.manifest.get("lease_ttl_s", DEFAULT_LEASE_TTL_S))

    # -- paths -------------------------------------------------------------
    def lease_path(self, unit: int) -> pathlib.Path:
        return self.lease_dir / f"unit-{unit:05d}.lease"

    def done_path(self, unit: int) -> pathlib.Path:
        return self.done_dir / f"unit-{unit:05d}.json"

    # -- state reads -------------------------------------------------------
    def is_done(self, unit: int) -> bool:
        return self.io.exists(self.done_path(unit))

    def pending_units(self) -> List[int]:
        """Units with no done marker, in manifest order."""
        return [u for u in range(self.num_units) if not self.is_done(u)]

    def lease_of(self, unit: int) -> Optional[Dict[str, Any]]:
        """The current lease record, or ``None`` (unclaimed/corrupt)."""
        return _read_json(
            self.lease_path(unit), io=self.io, counters=self.counters
        )

    def done_record(self, unit: int) -> Optional[Dict[str, Any]]:
        return _read_json(
            self.done_path(unit), io=self.io, counters=self.counters
        )

    def done_reports(self) -> List[SweepReport]:
        """Per-unit shard reports of every finished unit."""
        reports = []
        for unit in range(self.num_units):
            record = self.done_record(unit)
            if record is not None and "report" in record:
                reports.append(SweepReport.from_dict(record["report"]))
        return reports

    def errors(self) -> List[Dict[str, Any]]:
        """Point-evaluation failures recorded in done markers."""
        out: List[Dict[str, Any]] = []
        for unit in range(self.num_units):
            record = self.done_record(unit)
            if record is not None:
                out.extend(record.get("errors", []))
        return out

    # -- lease protocol ----------------------------------------------------
    def claim(self, unit: int, owner: str) -> int:
        """Try to take ``unit``'s lease; crash-safe, steal-on-expiry.

        Returns the claim's **fencing token** (a positive int the caller
        must present to :meth:`renew` and :meth:`release`), or ``0``
        when the unit is done or leased by a live peer — truthiness
        keeps the old boolean call sites working.

        The fresh-claim path is an exclusive create — two workers racing
        an unclaimed unit cannot both win.  An existing lease (live,
        expired, or an abandonment tombstone) is taken over only via
        :meth:`_steal`, which increments the fence past every token ever
        issued for the unit.
        """
        if self.is_done(unit):
            return 0
        path = self.lease_path(unit)
        record = {
            "owner": owner,
            "fence": 1,
            "expires_unix": time.time() + self.lease_ttl_s,
            "claims": 1,
        }
        try:
            self.io.create_excl(path, json.dumps(record, sort_keys=True))
        except FileExistsError:
            return self._steal(unit, owner)
        return 1

    def _steal(self, unit: int, owner: str) -> int:
        """Take over an expired (or corrupt) lease; back off from live ones.

        Returns the new fence, or ``0`` when the lease is live under a
        different owner or a concurrent stealer won the read-back.
        """
        current = self.lease_of(unit)
        if (
            current is not None
            and current.get("owner") != owner
            and float(current.get("expires_unix", 0.0)) > time.time()
        ):
            return 0  # live lease held by someone else
        fence = int((current or {}).get("fence", 0)) + 1
        record = {
            "owner": owner,
            "fence": fence,
            "expires_unix": time.time() + self.lease_ttl_s,
            "claims": int((current or {}).get("claims", 0)) + 1,
        }
        _write_json_atomic(self.lease_path(unit), record, io=self.io)
        # Read-back: a concurrent stealer may have replaced our record.
        # The loser backs off; if both somehow proceed, fencing rejects
        # the loser's release and idempotent evaluation + atomic cache
        # writes keep the results identical either way.
        final = self.lease_of(unit)
        if (
            final is None
            or final.get("owner") != owner
            or int(final.get("fence", 0)) != fence
        ):
            return 0
        if current is not None:
            self.counters.steals += 1
        return fence

    def renew(self, unit: int, owner: str, fence: Optional[int] = None) -> bool:
        """Re-stamp ``owner``'s lease; ``False`` means the lease was lost
        (expired and stolen) and the worker should abandon the unit.

        With ``fence`` given, a matching owner under a *different* fence
        is refused too — the unit was stolen and released back into a
        state this worker no longer owns, even if the owner string
        coincides — and the refusal counts as a fencing rejection.
        """
        current = self.lease_of(unit)
        if current is None or current.get("owner") != owner:
            return False
        if fence is not None and int(current.get("fence", 0)) != fence:
            self.counters.fencing_rejections += 1
            return False
        current["expires_unix"] = time.time() + self.lease_ttl_s
        _write_json_atomic(self.lease_path(unit), current, io=self.io)
        return True

    def release(
        self,
        unit: int,
        owner: str,
        report: SweepReport,
        errors: Optional[List[Dict[str, Any]]] = None,
        *,
        fence: Optional[int] = None,
    ) -> bool:
        """Mark ``unit`` finished: durable done marker first, lease after.

        Ordering matters — a crash between the two writes leaves a done
        unit with a stale lease, which every reader treats as done (the
        done marker always wins).  The reverse order would leave a
        finished unit looking stealable.

        Returns ``False`` — and writes nothing — when the release is
        **fenced off**: a done marker already exists (a stealer finished
        the unit first), or the lease no longer carries this caller's
        owner and fence (it was stolen and is being re-driven).  A
        stalled worker waking up past its TTL therefore cannot overwrite
        a stealer's released record; its computed points are already in
        the cache, so nothing of value is discarded with the refusal.
        """
        if self.is_done(unit):
            self.counters.fencing_rejections += 1
            return False
        current = self.lease_of(unit)
        if current is None or current.get("owner") != owner:
            self.counters.fencing_rejections += 1
            return False
        if fence is not None and int(current.get("fence", 0)) != fence:
            self.counters.fencing_rejections += 1
            return False
        record: Dict[str, Any] = {
            "unit": unit,
            "owner": owner,
            "fence": int(current.get("fence", 0)),
            "report": report.to_dict(),
        }
        if errors:
            record["errors"] = errors
        _write_json_atomic(self.done_path(unit), record, io=self.io)
        try:
            self.io.unlink(self.lease_path(unit))
        except OSError:
            pass
        return True

    def abandon(self, unit: int, owner: str) -> None:
        """Drop ``owner``'s lease without finishing (clean worker exit).

        The lease is *expired in place* (a tombstone), not unlinked:
        unlinking would let the next claimant's exclusive create restart
        the fence at 1, resurrecting tokens this owner may still hold.
        The tombstone keeps the fence monotonic — the next claim steals
        it at ``fence + 1`` — at the cost of one stale file that the
        done-marker write cleans up when the unit eventually finishes.
        """
        current = self.lease_of(unit)
        if current is not None and current.get("owner") == owner:
            tombstone = dict(current)
            tombstone["expires_unix"] = 0.0
            _write_json_atomic(self.lease_path(unit), tombstone, io=self.io)


# -- worker ----------------------------------------------------------------

def _evaluate_unit(
    queue: WorkQueue,
    unit: int,
    owner: str,
    fence: int,
    cache: ResultCache,
    retry: RetryPolicy = DEFAULT_RETRY,
) -> Optional[Tuple[SweepReport, List[Dict[str, Any]]]]:
    """Evaluate one unit's points against the shared cache.

    Returns ``(report, errors)``, or ``None`` when the lease was lost
    mid-unit (the stealer is already re-driving it; everything computed
    so far is durable in the cache, so nothing is lost by backing off).
    Renewal happens at half-TTL so a live worker is never stolen from.

    Error handling is classified (:mod:`repro.reliability.retry`):
    evaluation failures are deterministic — poison — and recorded so
    the unit finishes; cache-store failures are storage trouble,
    retried with bounded backoff when transient and propagated when
    not (the worker dies, the lease expires, a peer steals the unit).
    """
    payloads = [queue.payloads[i] for i in queue.units[unit]]
    report = SweepReport(total=len(payloads), jobs=1)
    errors: List[Dict[str, Any]] = []
    start = time.perf_counter()
    next_renew = time.time() + queue.lease_ttl_s / 2.0
    for payload in payloads:
        if time.time() >= next_renew:
            if not queue.renew(unit, owner, fence):
                return None
            next_renew = time.time() + queue.lease_ttl_s / 2.0
        point = SweepPoint.from_payload(payload)
        hit = cache.load(point)
        if hit is not None:
            report.cached += 1
            report.saved_s += hit[1]
            continue
        try:
            result_dict, seconds, observation = evaluate_point(
                payload, queue.engine, queue.observe
            )
        except Exception as exc:  # noqa: BLE001 - recorded, not re-stolen
            # Evaluation is a pure function of the payload, so *any*
            # failure here (verification error, algorithm/machine
            # mismatch) is poison: it would fail again under every
            # stealer.  Record it in the done marker so the unit
            # *finishes* instead of ping-ponging between workers, and
            # let the coordinator surface it at collection time.
            errors.append(
                {
                    "point": payload,
                    "error": f"{type(exc).__name__}: {exc}",
                }
            )
            continue
        key = point.key()
        with_backoff(
            lambda: cache.store(point, result_dict, seconds),
            key=f"store:{key}",
            policy=retry,
            counters=cache.counters,
        )
        if observation is not None:
            with_backoff(
                lambda: cache.store_sibling(point, "obs", observation),
                key=f"store-obs:{key}",
                policy=retry,
                counters=cache.counters,
            )
        report.computed += 1
        report.busy_s += seconds
    report.wall_s = time.perf_counter() - start
    return report, errors


def run_worker(
    run_dir: Union[str, pathlib.Path],
    worker_id: Optional[str] = None,
    *,
    cache_dir: Optional[Union[str, pathlib.Path]] = None,
    poll_s: float = DEFAULT_POLL_S,
    max_units: Optional[int] = None,
    io: IOBackend = RAW_IO,
    retry: RetryPolicy = DEFAULT_RETRY,
    counters: Optional[ReliabilityCounters] = None,
) -> SweepReport:
    """Drain work units from ``run_dir`` until the whole run is done.

    The worker loop: claim any pending unit (stealing expired leases),
    evaluate it against the shared cache, release it with a done marker.
    When every pending unit is leased by live peers, the worker idles on
    ``poll_s`` — it exits only once **all** units are done, so stragglers
    always have a thief waiting.  ``cache_dir`` overrides the manifest's
    (for hosts that mount the shared cache at a different path);
    ``max_units`` bounds the units this worker will finish (testing).

    ``io`` routes every queue *and* cache filesystem call through an
    injectable backend (the crash harness passes a
    :class:`~repro.reliability.iofaults.FaultyIO` here); ``retry``
    bounds the transient-failure backoff; ``counters`` shares a
    :class:`~repro.reliability.retry.ReliabilityCounters` with the
    caller (a private one when omitted).

    Returns this worker's shard :class:`SweepReport` (sequential within
    the worker, so unit reports fold with :meth:`SweepReport.merge`);
    each released unit's report carries the reliability-counter delta
    accumulated while driving that unit, so steals, retries, and
    quarantines survive into the done markers.
    """
    counters = counters if counters is not None else ReliabilityCounters()
    queue = WorkQueue.open(run_dir, io=io, counters=counters)
    owner = worker_id or f"worker-{uuid.uuid4().hex[:12]}-pid{os.getpid()}"
    cache = ResultCache(
        cache_dir if cache_dir is not None else queue.cache_dir,
        io=io,
        counters=counters,
    )
    shard = SweepReport(jobs=1)
    finished = 0
    while True:
        pending = queue.pending_units()
        if not pending:
            break
        progressed = False
        for unit in pending:
            if max_units is not None and finished >= max_units:
                return shard
            before = counters.snapshot()
            fence = queue.claim(unit, owner)
            if not fence:
                continue
            if queue.is_done(unit):
                # Raced a done marker written after our claim check.
                queue.abandon(unit, owner)
                continue
            outcome = _evaluate_unit(queue, unit, owner, fence, cache, retry)
            if outcome is None:
                continue  # lease stolen mid-unit; the thief finishes it
            report, errors = outcome
            report.reliability = counters.since(before)
            if not queue.release(unit, owner, report, errors, fence=fence):
                continue  # fenced off: a stealer finished the unit first
            shard.merge(report)
            finished += 1
            progressed = True
        if not progressed and queue.pending_units():
            time.sleep(poll_s)
    return shard


def _worker_entry(run_dir: str, worker_id: str, poll_s: float) -> None:
    """Spawn target for coordinator-local shard workers."""
    run_worker(run_dir, worker_id, poll_s=poll_s)


# -- coordinator -----------------------------------------------------------

@dataclass
class DistributedSweepResult:
    """What :func:`run_sharded` hands back to the caller."""

    #: Results aligned with the input points (like ``SweepExecutor.run``).
    results: List[BroadcastResult]
    #: Cross-shard merged counters (wall time = coordinator makespan).
    report: SweepReport
    #: Run directory (inspectable: manifest, leases, done markers).
    run_dir: pathlib.Path
    #: Per-unit reports, as recorded in done markers.
    unit_reports: List[SweepReport] = field(default_factory=list)
    #: With ``observe=True``: per-point observation dicts from the cache
    #: (``None`` for points whose entries predate observation).
    observations: Optional[List[Optional[Dict[str, Any]]]] = None


def _plan_units(
    points: Sequence[SweepPoint], shards: int
) -> Tuple[List[Dict[str, Any]], List[List[int]]]:
    """Deduplicate ``points`` and cut them into lease units.

    Units are plan-affinity batches (the same grouping the in-process
    executor ships to pool workers) chunked for ``shards`` workers, so
    each worker's plan cache amortizes schedule lowering exactly as a
    local sweep's would.  Returns ``(payloads, units)`` where units
    index into the payload list.
    """
    unique: List[int] = []
    seen: Dict[str, int] = {}
    for i, point in enumerate(points):
        key = point.key()
        if key not in seen:
            seen[key] = i
            unique.append(i)
    batches = plan_affinity_batches(points, unique, shards)
    position = {i: pos for pos, i in enumerate(unique)}
    payloads = [points[i].payload() for i in unique]
    units = [[position[i] for i in batch] for batch in batches]
    return payloads, units


def _collect(
    queue: WorkQueue,
    points: Sequence[SweepPoint],
    cache: ResultCache,
    observe: bool,
    retry: RetryPolicy = DEFAULT_RETRY,
) -> Tuple[List[BroadcastResult], Optional[List[Optional[Dict[str, Any]]]]]:
    """Load every point's result (and observation) from the cache.

    A miss here is usually fatal (the run is "done" yet a point has no
    result), but it can also be transient — a read that raced a writer's
    atomic replace on a network filesystem, or a quarantined-then-
    recomputed entry mid-flight — so each point gets the same bounded,
    deterministically-jittered retry budget the workers use before the
    coordinator gives up.
    """
    results: List[BroadcastResult] = []
    observations: Optional[List[Optional[Dict[str, Any]]]] = (
        [] if observe else None
    )
    for point in points:
        hit = cache.load(point)
        for attempt in range(1, retry.attempts):
            if hit is not None:
                break
            cache.counters.retries += 1
            time.sleep(retry.delay_s(f"collect:{point.key()}", attempt))
            hit = cache.load(point)
        if hit is None:
            errors = queue.errors()
            if any(e.get("point") == point.payload() for e in errors):
                detail = "; ".join(e["error"] for e in errors[:3])
                raise DistributedSweepError(
                    f"distributed sweep finished but {point.algorithm} on "
                    f"{point.machine} (seed {point.seed}) has no cached "
                    f"result: {detail}"
                )
            # No worker recorded a failure for this point, yet its unit
            # is done and the entry is gone — a torn write published
            # corrupt bytes that verify-on-read just quarantined, or the
            # entry was lost after release.  Purity makes recompute-at-
            # collect safe (and cheap: it is one point, not the unit).
            result_dict, seconds, observation = evaluate_point(
                point.payload(), queue.engine, observe
            )
            with_backoff(
                lambda: cache.store(point, result_dict, seconds),
                key=f"collect-store:{point.key()}",
                policy=retry,
                counters=cache.counters,
            )
            if observation is not None:
                cache.store_sibling(point, "obs", observation)
            hit = (result_dict, seconds)
        results.append(BroadcastResult.from_dict(hit[0]))
        if observations is not None:
            observations.append(cache.load_sibling(point, "obs"))
    return results, observations


def run_sharded(
    points: Sequence[SweepPoint],
    *,
    shards: int = 2,
    cache: Optional[ResultCache] = None,
    run_dir: Optional[Union[str, pathlib.Path]] = None,
    engine: str = "auto",
    observe: bool = False,
    lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
    poll_s: float = DEFAULT_POLL_S,
    worker_hook: Optional[Callable[[List[Any]], None]] = None,
    io: IOBackend = RAW_IO,
    retry: RetryPolicy = DEFAULT_RETRY,
) -> DistributedSweepResult:
    """Shard ``points`` across worker processes; returns aligned results.

    The coordinator expands the grid into an on-disk
    :class:`WorkQueue` under ``run_dir`` (a fresh directory beside the
    cache by default), spawns ``shards`` local worker processes —
    additional workers may attach from anywhere that mounts the cache
    and run directories, via ``python -m repro sweep --worker`` — then
    waits for every unit's done marker and assembles results from the
    cache in input order.

    Fault tolerance is structural: a killed or stalled worker's leases
    expire and surviving workers steal them (fenced, so the stalled
    original cannot clobber the thief's release); if *every* spawned
    worker dies, the coordinator drains the queue in-process, so this
    function completes whenever evaluation itself is completable.
    Passing an existing ``run_dir`` resumes that run: done units are
    skipped outright and cached points are served, not recomputed.  A
    resume whose manifest was corrupted by a crash is recut from the
    input points — but only while no unit has finished (done markers
    index into the manifest; recutting under them would misalign the
    run, so that case stays a hard error).

    ``worker_hook`` (testing/chaos) receives the spawned process list —
    the chaos harness uses it to kill and stall workers mid-sweep.
    ``io`` and ``retry`` govern the *coordinator's* queue/cache IO and
    backoff (spawned workers always run on the real filesystem).

    Results are **bit-identical** to ``SweepExecutor(jobs=1).run(points)``.
    """
    import multiprocessing

    if cache is None:
        raise ConfigurationError(
            "distributed sweeps coordinate only through the shared result "
            "cache; pass cache=ResultCache(...) (there is no --no-cache "
            "equivalent for sharded execution)"
        )
    if engine not in ENGINES:
        raise ConfigurationError(
            f"engine must be one of {ENGINES}, got {engine!r}"
        )
    shards = int(shards)
    if shards < 1:
        raise ConfigurationError(f"shards must be >= 1, got {shards}")

    wall_start = time.perf_counter()
    counters_start = cache.counters.snapshot()
    if run_dir is None:
        run_dir = cache.root / "runs" / f"run-{uuid.uuid4().hex[:16]}"
    run_path = pathlib.Path(run_dir).expanduser()
    queue: Optional[WorkQueue] = None
    if (run_path / "manifest.json").exists():
        try:
            queue = WorkQueue.open(run_path, io=io, counters=cache.counters)
        except ConfigurationError:
            # The manifest is unreadable — a coordinator crashed mid-
            # write.  While nothing has finished, the run has no state
            # worth preserving and the manifest can be recut from the
            # inputs; once done markers exist their unit indices are
            # bound to the *old* manifest, and guessing would silently
            # misassign results, so surface the corruption instead.
            if any((run_path / "done").glob("unit-*.json")):
                raise
            cache.counters.corrupt_records += 1
    if queue is None:
        payloads, units = _plan_units(points, shards)
        queue = WorkQueue.create(
            run_path,
            payloads,
            units,
            cache_dir=cache.root,
            engine=engine,
            observe=observe,
            lease_ttl_s=lease_ttl_s,
            io=io,
            counters=cache.counters,
        )

    # Spawn (not fork) mirrors detached `--worker` processes: each shard
    # re-imports the package exactly as a worker on another host would.
    ctx = multiprocessing.get_context("spawn")
    workers = []
    if queue.pending_units():
        for k in range(shards):
            proc = ctx.Process(
                target=_worker_entry,
                args=(
                    str(run_path),
                    f"shard-{k}-{uuid.uuid4().hex[:8]}",
                    poll_s,
                ),
                daemon=True,
            )
            proc.start()
            workers.append(proc)
    if worker_hook is not None:
        worker_hook(workers)

    try:
        while queue.pending_units():
            alive = [p for p in workers if p.is_alive()]
            if not alive:
                # Every spawned worker died (or none were needed).  The
                # coordinator becomes the worker of last resort: leases
                # of the dead expire and are stolen in-process, so the
                # run still finishes.  Its counter deltas flow through
                # the unit reports it releases, like any worker's.
                run_worker(run_path, "coordinator", poll_s=poll_s, io=io,
                           retry=retry)
                break
            time.sleep(poll_s)
    finally:
        for proc in workers:
            proc.join(timeout=max(lease_ttl_s * 4.0, 10.0))
            if proc.is_alive():  # pragma: no cover - wedged worker
                proc.terminate()
                proc.join(timeout=5.0)

    results, observations = _collect(queue, points, cache, observe, retry)
    unit_reports = queue.done_reports()
    report = merge_shard_reports(unit_reports)
    report.total = len(points)
    report.wall_s = time.perf_counter() - wall_start
    report.jobs = max(shards, 1)
    # Unit reports carry what the workers survived; fold in what the
    # coordinator itself saw (quarantines and corrupt records during
    # manifest handling and collection).
    report.reliability.merge(cache.counters.since(counters_start))
    return DistributedSweepResult(
        results=results,
        report=report,
        run_dir=run_path,
        unit_reports=unit_reports,
        observations=observations,
    )
