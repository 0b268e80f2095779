"""Distributed sweep tests: lease protocol, crash recovery, differential.

The headline guarantees pinned here (and by the
``sweep-distributed-differential`` CI job):

* sharded execution is bit-identical to ``SweepExecutor(jobs=1)`` over
  the full 8×8 grid, cold and warm;
* SIGKILLing a shard worker mid-sweep changes nothing — leases expire,
  survivors steal, and the completed points stay durable in the cache
  (a warm re-run recomputes zero points);
* the on-disk :class:`~repro.sweep.distributed.WorkQueue` honours
  claim exclusivity, expiry-only stealing, renew-after-loss refusal,
  and done-marker-before-lease-drop release ordering;
* concurrent writers racing one cache key leave exactly one loadable
  entry and no temp-file litter.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.errors import ConfigurationError
from repro.metrics.progress import SweepReport
from repro.reliability import ReliabilityCounters
from repro.sweep import ResultCache, SweepExecutor, SweepSpec
from repro.sweep.distributed import (
    WorkQueue,
    run_sharded,
    run_worker,
)
from tests.test_fastpath_fallback import _forbid_fast_path, _spy_fast_path

#: The acceptance grid: the full 8×8 mesh, both source shapes the paper
#: leans on, three schedule families, 16 points.
GRID = SweepSpec(
    machines=("paragon:8x8",),
    distributions=("E", "R"),
    s_values=(4, 16),
    message_sizes=(512,),
    algorithms=("Br_Lin", "2-Step", "PersAlltoAll", "MPI_AllGather"),
    seeds=(0,),
)


def fingerprint(result):
    """Everything observable about a run, as a comparable value."""
    return (
        result.algorithm,
        result.elapsed_us,
        result.num_rounds,
        result.num_transfers,
        result.link_utilization,
        result.metrics.to_json_dict(),
    )


def _kill_all(workers):
    """``worker_hook`` that SIGKILLs every spawned shard at once."""
    for proc in workers:
        try:
            os.kill(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


@pytest.fixture(scope="module")
def points():
    pts = GRID.points()
    assert len(pts) == GRID.num_points == 16
    return pts


@pytest.fixture(scope="module")
def serial_results(points):
    return [fingerprint(r) for r in SweepExecutor(jobs=1).run(points)]


class TestShardedDifferential:
    def test_cold_warm_and_resume_match_serial(
        self, points, serial_results, tmp_path
    ):
        cache = ResultCache(tmp_path / "cache")

        cold = run_sharded(points, shards=2, cache=cache)
        assert [fingerprint(r) for r in cold.results] == serial_results
        assert cold.report.total == len(points)
        assert cold.report.computed == len(points)
        assert cold.report.cached == 0
        assert cold.report.jobs == 2

        warm = run_sharded(points, shards=2, cache=cache)
        assert [fingerprint(r) for r in warm.results] == serial_results
        assert warm.report.computed == 0
        assert warm.report.cached == len(points)

        # Resuming the *finished* run directory skips every unit: the
        # report re-reads the original done markers (the run's history),
        # unchanged — nothing was re-evaluated, nothing double-counted.
        resumed = run_sharded(
            points, shards=2, cache=cache, run_dir=cold.run_dir
        )
        assert [fingerprint(r) for r in resumed.results] == serial_results
        assert resumed.report.computed == cold.report.computed
        assert [r.to_dict() for r in resumed.unit_reports] == [
            r.to_dict() for r in cold.unit_reports
        ]

    def test_run_dir_is_inspectable(self, points, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        outcome = run_sharded(points, shards=2, cache=cache)
        queue = WorkQueue.open(outcome.run_dir)
        assert queue.pending_units() == []
        assert queue.errors() == []
        assert len(outcome.unit_reports) == queue.num_units
        covered = sorted(i for unit in queue.units for i in unit)
        assert covered == list(range(len(queue.payloads)))

    def test_sharded_requires_a_cache(self, points):
        with pytest.raises(ConfigurationError, match="shared result cache"):
            run_sharded(points[:1], shards=2, cache=None)

    def test_observe_fast_matches_event(self, points, tmp_path, monkeypatch):
        """Observed sharded runs take the fast path and equal the event engine.

        The spawned worker is killed at once, so the coordinator drains
        the queue in-process where the spy can see the engine used.
        """
        calls = _spy_fast_path(monkeypatch)
        outcomes = {
            engine: run_sharded(
                points[:2],
                shards=1,
                cache=ResultCache(tmp_path / engine),
                engine=engine,
                observe=True,
                lease_ttl_s=0.6,
                worker_hook=_kill_all,
            )
            for engine in ("fast", "event")
        }
        assert len(calls) == 2
        assert all(call["tracer"] is not None for call in calls)
        fast, event = outcomes["fast"], outcomes["event"]
        assert [r.to_dict() for r in fast.results] == [
            r.to_dict() for r in event.results
        ]
        assert all(obs["summary"] for obs in fast.observations)
        assert fast.observations == event.observations

    def test_observe_honours_event_engine(self, points, tmp_path, monkeypatch):
        """The coordinator, draining in-process, keeps the queue's engine."""
        _forbid_fast_path(monkeypatch)
        outcome = run_sharded(
            points[:2],
            shards=1,
            cache=ResultCache(tmp_path),
            engine="event",
            observe=True,
            lease_ttl_s=0.6,
            worker_hook=_kill_all,
        )
        assert all(r.complete for r in outcome.results)
        assert all(obs["summary"] for obs in outcome.observations)


class TestWorkerDeath:
    def test_sigkilled_worker_changes_nothing(
        self, points, serial_results, tmp_path
    ):
        # Kill shard 0 almost immediately; shard 1 must steal its leases
        # and finish the grid.  The result is still bit-identical, every
        # unit lands a done marker, and a warm re-run computes nothing —
        # whatever the victim finished before dying is durable in the
        # cache and is *served*, not redone.
        cache = ResultCache(tmp_path / "cache")

        def hook(workers):
            victim = workers[0].pid

            def kill():
                try:
                    os.kill(victim, signal.SIGKILL)
                except ProcessLookupError:
                    pass

            timer = threading.Timer(0.3, kill)
            timer.daemon = True
            timer.start()

        outcome = run_sharded(
            points, shards=2, cache=cache, lease_ttl_s=0.6, worker_hook=hook
        )
        assert [fingerprint(r) for r in outcome.results] == serial_results
        assert WorkQueue.open(outcome.run_dir).pending_units() == []

        rerun = run_sharded(points, shards=2, cache=cache, lease_ttl_s=0.6)
        assert rerun.report.computed == 0
        assert rerun.report.cached == len(points)

    def test_all_workers_dead_coordinator_finishes(
        self, points, serial_results, tmp_path
    ):
        # Both shards die instantly; the coordinator is the worker of
        # last resort and drains the queue in-process.
        cache = ResultCache(tmp_path / "cache")
        outcome = run_sharded(
            points, shards=2, cache=cache, lease_ttl_s=0.6,
            worker_hook=_kill_all,
        )
        assert [fingerprint(r) for r in outcome.results] == serial_results


class TestWorkQueue:
    def _queue(self, tmp_path, units=2):
        payloads = [
            {"machine": "paragon:4x4", "seed": i} for i in range(units)
        ]
        return WorkQueue.create(
            tmp_path / "run",
            payloads,
            [[i] for i in range(units)],
            cache_dir=tmp_path / "cache",
            lease_ttl_s=0.4,
        )

    def test_claim_is_exclusive(self, tmp_path):
        queue = self._queue(tmp_path)
        assert queue.claim(0, "a")
        assert not queue.claim(0, "b")
        assert queue.claim(1, "b")  # other units stay claimable

    def test_expired_lease_is_stolen_live_one_is_not(self, tmp_path):
        queue = self._queue(tmp_path)
        assert queue.claim(0, "a")
        assert not queue.claim(0, "b")  # still live
        time.sleep(0.5)  # > lease_ttl_s
        assert queue.claim(0, "b")
        assert queue.lease_of(0)["owner"] == "b"
        assert queue.lease_of(0)["claims"] == 2

    def test_renew_extends_and_refuses_after_loss(self, tmp_path):
        queue = self._queue(tmp_path)
        assert queue.claim(0, "a")
        assert queue.renew(0, "a")
        time.sleep(0.5)
        assert queue.claim(0, "b")  # stolen after expiry
        assert not queue.renew(0, "a")  # the original owner must abandon
        assert queue.renew(0, "b")

    def test_release_writes_done_before_dropping_lease(self, tmp_path):
        queue = self._queue(tmp_path)
        assert queue.claim(0, "a")
        queue.release(0, "a", SweepReport(total=1, computed=1, jobs=1))
        assert queue.is_done(0)
        assert not queue.lease_path(0).exists()
        assert not queue.claim(0, "b")  # done units are never claimable
        record = queue.done_record(0)
        assert record["owner"] == "a"
        assert "errors" not in record

    def test_abandon_drops_only_own_lease(self, tmp_path):
        queue = self._queue(tmp_path)
        assert queue.claim(0, "a")
        queue.abandon(0, "b")  # not the owner: no-op
        assert queue.lease_of(0)["owner"] == "a"
        queue.abandon(0, "a")
        # Abandonment leaves an *expired tombstone*, not an unlink —
        # unlinking would reset the fence on the next exclusive create.
        tombstone = queue.lease_of(0)
        assert tombstone["owner"] == "a"
        assert tombstone["expires_unix"] == 0.0
        fence = queue.claim(0, "b")
        assert fence == tombstone["fence"] + 1  # monotonic across abandon

    def test_corrupt_lease_is_stolen(self, tmp_path):
        queue = self._queue(tmp_path)
        assert queue.claim(0, "a")
        queue.lease_path(0).write_text("{ not json !!!")
        assert queue.claim(0, "b")

    def test_open_rejects_foreign_directory(self, tmp_path):
        with pytest.raises(ConfigurationError, match="run directory"):
            WorkQueue.open(tmp_path)

    def test_run_worker_drains_everything(self, points, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        queue = WorkQueue.create(
            tmp_path / "run",
            [p.payload() for p in points[:4]],
            [[0, 1], [2, 3]],
            cache_dir=cache.root,
        )
        shard = run_worker(queue.run_dir, "solo")
        assert shard.computed == 4
        assert queue.pending_units() == []


class TestFencing:
    """Monotonic fencing tokens: a stalled worker cannot clobber a steal."""

    def _queue(self, tmp_path, counters=None, units=2):
        payloads = [
            {"machine": "paragon:4x4", "seed": i} for i in range(units)
        ]
        return WorkQueue.create(
            tmp_path / "run",
            payloads,
            [[i] for i in range(units)],
            cache_dir=tmp_path / "cache",
            lease_ttl_s=0.4,
            counters=counters,
        )

    def test_fence_grows_across_steals(self, tmp_path):
        queue = self._queue(tmp_path)
        assert queue.claim(0, "a") == 1
        time.sleep(0.5)
        assert queue.claim(0, "b") == 2
        time.sleep(0.5)
        assert queue.claim(0, "c") == 3

    def test_stale_fence_renew_refused_and_counted(self, tmp_path):
        counters = ReliabilityCounters()
        queue = self._queue(tmp_path, counters=counters)
        old = queue.claim(0, "w")
        time.sleep(0.5)
        new = queue.claim(0, "w")  # the same worker re-claims after a stall
        assert new == old + 1
        # A renew presented under the pre-stall fence is the signature
        # of a worker that slept past its TTL: refused and counted.
        assert not queue.renew(0, "w", fence=old)
        assert counters.fencing_rejections == 1
        assert queue.renew(0, "w", fence=new)
        assert counters.fencing_rejections == 1

    def test_stale_fence_release_refused(self, tmp_path):
        counters = ReliabilityCounters()
        queue = self._queue(tmp_path, counters=counters)
        old = queue.claim(0, "w")
        time.sleep(0.5)
        new = queue.claim(0, "w")
        report = SweepReport(total=1, computed=1, jobs=1)
        assert not queue.release(0, "w", report, fence=old)
        assert not queue.is_done(0)  # the fenced release wrote nothing
        assert counters.fencing_rejections == 1
        assert queue.release(0, "w", report, fence=new)
        assert queue.done_record(0)["fence"] == new

    def test_done_marker_fences_late_releases(self, tmp_path):
        counters = ReliabilityCounters()
        queue = self._queue(tmp_path, counters=counters)
        fence = queue.claim(0, "a")
        report = SweepReport(total=1, computed=1, jobs=1)
        assert queue.release(0, "a", report, fence=fence)
        # A straggler who also evaluated the unit arrives after the done
        # marker landed: refused, and the first done record is untouched.
        assert not queue.release(0, "a", report, fence=fence)
        assert counters.fencing_rejections == 1
        assert queue.done_record(0)["owner"] == "a"

    def test_two_stealers_racing_one_expired_lease(self, tmp_path):
        """Satellite: read-back verify under concurrent re-claim.

        Both stealers may transiently believe they won (each can pass
        its own read-back before the other's write lands), but the lease
        file names exactly one owner, and fencing + the done marker let
        exactly one of them release.
        """
        counters = ReliabilityCounters()
        queue = self._queue(tmp_path, counters=counters)
        assert queue.claim(0, "victim") == 1
        time.sleep(0.5)  # the victim stalls past its TTL

        barrier = threading.Barrier(2)
        fences = {}

        def steal(owner):
            barrier.wait()
            fences[owner] = queue.claim(0, owner)

        threads = [
            threading.Thread(target=steal, args=(o,)) for o in ("s1", "s2")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        winners = {o: f for o, f in fences.items() if f}
        assert winners, "an expired lease must be stealable"
        final = queue.lease_of(0)
        assert final["owner"] in winners
        assert counters.steals >= 1
        # Every accepted fence is past the victim's, so the victim is
        # fenced out no matter how long it stalls.
        assert all(f > 1 for f in winners.values())
        assert not queue.renew(0, "victim", fence=1)
        # Exactly one stealer completes the unit; the loser is fenced
        # off by owner mismatch or by the done marker, never clobbers.
        report = SweepReport(total=1, computed=1, jobs=1)
        released = [
            queue.release(0, owner, report, fence=fence)
            for owner, fence in sorted(winners.items())
        ]
        assert sum(released) == 1
        assert queue.done_record(0)["owner"] == final["owner"]


def _store_race(cache_dir, key_payload, result_dict, rounds):
    """Spawn target: hammer one cache key with stores."""
    from repro.sweep import ResultCache
    from repro.sweep.spec import SweepPoint

    cache = ResultCache(cache_dir)
    point = SweepPoint.from_payload(key_payload)
    for _ in range(rounds):
        cache.store(point, result_dict, compute_s=0.01)


class TestConcurrentWriters:
    def test_two_processes_storing_one_key(self, points, tmp_path):
        # Two spawned processes race 50 stores each onto the same key.
        # Atomic replace + unique temp names must leave exactly one
        # loadable entry and zero temp-file litter.
        from repro.sweep.executor import evaluate_point

        payload = points[0].payload()
        result_dict, _, _ = evaluate_point(payload, "auto")
        ctx = multiprocessing.get_context("spawn")
        procs = [
            ctx.Process(
                target=_store_race,
                args=(str(tmp_path), payload, result_dict, 50),
            )
            for _ in range(2)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        cache = ResultCache(tmp_path)
        hit = cache.load(points[0])
        assert hit is not None
        assert hit[0] == result_dict
        assert len(cache) == 1
        assert not list(tmp_path.glob("**/*.tmp"))


class TestObservedSharded:
    def test_observations_roll_up(self, tmp_path):
        from repro.obs.summary import aggregate_observations

        pts = SweepSpec(
            machines=("paragon:4x4",),
            distributions=("E",),
            s_values=(4,),
            message_sizes=(256,),
            algorithms=("Br_Lin", "2-Step"),
            seeds=(0,),
        ).points()
        cache = ResultCache(tmp_path / "cache")
        outcome = run_sharded(pts, shards=2, cache=cache, observe=True)
        assert outcome.observations is not None
        assert all(obs is not None for obs in outcome.observations)
        rollup = aggregate_observations(outcome.observations)
        assert rollup["observed"] == len(pts)
        assert rollup["groups"]
        # Observed results match the unobserved serial ones (tracing is
        # a read-only side channel).
        plain = SweepExecutor(jobs=1).run(pts)
        assert [fingerprint(r) for r in outcome.results] == [
            fingerprint(r) for r in plain
        ]


class TestCli:
    def _run(self, argv):
        from repro.__main__ import main

        return main(argv)

    def test_sharded_cli_roundtrip(self, tmp_path, capsys):
        argv = [
            "sweep",
            "--machines", "paragon:4x4",
            "--dists", "E",
            "--s", "4",
            "--L", "256",
            "--algorithms", "Br_Lin,2-Step",
            "--seeds", "0",
            "--shards", "2",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert self._run(argv) == 0
        out = capsys.readouterr().out
        assert "sweep grid: 2 point(s)" in out
        assert "2 worker(s)" in out

    def test_worker_cli_attaches_to_run_dir(self, points, tmp_path, capsys):
        cache = ResultCache(tmp_path / "cache")
        queue = WorkQueue.create(
            tmp_path / "run",
            [p.payload() for p in points[:2]],
            [[0], [1]],
            cache_dir=cache.root,
        )
        argv = ["sweep", "--worker", "--run-dir", str(queue.run_dir)]
        assert self._run(argv) == 0
        assert "worker done:" in capsys.readouterr().out
        assert queue.pending_units() == []

    def test_shards_without_cache_dir_is_an_error(self, tmp_path):
        argv = ["sweep", "--shards", "2"]
        with pytest.raises(SystemExit):
            self._run(argv)
