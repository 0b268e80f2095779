"""Crash-consistency harness and storage-chaos (``--io``) coverage.

The ``storage-chaos`` CI job runs this module: a crash injected at
*every* counted IO operation of a cached ``SweepExecutor`` run leaves
the cache unserving of unverified bytes, a rerun recomputes exactly the
points the crash lost, and the recovered sweep is bit-identical to
serial.
"""

from __future__ import annotations

import json

import pytest

from repro.faults import chaos
from repro.reliability import FaultyIO, IOFaultPlan, SimulatedCrash
from repro.reliability.harness import (
    HARNESS_GRID,
    CrashConsistencyReport,
    run_crash_consistency,
)
from repro.sweep import ResultCache, SweepExecutor, SweepSpec

#: The harness grid's points, in run order.
POINTS = SweepSpec(**HARNESS_GRID).points()

#: Counted op kinds of a clean cached run over ``POINTS``: a read per
#: point (all miss), then a temp-file write and a replace per store.
CLEAN_OPS = ["read"] * 4 + ["write", "replace"] * 4


def _fingerprints(results):
    return [json.dumps(r.to_dict(), sort_keys=True) for r in results]


@pytest.fixture(scope="module")
def serial():
    return _fingerprints(SweepExecutor(jobs=1).run(POINTS))


class TestCrashConsistency:
    def test_crash_at_every_io_op(self):
        # The acceptance sweep: one crash point per counted IO op of the
        # probe run, every invariant checked on the wreckage each time.
        report = run_crash_consistency()
        assert report.ok, report.violations
        # Four points: a read each, then a write and a replace per store.
        assert report.ops == 12
        assert report.checked == report.ops
        assert report.summary().endswith("ok")
        # A crash before store k's replace loses points k..3; the rerun
        # recomputes exactly those.
        assert report.recomputed == [4, 4, 4, 4, 4, 4, 3, 3, 2, 2, 1, 1]

    def test_max_ops_truncates_the_sweep(self):
        report = run_crash_consistency(max_ops=3)
        assert report.ok
        assert report.checked == 3

    def test_report_flags_violations(self):
        report = CrashConsistencyReport(ops=5, checked=5)
        assert report.ok
        report.violations.append((2, "cache-integrity", "synthetic"))
        assert not report.ok
        assert "1 violation(s)" in report.summary()


class TestCrashPoints:
    """Each crash point checked from the public API, apart from the harness."""

    def test_clean_run_op_sequence(self, tmp_path):
        io = FaultyIO()
        cache = ResultCache(tmp_path, io=io)
        SweepExecutor(jobs=1, cache=cache).run(POINTS)
        assert [kind for _, kind, _ in io.trace] == CLEAN_OPS
        entries = [str(cache.path_for(p.key())) for p in POINTS]
        assert [path for _, _, path in io.trace[:4]] == entries
        writes = [path for _, kind, path in io.trace if kind == "write"]
        replaces = [path for _, kind, path in io.trace if kind == "replace"]
        assert replaces == entries
        for temp, entry in zip(writes, entries):
            assert temp.startswith(entry + ".") and temp.endswith(".tmp")

    @pytest.mark.parametrize("crash_at", range(len(CLEAN_OPS)))
    def test_crash_at_op_recovers(self, crash_at, serial, tmp_path):
        durable = CLEAN_OPS[:crash_at].count("replace")
        with pytest.raises(SimulatedCrash):
            SweepExecutor(
                jobs=1,
                cache=ResultCache(tmp_path, io=FaultyIO(f"crash@{crash_at}")),
            ).run(POINTS)

        # The wreckage: every landed entry verifies, and a crash between
        # a temp write and its replace strands that temp file, unserved.
        cache = ResultCache(tmp_path)
        assert len(cache) == durable
        stranded = 1 if CLEAN_OPS[crash_at] == "replace" else 0
        assert len(list(tmp_path.glob("??/*.tmp"))) == stranded
        audit = cache.verify_all()
        assert (audit.verified, audit.quarantined_now) == (durable, 0)

        executor = SweepExecutor(jobs=1, cache=cache)
        recovered = _fingerprints(executor.run(POINTS))
        assert executor.last_report.computed == len(POINTS) - durable
        assert executor.last_report.cached == durable
        assert executor.last_report.quarantines == 0
        assert recovered == serial
        executor.run(POINTS)
        assert executor.last_report.computed == 0

    def test_crash_past_the_last_op_never_fires(self, serial, tmp_path):
        io = FaultyIO(f"crash@{len(CLEAN_OPS)}")
        executor = SweepExecutor(jobs=1, cache=ResultCache(tmp_path, io=io))
        assert _fingerprints(executor.run(POINTS)) == serial
        assert io.ops == len(CLEAN_OPS)
        assert len(ResultCache(tmp_path)) == len(POINTS)


class TestIoTrialGeneration:
    def test_same_coordinates_reproduce_the_trial(self):
        assert chaos.generate_io_trial(7, 3) == chaos.generate_io_trial(7, 3)

    def test_indices_vary_the_plan(self):
        plans = {chaos.generate_io_trial(7, i).plan_spec for i in range(8)}
        assert len(plans) > 1

    def test_index_bound_is_the_clean_run_op_count(self, tmp_path):
        # Faults are drawn below the bound; a bound above the run's op
        # count would schedule faults past its end, where they do nothing.
        io = FaultyIO()
        executor = SweepExecutor(jobs=1, cache=ResultCache(tmp_path, io=io))
        executor.run(SweepSpec(**chaos._IO_GRID).points())
        assert io.ops == chaos._IO_INDEX_BOUND

    def test_plans_stay_parseable_and_bounded(self):
        for index in range(25):
            trial = chaos.generate_io_trial(0, index)
            plan = IOFaultPlan.parse(trial.plan_spec)
            assert 1 <= len(plan.faults) <= 3
            assert all(f.index < chaos._IO_INDEX_BOUND for f in plan.faults)

    def test_describe_names_the_replay_coordinates(self):
        trial = chaos.generate_io_trial(7, 3)
        assert "trial 3" in trial.describe()
        assert trial.plan_spec in trial.describe()


class TestIoInvariants:
    def test_small_batch_holds_all_invariants(self):
        report = chaos.run_io_trials(6, 20260808, verbose=False)
        assert report.ok, [v.to_dict() for v in report.violations]
        assert report.trials == 6

    def test_single_trial_replay(self):
        report = chaos.run_io_trials(25, 7, only=13, verbose=False)
        assert report.ok


class TestSeed7IoTrials:
    """The CI batch (``chaos --io --trials 25 --seed 7``), one id per trial."""

    @pytest.mark.parametrize("index", range(25))
    def test_trial_holds_every_invariant(self, index):
        trial = chaos.generate_io_trial(7, index)
        violation = chaos.run_io_trial(trial)
        assert violation is None, violation.to_dict()

    @pytest.mark.parametrize("kind", ["crash", "torn", "err", "stall"])
    def test_every_fault_kind_takes_effect(self, kind, tmp_path):
        # Some trial of the batch must place a fault of each kind on an
        # op it acts on: a torn fault on a write, a stall on its own op.
        io = FaultyIO()
        SweepExecutor(jobs=1, cache=ResultCache(tmp_path, io=io)).run(
            SweepSpec(**chaos._IO_GRID).points()
        )
        ops = [op for _, op, _ in io.trace]

        def acts(fault):
            if fault.index >= len(ops):
                return False
            return fault.kind in ("crash", "err") or fault.op == ops[fault.index]

        faults = [
            fault
            for index in range(25)
            for fault in IOFaultPlan.parse(
                chaos.generate_io_trial(7, index).plan_spec
            ).faults
        ]
        assert any(f.kind == kind and acts(f) for f in faults)

    def test_torn_write_is_quarantined_and_recomputed(self, serial, tmp_path):
        trial = chaos.generate_io_trial(7, 0)
        assert trial.plan_spec == "torn:write@10"
        # The torn write appears to succeed, so the faulty run completes
        # and publishes the fourth entry half-written.
        torn = SweepExecutor(
            jobs=1, cache=ResultCache(tmp_path, io=FaultyIO(trial.plan_spec))
        )
        assert _fingerprints(torn.run(POINTS)) == serial
        executor = SweepExecutor(jobs=1, cache=ResultCache(tmp_path))
        assert _fingerprints(executor.run(POINTS)) == serial
        report = executor.last_report
        assert (report.cached, report.computed, report.quarantines) == (3, 1, 1)
        assert report.summary().endswith(" (reliability: quarantines=1)")
        assert ResultCache(tmp_path).verify_all().verified == len(POINTS)


class TestIoCli:
    def test_io_flag_runs_the_storage_batch(self, capsys):
        code = chaos.main(["--io", "--trials", "2", "--seed", "7"])
        assert code == 0
        out = capsys.readouterr().out
        assert "io faults" in out
        assert "all invariants held over 2 trial(s)" in out

    def test_io_replay_flag_runs_one_trial(self, capsys):
        code = chaos.main(["--io", "--trials", "25", "--seed", "7", "--trial", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "trial 3:" in out
        assert "trial 2:" not in out


class TestHarnessCli:
    def test_module_entrypoint(self, capsys):
        from repro.reliability import harness

        code = harness.main()
        assert code == 0
        assert "crash-consistency:" in capsys.readouterr().out
