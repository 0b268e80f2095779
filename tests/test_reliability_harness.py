"""The storage-fault campaign (``chaos --io``): crash sweep and seeded plans.

The ``storage-chaos`` CI job runs this module: a crash injected at
*every* counted IO operation of a cached ``SweepExecutor`` run leaves
the cache unserving of unverified bytes, a rerun recomputes exactly the
points the crash lost, and the recovered sweep is bit-identical to
serial; seeded torn/errno/crash/stall plans keep the same invariants.
"""

from __future__ import annotations

import importlib.util
import json

import pytest

from repro.faults import chaos
from repro.reliability.iofaults import FaultyIO, IOFaultPlan, SimulatedCrash
from repro.sweep import ResultCache, SweepExecutor, SweepSpec

#: The campaign grid's points, in run order.
POINTS = SweepSpec(**chaos.IO_GRID).points()

#: Counted op kinds of a clean cached run over ``POINTS``: a read per
#: point (all miss), then a temp-file write and a replace per store.
CLEAN_OPS = ["read"] * 4 + ["write", "replace"] * 4

#: The 25 plans of ``chaos --io --trials 25 --seed 7``, as first drawn
#: against a fixed bound of 12 ops; the probed bound must keep them.
SEED7_PLANS = [
    "torn:write@10", "err:ENOSPC@11", "torn:write@9",
    "torn:write@11;torn:write@3;err:EAGAIN@7", "crash@2;err:EAGAIN@0",
    "err:ENOSPC@8;crash@3;torn:write@8", "stall:write@9+0.01", "crash@5",
    "err:ENOSPC@0;stall:write@5+0.01", "crash@6;err:EIO@4;crash@5",
    "crash@6", "torn:write@11", "crash@4;stall:write@11+0.01;torn:write@2",
    "err:ENOSPC@0;torn:write@9;err:EIO@5",
    "stall:read@10+0.01;stall:write@4+0.01;err:ENOSPC@9", "err:ENOSPC@10",
    "crash@3", "crash@8;crash@0", "err:ENOSPC@9;torn:write@5",
    "torn:write@8;err:EIO@10", "err:ENOSPC@5;err:EIO@11;torn:write@8",
    "err:ENOSPC@1;err:EAGAIN@1;torn:write@1", "err:ENOSPC@10", "crash@11",
    "crash@3",
]


def _fingerprints(results):
    return [json.dumps(r.to_dict(), sort_keys=True) for r in results]


@pytest.fixture(scope="module")
def serial():
    return _fingerprints(SweepExecutor(jobs=1).run(POINTS))


class TestCrashConsistency:
    """The crash sweep: a lone ``crash@K`` at every probed op K."""

    def test_crash_at_every_io_op(self, capsys):
        report = chaos.run_io_trials(0, 7)
        assert report.ok, [v.to_dict() for v in report.violations]
        # Four points: a read each, then a write and a replace per store.
        assert report.trials == 12
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert lines == [
            f"  [ok  ] crash sweep: io faults 'crash@{at}'" for at in range(12)
        ]

    def test_recompute_counts_follow_the_landed_replaces(self, serial):
        # A crash before store k's replace loses points k..3; the probe
        # is what each crash point's exact-recompute check counts from.
        probed_serial, ops, replaces = chaos._probe_io_grid()
        lost = [len(POINTS) - sum(1 for i in replaces if i < at)
                for at in range(ops)]
        assert lost == [4, 4, 4, 4, 4, 4, 3, 3, 2, 2, 1, 1]
        assert list(probed_serial) == serial

    def test_crash_sweep_covers_every_probed_op(self, monkeypatch):
        serial_, _ops, replaces = chaos._probe_io_grid()
        monkeypatch.setattr(
            chaos, "_probe_io_grid", lambda: (serial_, 3, replaces)
        )
        ran = []
        monkeypatch.setattr(
            chaos, "run_io_trial", lambda trial: ran.append(trial.plan_spec)
        )
        report = chaos.run_io_trials(1, 7)
        assert report.ok and report.trials == 4
        assert ran[:3] == ["crash@0", "crash@1", "crash@2"]
        assert ran[3] == chaos.generate_io_trial(7, 0).plan_spec

    def test_a_wrong_recompute_count_is_a_violation(self, monkeypatch):
        # Pretend the second entry landed one op earlier than it does:
        # the rerun after crash@5 then computes one point more than the
        # probe allows.
        serial_, ops, replaces = chaos._probe_io_grid()
        shifted = (replaces[0], 4) + replaces[2:]
        monkeypatch.setattr(
            chaos, "_probe_io_grid", lambda: (serial_, ops, shifted)
        )
        violation = chaos.run_io_trial(chaos.IOTrial(None, "crash@5", 7))
        assert violation is not None
        assert violation.invariant == "exact-recompute"
        assert violation.detail == "rerun computed 4 point(s), expected 3"
        assert violation.trial is None

    def test_crash_sweep_violation_names_its_plan_and_replay(
        self, monkeypatch, capsys
    ):
        def fail_crash_3(trial):
            if trial.plan_spec != "crash@3" or trial.index is not None:
                return None
            return chaos.Violation(
                trial=None, invariant="warm-rerun", detail="synthetic",
                schedule=trial.plan_spec, shrunk_schedule=trial.plan_spec,
                algorithm="<result-cache>", distribution="-",
            )

        monkeypatch.setattr(chaos, "run_io_trial", fail_crash_3)
        assert chaos.main(["--io", "--trials", "2", "--seed", "7"]) == 1
        out = capsys.readouterr().out
        assert "  [FAIL] crash sweep: io faults 'crash@3'" in out
        assert "VIOLATION [warm-rerun] in crash@3:" in out
        assert "  replay:   python -m repro chaos --io --trials 0" in out
        assert "1 violation(s)" in out


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

    def test_probe_counts_the_clean_run_ops(self, tmp_path):
        # Faults are drawn below the probed count; a bound above the
        # run's op count would schedule faults past its end, where they
        # do nothing.
        io = FaultyIO()
        SweepExecutor(jobs=1, cache=ResultCache(tmp_path, io=io)).run(POINTS)
        _serial, ops, replaces = chaos._probe_io_grid()
        assert ops == io.ops == len(CLEAN_OPS)
        assert list(replaces) == [
            i for i, kind in enumerate(CLEAN_OPS) if kind == "replace"
        ]

    def test_plans_stay_parseable_and_bounded(self):
        for index in range(25):
            trial = chaos.generate_io_trial(0, index)
            plan = IOFaultPlan.parse(trial.plan_spec)
            assert 1 <= len(plan.faults) <= 3
            assert all(f.index < len(CLEAN_OPS) for f in plan.faults)

    def test_seed7_plans_are_unchanged(self):
        assert [
            chaos.generate_io_trial(7, index).plan_spec for index in range(25)
        ] == SEED7_PLANS

    def test_describe_names_the_replay_coordinates(self):
        trial = chaos.generate_io_trial(7, 3)
        assert "trial 3" in trial.describe()
        assert trial.plan_spec in trial.describe()


class TestIoInvariants:
    def test_small_batch_holds_all_invariants(self):
        report = chaos.run_io_trials(6, 20260808)
        assert report.ok, [v.to_dict() for v in report.violations]
        assert report.trials == 12 + 6

    def test_single_trial_replay(self):
        report = chaos.run_io_trials(25, 7, only=13)
        assert report.ok
        assert report.trials == 1


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
            POINTS
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
    def test_io_flag_runs_the_crash_sweep_then_the_seeded_plans(self, capsys):
        code = chaos.main(["--io", "--trials", "2", "--seed", "7"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == (
            "chaos (io): a crash at each of 12 IO op(s), then 2 trial(s), "
            "seed 7"
        )
        assert lines[1] == "  [ok  ] crash sweep: io faults 'crash@0'"
        assert lines[12] == "  [ok  ] crash sweep: io faults 'crash@11'"
        assert lines[13].startswith("  [ok  ] trial 0: io faults ")
        assert lines[-1] == "all invariants held over 14 trial(s)"

    def test_zero_trials_runs_the_crash_sweep_alone(self, capsys):
        assert chaos.main(["--io", "--trials", "0"]) == 0
        out = capsys.readouterr().out
        assert "trial 0:" not in out
        assert out.count("crash sweep: io faults") == 12
        assert "all invariants held over 12 trial(s)" in out

    def test_io_replay_flag_runs_one_trial(self, capsys):
        code = chaos.main(["--io", "--trials", "25", "--seed", "7", "--trial", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "trial 3:" in out
        assert "trial 2:" not in out
        assert "crash" not in out.splitlines()[0]
        assert "crash sweep" not in out


class TestHarnessCli:
    def test_the_harness_module_is_gone(self):
        # ``chaos --io`` runs the one storage-fault campaign.
        assert importlib.util.find_spec("repro.reliability.harness") is None
