"""Chaos harness: trial generation, invariants, shrinking, CLI."""

from __future__ import annotations

import json

import pytest

from repro.faults import FaultSchedule, NodeFault, chaos


class TestTrialGeneration:
    def test_same_seed_and_index_reproduce_the_trial(self):
        a = chaos.generate_trial(7, 3)
        b = chaos.generate_trial(7, 3)
        assert a == b
        assert a.schedule.canonical() == b.schedule.canonical()

    def test_indices_vary_the_trial(self):
        trials = [chaos.generate_trial(7, i) for i in range(8)]
        assert len({t.schedule.canonical() for t in trials}) > 1

    def test_schedule_sizes_are_bounded(self):
        for index in range(20):
            trial = chaos.generate_trial(0, index)
            assert 1 <= len(trial.schedule.faults) <= 4

    def test_describe_names_the_replay_coordinates(self):
        trial = chaos.generate_trial(7, 3)
        text = trial.describe()
        assert "trial 3" in text
        assert trial.schedule.canonical() in text


class TestInvariants:
    def test_ci_batch_holds_all_invariants(self):
        # The acceptance criterion: the exact batch CI runs (25 trials,
        # fixed seed) must produce zero violations.
        report = chaos.run_trials(25, 20260806)
        assert report.ok, [v.to_dict() for v in report.violations]
        assert report.trials == 25

    def test_single_trial_replay(self):
        report = chaos.run_trials(25, 20260806, only=13)
        assert report.ok

    def test_connected_classifier(self):
        from repro.machines import machine_from_spec

        machine = machine_from_spec("paragon:4x4")
        connected = FaultSchedule.parse("link:5-6;degrade:links=0.25,factor=2")
        assert chaos._is_connected_no_node_faults(connected, machine, 0)
        node_kill = FaultSchedule.parse("node:6")
        assert not chaos._is_connected_no_node_faults(node_kill, machine, 0)
        # Sever node 5 from the mesh entirely: no node fault, but the
        # surviving topology has two components.
        severed = FaultSchedule.parse("link:5-1;link:5-4;link:5-6;link:5-9")
        assert not chaos._is_connected_no_node_faults(severed, machine, 0)


class TestShrinking:
    def test_shrinks_to_the_culprit_fault(self, monkeypatch):
        trial = chaos.generate_trial(7, 0)
        schedule = FaultSchedule.parse(
            "link:1-2;node:5@100us;degrade:links=0.5,factor=2"
        )
        trial = chaos.ChaosTrial(
            index=trial.index,
            machine=trial.machine,
            algorithm=trial.algorithm,
            distribution=trial.distribution,
            s=trial.s,
            message_size=trial.message_size,
            schedule=schedule,
            seed=trial.seed,
        )

        def fake_check(trial_, candidate, *, determinism=False):
            if any(isinstance(f, NodeFault) for f in candidate.faults):
                return ("synthetic", "node fault present")
            return None

        monkeypatch.setattr(chaos, "_check_invariants", fake_check)
        shrunk, (invariant, detail) = chaos.shrink(
            trial, ("synthetic", "node fault present")
        )
        assert invariant == "synthetic"
        assert shrunk.canonical() == "node:5@100us"

    def test_shrink_preserves_the_same_invariant_only(self, monkeypatch):
        trial = chaos.generate_trial(7, 0)
        schedule = FaultSchedule.parse("link:1-2;node:5")
        trial = chaos.ChaosTrial(
            index=0,
            machine=trial.machine,
            algorithm=trial.algorithm,
            distribution=trial.distribution,
            s=trial.s,
            message_size=trial.message_size,
            schedule=schedule,
            seed=trial.seed,
        )

        def fake_check(trial_, candidate, *, determinism=False):
            # Removing either fault flips to a *different* invariant, so
            # no single-fault schedule reproduces the original failure.
            if len(candidate.faults) == 2:
                return ("original", "both faults")
            return ("other", "different failure")

        monkeypatch.setattr(chaos, "_check_invariants", fake_check)
        shrunk, (invariant, _) = chaos.shrink(trial, ("original", "both"))
        assert invariant == "original"
        assert shrunk.canonical() == schedule.canonical()  # nothing removable


class TestCli:
    def test_clean_batch_exits_zero_and_writes_report(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code = chaos.main(
            ["--trials", "3", "--seed", "7", "--report", str(path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "all invariants held over 3 trial(s)" in out
        report = json.loads(path.read_text())
        assert report["ok"] is True
        assert report["seed"] == 7
        assert report["violations"] == []

    def test_replay_flag_runs_one_trial(self, capsys):
        code = chaos.main(["--trials", "25", "--seed", "7", "--trial", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "trial 5:" in out
        assert "trial 4:" not in out

    def test_violations_exit_nonzero_with_replay_line(
        self, tmp_path, monkeypatch, capsys
    ):
        violation = chaos.Violation(
            trial=2,
            invariant="no-crash",
            detail="BoomError: synthetic",
            schedule="node:5@0us;link:1-2@0us",
            shrunk_schedule="node:5@0us",
            algorithm="Br_Lin",
            distribution="E",
        )
        monkeypatch.setattr(
            chaos, "run_trial", lambda trial, determinism=False: violation
        )
        path = tmp_path / "report.json"
        code = chaos.main(
            ["--trials", "2", "--seed", "7", "--report", str(path)]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "VIOLATION [no-crash]" in out
        assert "shrunk:   node:5@0us" in out
        assert "--seed 7 --trial 2" in out
        report = json.loads(path.read_text())
        assert report["ok"] is False
        assert report["violations"][0]["invariant"] == "no-crash"

    def test_module_entrypoint_dispatches_chaos(self, capsys):
        from repro.__main__ import main

        code = main(["chaos", "--trials", "1", "--seed", "7"])
        assert code == 0
        assert "chaos: 1 trial(s), seed 7" in capsys.readouterr().out

    def test_replay_line_names_every_non_default_pool(self, monkeypatch,
                                                        capsys):
        """The printed replay command regenerates the failing trial."""
        import shlex

        def fail_trial_3(trial, determinism=False):
            if trial.index != 3:
                return None
            return chaos.Violation(
                trial=trial.index, invariant="no-crash", detail="synthetic",
                schedule=trial.schedule.canonical(),
                shrunk_schedule=trial.schedule.canonical(),
                algorithm=trial.algorithm, distribution=trial.distribution,
            )

        def failing_description(out):
            (line,) = [l for l in out.splitlines() if l.startswith("  [FAIL]")]
            return line

        monkeypatch.setattr(chaos, "run_trial", fail_trial_3)
        argv = ["--trials", "5", "--seed", "7", "--machine", "paragon:8x8",
                "--L", "64"]
        assert chaos.main(argv) == 1
        out = capsys.readouterr().out
        described = failing_description(out)
        assert "L=64 on paragon:8x8" in described
        (replay,) = [l for l in out.splitlines() if l.startswith("  replay:")]
        command = shlex.split(replay.split("replay:", 1)[1])
        assert command[:4] == ["python", "-m", "repro", "chaos"]
        assert "--algorithms" not in command  # defaults stay off the line
        assert chaos.main(command[4:]) == 1
        assert failing_description(capsys.readouterr().out) == described
