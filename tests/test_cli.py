"""Unit tests for the ``python -m repro`` command line."""

from __future__ import annotations

import pytest

from repro.__main__ import main as repro_main
from repro.errors import ReproError
from repro.machines import machine_from_spec


class TestMachineSpecs:
    def test_paragon_spec(self):
        machine = machine_from_spec("paragon:4x6")
        assert machine.mesh_shape == (4, 6)

    def test_t3d_spec(self):
        assert machine_from_spec("t3d:64").p == 64

    def test_hypercube_spec(self):
        assert machine_from_spec("hypercube:32").p == 32

    def test_unknown_spec(self):
        with pytest.raises(ReproError):
            machine_from_spec("connectionmachine:65536")

    def test_cli_accepts_variant_specs(self, capsys):
        code = repro_main([
            "--machine", "t3d:16+mapping=identity", "--s", "4", "--L", "256",
            "--algorithm", "Br_Lin",
        ])
        assert code == 0
        assert "p = 16" in capsys.readouterr().out

    def test_cli_rejects_non_canonical_spelling(self, capsys):
        code = repro_main(["--machine", "paragon:04x4", "--s", "3"])
        assert code == 2
        assert "'paragon:4x4'" in capsys.readouterr().err


class TestReproCLI:
    def test_basic_run(self, capsys):
        code = repro_main(
            ["--machine", "paragon:4x5", "--dist", "E", "--s", "5", "--L", "512"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "time:" in out
        assert "figure-2:" in out

    def test_explicit_algorithm(self, capsys):
        code = repro_main(
            [
                "--machine",
                "paragon:4x4",
                "--algorithm",
                "PersAlltoAll",
                "--s",
                "4",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "PersAlltoAll" in out

    def test_sources_rendering(self, capsys):
        code = repro_main(
            ["--machine", "paragon:4x4", "--s", "4", "--show-sources"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "*" in out

    def test_timeline_rendering(self, capsys):
        code = repro_main(
            ["--machine", "paragon:4x4", "--s", "4", "--timeline"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "rank" in out

    def test_faults_flag_reports_delivery(self, capsys):
        code = repro_main(
            [
                "--machine", "paragon:4x4", "--algorithm", "Br_Lin",
                "--s", "4", "--faults", "node:15",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "faults:" in out and "node 15 dead" in out
        assert "delivery:" in out and "PARTIAL" in out

    def test_recover_flag_reports_recovery(self, capsys):
        code = repro_main(
            [
                "--machine", "paragon:4x4", "--algorithm", "Br_xy_source",
                "--s", "4", "--faults", "node:15", "--recover",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "recovery:" in out and "round(s)" in out

    def test_recover_without_faults_is_silent(self, capsys):
        code = repro_main(
            [
                "--machine", "paragon:4x4", "--algorithm", "Br_Lin",
                "--s", "4", "--recover",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "recovery:" not in out

    def test_faults_flag_complete_delivery(self, capsys):
        code = repro_main(
            [
                "--machine", "paragon:4x4", "--algorithm", "Br_Lin",
                "--s", "4", "--faults", "link:5-6",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "delivery:   100.0%" in out
        assert "PARTIAL" not in out

    def test_bad_faults_spec_is_graceful(self, capsys):
        code = repro_main(
            ["--machine", "paragon:4x4", "--s", "4", "--faults", "explode:7"]
        )
        assert code == 2
        assert "fault" in capsys.readouterr().err

    def test_bad_machine_is_graceful(self, capsys):
        code = repro_main(["--machine", "nonsense:1"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_mesh_algorithm_on_t3d_is_graceful(self, capsys):
        code = repro_main(
            ["--machine", "t3d:16", "--algorithm", "Br_xy_source", "--s", "4"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flags,line",
        [
            ([], "engine:     fast (plan-cache="),
            (["--engine", "event"], "engine:     event\n"),
            (["--faults", "node:15"], "engine:     event\n"),
        ],
        ids=["auto", "event", "faults"],
    )
    def test_engine_line_reads_the_run(self, capsys, flags, line):
        argv = ["--machine", "paragon:4x4", "--algorithm", "Br_Lin", "--s", "4"]
        assert repro_main(argv + flags) == 0
        assert line in capsys.readouterr().out

    def test_trace_json_flag_writes_valid_trace(self, capsys, tmp_path):
        import json

        path = tmp_path / "out.trace.json"
        code = repro_main(
            [
                "--machine", "paragon:4x4", "--algorithm", "Br_Lin",
                "--s", "4", "--trace-json", str(path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "trace:" in out
        trace = json.loads(path.read_text())
        assert trace["otherData"]["schema"] == "repro-trace/1"
        assert trace["otherData"]["truncated"] is False
        assert any(e["ph"] == "B" for e in trace["traceEvents"])

    def test_trace_json_result_matches_plain_run(self, capsys, tmp_path):
        """Tracing must not change the reported completion time."""
        argv = ["--machine", "paragon:4x4", "--algorithm", "2-Step", "--s", "4"]
        assert repro_main(argv) == 0
        plain = capsys.readouterr().out
        path = tmp_path / "t.json"
        assert repro_main(argv + ["--trace-json", str(path)]) == 0
        traced = capsys.readouterr().out
        line = next(l for l in plain.splitlines() if l.startswith("time:"))
        assert line in traced


class TestTraceCLI:
    """``--trace-json``: the single run's roll-up, heatmap and trace file."""

    def test_trace_json_prints_rollup_and_heatmap(self, capsys, tmp_path):
        code = repro_main(
            [
                "--machine", "paragon:4x4", "--algorithm", "Br_xy_dim",
                "--s", "4", "--trace-json", str(tmp_path / "t.json"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "<- slowest" in out
        assert "link utilization" in out
        assert "rows" in out or "cols" in out
        # The diagnosis follows the summary lines.
        assert out.index("figure-2:") < out.index("<- slowest")

    def test_trace_json_writes_labelled_json(self, capsys, tmp_path):
        import json

        path = tmp_path / "trace.json"
        code = repro_main(
            ["--machine", "paragon:4x4", "--s", "4", "--trace-json", str(path)]
        )
        assert code == 0
        assert f"trace:      {path}" in capsys.readouterr().out
        trace = json.loads(path.read_text())
        assert trace["otherData"]["schema"] == "repro-trace/1"
        assert "label" in trace["otherData"]

    def test_queue_and_links_shape_the_heatmap(self, capsys, tmp_path):
        code = repro_main(
            [
                "--machine", "paragon:4x4", "--algorithm", "Br_Lin",
                "--s", "4", "--trace-json", str(tmp_path / "t.json"),
                "--queue", "--links", "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        heatmap = out[out.index("queue depth"):].splitlines()
        assert len([line for line in heatmap if "->" in line]) == 3
        assert "link utilization" not in out

    @pytest.mark.parametrize("flags", [["--queue"], ["--links", "3"]],
                             ids=["queue", "links"])
    def test_heatmap_flag_without_trace_json_is_a_usage_error(
        self, capsys, flags
    ):
        code = repro_main(["--machine", "paragon:4x4", "--s", "4", *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {flags[0]} needs --trace-json\n"

    def test_trace_subcommand_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            repro_main(["trace", "--machine", "paragon:4x4"])
        assert exc.value.code == 2
        assert "unrecognized arguments: trace" in capsys.readouterr().err

    def test_bad_machine_is_graceful(self, capsys, tmp_path):
        code = repro_main(
            ["--machine", "bogus:9", "--trace-json", str(tmp_path / "t.json")]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err
        assert not (tmp_path / "t.json").exists()


class TestSweepCLI:
    def test_grid_roundtrip_through_the_cache(self, capsys, tmp_path):
        from repro.sweep import ResultCache, SweepSpec

        cache_dir = tmp_path / "cache"
        argv = [
            "sweep", "--machines", "paragon:4x4", "--dists", "E",
            "--s", "4", "--L", "256", "--algorithms", "Br_Lin,2-Step",
            "--seeds", "0", "--cache-dir", str(cache_dir),
        ]
        assert repro_main([*argv, "--observe"]) == 0
        out = capsys.readouterr().out
        assert "sweep grid: 2 point(s)" in out
        assert "(0 cached, 2 computed)" in out
        assert "observed points: 2" in out
        assert repro_main(argv) == 0
        assert "(2 cached, 0 computed)" in capsys.readouterr().out

        # A corrupt entry is quarantined, recomputed and reported.
        point = SweepSpec(
            machines=("paragon:4x4",), distributions=("E",), s_values=(4,),
            message_sizes=(256,), algorithms=("Br_Lin",), seeds=(0,),
        ).points()[0]
        ResultCache(cache_dir).path_for(point.key()).write_text("rot")
        assert repro_main(argv) == 0
        (line,) = [l for l in capsys.readouterr().out.splitlines()
                   if l.startswith("sweep: ")]
        assert "(1 cached, 1 computed)" in line
        assert line.endswith(" (reliability: quarantines=1)")

        verify = ["sweep", "--verify-cache", "--cache-dir", str(cache_dir)]
        assert repro_main(verify) == 0
        assert "2 verified" in capsys.readouterr().out


    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--jobs", "0"], "jobs must be >= 1, got 0"),
            (["--machines", "paragon:04x4"], "write 'paragon:4x4'"),
            (["--algorithms", "Nope"], "unknown algorithm 'Nope'"),
            (["--dists", "Q"], "unknown distribution 'Q'"),
            (["--s", "0"], "s must be in [1, 16], got 0"),
            (["--s", "abc"], "--s takes comma-separated integers, got 'abc'"),
            (["--L", "1.5"], "--L takes comma-separated integers, got '1.5'"),
            (["--seeds", "x"], "--seeds takes comma-separated integers, got 'x'"),
        ],
    )
    def test_bad_grid_exits_2_and_computes_nothing(
        self, capsys, tmp_path, flags, message
    ):
        from repro.sweep import ResultCache

        argv = [
            "sweep", "--machines", "paragon:4x4", "--s", "2", "--L", "256",
            "--cache-dir", str(tmp_path), *flags,
        ]
        assert repro_main(argv) == 2
        captured = capsys.readouterr()
        (error,) = captured.err.splitlines()
        assert error.startswith("error: ") and message in error
        assert "sweep: " not in captured.out
        assert len(ResultCache(tmp_path)) == 0


class TestReportCLI:
    """Console output of ``report`` (pages: tests/test_pipeline_report.py)."""

    def test_warm_rerun_serves_every_point_from_cache(self, capsys, tmp_path):
        argv = [
            "report", "--quick", "--cache-dir", str(tmp_path / "cache"),
            "--out", str(tmp_path / "html"), "fig7",
        ]
        assert repro_main(argv) == 0
        cold = capsys.readouterr().out
        assert "=== Figure 7" in cold and "[PASS]" in cold
        assert "sweep: " in cold and " 0 computed)" not in cold
        assert repro_main(argv) == 0
        warm = capsys.readouterr().out
        assert " 0 computed)" in warm

        def tables(out):
            return [l for l in out.splitlines() if not l.startswith("sweep: ")]

        # Same tables and verdicts whether computed or served from cache.
        assert tables(warm) == tables(cold)

    def test_quick_observe_prints_a_rollup_per_experiment(self, capsys, tmp_path):
        code = repro_main(
            [
                "report", "--quick", "--observe", "--no-cache",
                "--out", str(tmp_path), "fig2", "fig7",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "slowest phase" in out
        assert "hottest links:" in out
        rollups = [l for l in out.splitlines() if l.startswith("observed points:")]
        (progress,) = [l for l in out.splitlines() if l.startswith("sweep: ")]
        assert len(rollups) == 2
        computed = int(progress.split(", ")[1].split(" computed")[0])
        observed = [int(rollup.split(": ")[1]) for rollup in rollups]
        assert sum(observed) == computed

    def test_builder_without_grid_points_prints_no_progress(self, capsys, tmp_path):
        code = repro_main(
            ["report", "--quick", "--no-cache", "--out", str(tmp_path), "fig1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "=== Figure 1" in out
        assert "sweep: " not in out

    def test_docs_target_reports_executor_errors(self, capsys):
        code = repro_main(["report", "docs", "--jobs", "0"])
        assert code == 2
        assert "jobs must be >= 1" in capsys.readouterr().err
