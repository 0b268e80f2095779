"""HTML report rendering, docs generation, and the report CLI."""

from __future__ import annotations

import importlib.util
import json
import pathlib
import sys

import pytest

from repro.bench.types import Check, FigureResult, Series
from repro.pipeline.docsgen import (
    render_experiments_md,
    render_results_txt,
    summary_counts,
)
from repro.pipeline.loader import load_config_dir
from repro.pipeline.report import (
    render_experiment_html,
    render_index_html,
    render_series_svg,
    representative_point,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load_tool(name: str):
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "tools" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RESULT = FigureResult(
    figure="Demo figure",
    description="two curves & a <check>",
    series=[
        Series(
            title="demo <series>",
            x_label="s",
            x_values=[4, 8, 16],
            curves={"Br_Lin": [1.0, 2.0, 4.0], "2-Step": [3.0, 6.0, 12.0]},
        )
    ],
    checks=[
        Check("ordering holds", True, "1.0 < 3.0"),
        Check("a failing one", False),
    ],
    notes=["a note\nwith art"],
)


@pytest.fixture(scope="module")
def configs():
    return load_config_dir()


class TestSeriesSvg:
    def test_curves_and_markers(self):
        svg = render_series_svg(RESULT.series[0])
        assert svg.count("<polyline") == 2
        assert svg.count("<circle") == 6
        assert svg.count("<title>") == 6  # native tooltips, no JS

    def test_too_many_curves_falls_back_to_table(self):
        wide = Series(
            title="wide",
            x_label="x",
            x_values=[1, 2],
            curves={f"c{i}": [1.0, 2.0] for i in range(9)},
        )
        assert render_series_svg(wide) is None

    def test_log_scale_for_wide_positive_axes(self):
        sizes = Series(
            title="sizes",
            x_label="L",
            x_values=[32, 1024, 16384],
            curves={"a": [1.0, 2.0, 3.0]},
        )
        assert "(log scale)" in render_series_svg(sizes)

    def test_categorical_axis(self):
        cats = Series(
            title="dists",
            x_label="distribution",
            x_values=["R", "C", "Sq"],
            curves={"a": [1.0, 2.0, 3.0]},
        )
        svg = render_series_svg(cats)
        assert "Sq" in svg


class TestExperimentHtml:
    def test_page_is_self_contained(self, tmp_path):
        page = render_experiment_html(None, RESULT)
        assert "<script" not in page
        path = tmp_path / "demo.html"
        path.write_text(page, encoding="utf-8")
        checker = _load_tool("check_report_html")
        assert checker.audit_file(path) == []

    def test_escapes_markup_in_data(self):
        page = render_experiment_html(None, RESULT)
        assert "&lt;check&gt;" in page
        assert "&lt;series&gt;" in page

    def test_badges_reflect_check_outcomes(self):
        page = render_experiment_html(None, RESULT)
        assert "checks 1/2" in page
        assert "✓ PASS" in page and "✗ FAIL" in page

    def test_notes_and_tables_are_preserved(self):
        page = render_experiment_html(None, RESULT)
        assert "with art" in page
        assert RESULT.series[0].to_table().splitlines()[-1].strip() in page

    def test_figure_page_carries_the_link_heatmap(self, configs):
        page = render_experiment_html(configs["fig7"], RESULT)
        assert "<h2>Link utilization (representative point)</h2>" in page
        assert "(no traced transfers)" not in page

    def test_index_links_every_entry(self, tmp_path):
        page = render_index_html([(None, RESULT)])
        assert 'href="Demo figure.html"' in page
        path = tmp_path / "index.html"
        path.write_text(page, encoding="utf-8")
        checker = _load_tool("check_report_html")
        assert checker.audit_file(path) == []


class TestRepresentativePoint:
    def test_sweep_config(self, configs):
        point = representative_point(configs["fig3"])
        assert point["machine"] == "paragon:10x10"
        assert point["dist"] == "E"
        assert point["L"] == 4096
        assert point["algorithm"] in configs["fig3"].series[0].algorithms

    def test_fixed_total_config_derives_size(self, configs):
        point = representative_point(configs["fig7"])
        assert point["L"] * point["s"] <= 81920

    @pytest.mark.parametrize("experiment_id, expected", [
        # per-x machine and s: the middle of eight machine sizes
        ("fig5", ("paragon:10x10", "Dr", 10, 1024, "Br_Lin")),
        # s_values curves: the middle shape, the first curve's s
        ("fig8", ("paragon:10x12", "E", 8, 4096, "Br_Lin")),
        # a gain series is sampled with its variant
        ("fig9", ("paragon:16x16", "Cr", 100, 6144, "Repos_xy_source")),
        # distribution curves with per-x message sizes
        ("fig12", ("t3d:128", "E", 16, 8192, "MPI_AllGather")),
    ])
    def test_middle_x_of_the_full_grid_on_the_first_curve(
        self, configs, experiment_id, expected
    ):
        point = representative_point(configs[experiment_id])
        assert tuple(point.values()) == expected

    def test_builder_config_has_no_point(self, configs):
        assert representative_point(configs["fig1"]) is None

    def test_every_declarative_config_resolves(self, configs):
        for config in configs.values():
            if config.kind != "declarative":
                continue
            point = representative_point(config)
            if point is None:
                # Legitimate only for placement-driven series, which the
                # trace CLI cannot address (it names distributions).
                assert all(
                    series.placement is not None for series in config.series
                ), config.id
                continue
            assert point["s"] >= 1 and point["L"] >= 1


class TestHeatmapCache:
    """A page's link heatmap is kept beside its point in the result cache."""

    @pytest.mark.parametrize("experiment_id", ["fig7", "fig10"])
    def test_warm_page_simulates_nothing(self, experiment_id, tmp_path,
                                         monkeypatch, capsys):
        # fig10's heatmap point (L = 2048) is off its quick grid, so its
        # sibling is served with no result entry beside it.
        import repro.fastpath.evaluator as evaluator
        from repro.machines import Machine
        from repro.pipeline.cli import main

        cache = tmp_path / "cache"

        def render(out, *flags):
            assert main([experiment_id, "--quick", *flags,
                         "--out", str(tmp_path / out)]) == 0
            return (tmp_path / out / f"{experiment_id}.html").read_bytes()

        cold = render("cold", "--cache-dir", str(cache))
        assert len(list(cache.glob("??/*.heatmap.json"))) == 1
        uncached = render("uncached", "--no-cache")

        def forbidden(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("a warm render must not simulate")

        monkeypatch.setattr(evaluator, "replay_kernel", forbidden)
        monkeypatch.setattr(Machine, "run", forbidden)
        capsys.readouterr()
        warm = render("warm", "--cache-dir", str(cache))
        assert ", 0 computed)" in capsys.readouterr().out
        assert b"<h2>Link utilization (representative point)</h2>" in cold
        assert warm == cold
        assert uncached == cold

    def test_corrupt_sibling_is_recomputed(self, tmp_path, configs):
        from repro.pipeline.report import _link_heatmap
        from repro.sweep import ResultCache

        point = representative_point(configs["fig7"])
        cache = ResultCache(tmp_path)
        text = _link_heatmap(point, cache)
        (path,) = tmp_path.glob("??/*.heatmap.json")
        stored = path.read_text()
        path.write_text(stored[: len(stored) // 2])
        assert _link_heatmap(point, cache) == text
        assert (cache.quarantine_root / path.name).exists()
        assert path.read_text() == stored
        assert _link_heatmap(point, None) == text

    def test_page_render_quarantines_are_reported(self, tmp_path, capsys):
        """A heatmap sibling garbled before a warm render is counted."""
        from repro.pipeline.cli import main

        cache = tmp_path / "cache"
        argv = ["fig4", "--quick", "--cache-dir", str(cache),
                "--out", str(tmp_path / "html")]
        assert main(argv) == 0
        page = (tmp_path / "html" / "fig4.html").read_bytes()
        (path,) = cache.glob("??/*.heatmap.json")
        path.write_text("{ garbled")
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "sweep: 28 point(s) (28 cached, 0 computed)" in out
        (line,) = [l for l in out.splitlines() if l.startswith("wrote ")]
        assert line.endswith(" (reliability: quarantines=1)")
        assert (cache / "quarantine" / path.name).exists()
        assert (tmp_path / "html" / "fig4.html").read_bytes() == page
        # The recomputed sibling serves the next render without a word.
        assert main(argv) == 0
        assert "reliability" not in capsys.readouterr().out

    def test_code_change_recomputes_every_point(self, tmp_path, monkeypatch,
                                                capsys):
        from repro.pipeline.cli import main
        from repro.sweep import spec

        cache = tmp_path / "cache"
        argv = ["fig7", "--quick", "--cache-dir", str(cache),
                "--out", str(tmp_path / "html")]
        assert main(argv) == 0
        assert "(0 cached, 9 computed)" in capsys.readouterr().out
        assert main(argv) == 0
        assert "(9 cached, 0 computed)" in capsys.readouterr().out
        monkeypatch.setattr(spec, "code_fingerprint", lambda: "0" * 64)
        assert main(argv) == 0
        assert "(0 cached, 9 computed)" in capsys.readouterr().out
        # The heatmap is re-keyed too: a second sibling, not a stale hit.
        assert len(list(cache.glob("??/*.heatmap.json"))) == 2


class TestDocsGen:
    def test_summary_counts(self, configs):
        counts = summary_counts(list(configs.values()))
        assert counts["experiments"] == 25
        assert counts["checks"] == 74
        assert counts["partial"] == 3

    def test_experiments_md_structure(self, configs):
        text = render_experiments_md(list(configs.values()))
        assert text.startswith("# EXPERIMENTS")
        assert "do not hand-edit" in text
        assert "**25/25 experiments pass all 74 automated shape checks**" in text
        for config in configs.values():
            assert config.doc.section in text, config.id
        assert text.count("## Figure ") == 13
        assert "### Fault-spec grammar" in text

    def test_experiments_md_matches_committed_file(self, configs):
        committed = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        assert committed == render_experiments_md(list(configs.values()))

    def test_results_txt_rendering(self):
        text = render_results_txt([RESULT])
        assert text.startswith("=== Demo figure: two curves & a <check> ===")
        assert "shape checks FAILED for: Demo figure" in text
        passing = FigureResult("F", "d", checks=[Check("c", True)])
        text = render_results_txt([passing, passing])
        assert text.rstrip().endswith("all shape checks passed (2 experiment(s))")
        assert "(ran in" not in text

    def test_check_experiments_tool_passes_on_committed_docs(self):
        checker = _load_tool("check_experiments")
        assert checker.main([str(REPO_ROOT)]) == 0


class TestReportCli:
    def test_list_target(self, capsys):
        from repro.pipeline.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out and "robustness" in out

    def test_unknown_id_is_a_usage_error(self, capsys):
        from repro.pipeline.cli import main

        assert main(["fig99"]) == 2
        assert "fig99" in capsys.readouterr().err

    def test_repeated_ids_run_once(self, tmp_path, capsys):
        from repro.pipeline.cli import main

        out_dir = tmp_path / "html"
        code = main(["fig1", "fig1", "--quick", "--no-cache",
                     "--out", str(out_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "wrote 1 report page(s)" in out
        assert "all shape checks passed (1 experiment(s))" in out
        index = (out_dir / "index.html").read_text(encoding="utf-8")
        assert index.count('href="fig1.html"') == 1

    @pytest.mark.parametrize("argv, meta", [
        (["all", "fig5"], "all"),
        (["fig5", "all"], "all"),
        (["list", "fig5"], "list"),
        (["docs", "all"], "docs"),
    ])
    def test_meta_target_with_other_targets_is_a_usage_error(self, argv,
                                                              meta, capsys):
        from repro.pipeline.cli import main

        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"meta-target {meta!r}" in err
        assert "unknown experiment" not in err

    def test_quick_run_emits_self_contained_pages(self, tmp_path, capsys):
        from repro.pipeline.cli import main

        out_dir = tmp_path / "html"
        code = main(["fig1", "--quick", "--no-cache", "--out", str(out_dir)])
        assert code == 0
        pages = sorted(p.name for p in out_dir.glob("*.html"))
        assert pages == ["fig1.html", "index.html"]
        checker = _load_tool("check_report_html")
        for page in out_dir.glob("*.html"):
            assert checker.audit_file(page) == []

    def test_one_executor_call_holds_every_experiment(self, tmp_path,
                                                      monkeypatch, configs):
        from repro.pipeline.cli import main
        from repro.pipeline.runner import experiment_points
        from repro.sweep import SweepExecutor

        calls = []
        real = SweepExecutor.run

        def spy(self, points):
            calls.append(list(points))
            return real(self, points)

        monkeypatch.setattr(SweepExecutor, "run", spy)
        ids = ["fig7", "ablation-mapping"]
        assert main([*ids, "--quick", "--no-cache",
                     "--out", str(tmp_path)]) == 0
        expected = [point for experiment_id in ids
                    for point in experiment_points(configs[experiment_id],
                                                   quick=True)]
        assert calls == [expected]

    def test_builders_honour_engine_and_observe(self, tmp_path, monkeypatch,
                                                capsys, configs):
        """``--engine`` and ``--observe`` reach builder experiments in
        the one executor batch and each experiment rolls up its own
        points; the cache the run fills serves a later run without
        simulating."""
        import repro.fastpath
        import repro.sweep.executor as executor_module
        from repro.machines import Machine
        from repro.pipeline.cli import main
        from repro.pipeline.runner import experiment_points
        from repro.sweep import ResultCache, SweepExecutor

        ids = ["fig4", "ablation-mapping"]
        points = [point for experiment_id in ids
                  for point in experiment_points(configs[experiment_id],
                                                 quick=True)]
        evaluated = []
        real = executor_module.evaluate_point_batch

        def spy(payloads, engine="auto", observe=False):
            evaluated.extend((json.dumps(payload, sort_keys=True), engine,
                              observe) for payload in payloads)
            return real(payloads, engine, observe)

        monkeypatch.setattr(executor_module, "evaluate_point_batch", spy)
        cache = tmp_path / "cache"
        observed, serial = tmp_path / "observed", tmp_path / "serial"
        code = main([*ids, "--quick", "--engine", "event", "--observe",
                     "--cache-dir", str(cache), "--out", str(observed)])
        out = capsys.readouterr().out
        assert code == 0
        assert {payload for payload, _, _ in evaluated} == {
            json.dumps(point.payload(), sort_keys=True) for point in points
        }
        assert {(engine, observe) for _, engine, observe in evaluated} == {
            ("event", True)
        }
        rollups = [l for l in out.splitlines()
                   if l.startswith("observed points:")]
        assert len(rollups) == len(ids)
        assert main([*ids, "--quick", "--no-cache",
                     "--out", str(serial)]) == 0
        for experiment_id in ids:
            page = f"{experiment_id}.html"
            assert ((observed / page).read_bytes()
                    == (serial / page).read_bytes())

        def forbidden(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("a warm render must not simulate")

        monkeypatch.setattr(repro.fastpath, "evaluate_problem", forbidden)
        monkeypatch.setattr(Machine, "run", forbidden)
        warm = SweepExecutor(cache=ResultCache(cache))
        warm.run(points)
        assert warm.last_report.computed == 0

    def test_docs_check_skip_results_matches_committed(self, capsys):
        from repro.pipeline.cli import main

        assert main(["docs", "--check", "--skip-results"]) == 0
        assert "matches regenerated" in capsys.readouterr().out


class TestReportLoadsNamedConfigs:
    """``report <id>`` parses only the named files; meta-targets parse all."""

    @pytest.fixture()
    def parsed(self, monkeypatch):
        """Paths handed to ``load_config_text``, in call order."""
        import repro.pipeline.loader as loader

        paths = []
        real = loader.load_config_text

        def spy(text, path="<config>"):
            paths.append(pathlib.Path(path).name)
            return real(text, path=path)

        monkeypatch.setattr(loader, "load_config_text", spy)
        return paths

    def test_named_ids_parse_only_their_files(self, parsed, monkeypatch,
                                               tmp_path):
        import repro.pipeline.cli as cli

        ran = []

        def run_all(configs, args, executor):
            ran.extend(config.id for config in configs)
            return []

        monkeypatch.setattr(cli, "_run_all", run_all)
        assert cli.main(["fig7", "fig3", "--out", str(tmp_path)]) == 0
        assert parsed == ["07-fig7.toml", "03-fig3.toml"]
        assert ran == ["fig7", "fig3"]

    def test_unknown_id_parses_no_file(self, parsed, configs, capsys):
        from repro.pipeline.cli import main

        assert main(["fig3", "fig99"]) == 2
        assert parsed == []
        err = capsys.readouterr().err
        assert "unknown experiment(s): fig99" in err
        assert f"known: {', '.join(configs)}" in err
        assert len(configs) == 25

    def test_list_parses_every_file(self, parsed, capsys):
        from repro.pipeline.cli import main

        assert main(["list"]) == 0
        assert len(parsed) == 25
