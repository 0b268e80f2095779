"""HTML report rendering, docs generation, and the report CLI."""

from __future__ import annotations

import importlib.util
import json
import pathlib
import sys

import pytest

from repro.bench.types import Check, FigureResult, Series
from repro.errors import ConfigurationError
from repro.pipeline.docsgen import (
    compile_doc,
    render_doc,
    render_experiments_md,
    render_results_txt,
    verdict,
)
from repro.pipeline.loader import load_config_dir, load_config_text
from repro.pipeline.runner import run_experiment
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


class TestWarmPageWork:
    """A warm ``report <id>`` does each piece of work once."""

    @pytest.mark.parametrize("experiment_id", ["fig7", "fig8"])
    def test_each_expression_compiles_once(self, experiment_id, tmp_path,
                                            monkeypatch, configs):
        """Every check ``expr`` and ``detail`` compiles once, when the
        config loads; the index's verdict compiles the deviation."""
        import tomllib

        import repro.pipeline.checks as checks
        import repro.pipeline.docsgen as docsgen
        import repro.pipeline.loader as loader
        from repro.pipeline.cli import main

        argv = [experiment_id, "--quick", "--cache-dir", str(tmp_path / "c"),
                "--out", str(tmp_path / "html")]
        assert main(argv) == 0
        compiled = []
        real = checks.compile_expr

        def spy(expr, *, context="expression"):
            compiled.append(expr)
            return real(expr, context=context)

        for module in (checks, docsgen, loader):
            monkeypatch.setattr(module, "compile_expr", spy)
        assert main(argv) == 0
        data = tomllib.loads(pathlib.Path(
            configs[experiment_id].path).read_text(encoding="utf-8"))
        expected = [check[key] for check in data["checks"]
                    for key in ("expr", "detail") if key in check]
        if "deviation" in data["doc"]:
            expected.append(data["doc"]["deviation"])
        assert sorted(compiled) == sorted(expected)
        assert len(expected) > 3


def _fig6_result(br_lin_on_sq: float) -> FigureResult:
    """A Figure-6-shaped result with Br_Lin's time on Sq set."""
    xs = ["R", "C", "Dr", "Dl", "E", "B", "Sq", "Cr"]
    curves = {"Br_Lin": [2.5] * 8, "Br_xy_source": [2.3] * 8,
              "Br_xy_dim": [2.4] * 8}
    curves["Br_Lin"][xs.index("Sq")] = br_lin_on_sq
    return FigureResult("Figure 6", "d", series=[
        Series("t", "distribution", xs, curves)
    ])


def _demo(exp_id: str, group: str, doc: str) -> object:
    """A one-series config of ``group`` with the given ``[doc]`` keys."""
    return load_config_text(f"""
[experiment]
id = "{exp_id}"
title = "{exp_id}"
description = "d"
group = "{group}"

[doc]
{doc}

[[series]]
title = "t"
x_label = "s"
x_values = [4, 8]
cell_axis = "s"
machine = "paragon:4x4"
distribution = "E"
message_size = 256
algorithms = ["Br_Lin"]
""", path=f"configs/{exp_id}.toml")


class TestDocsGen:
    def test_summary_counts_the_results(self):
        """Pass and check counts come from the results, the partial
        count from the deviations that hold on them."""
        figure = _demo("a", "figures", 'section = "A"\nbody = "x"\n'
                       "deviation = \"at('Br_Lin', 8) > 1\"")
        ablation = _demo("b", "ablations",
                         'section = "B"\nremoved = "r"\neffect = "e"')
        series = [Series("t", "s", [4, 8], {"Br_Lin": [1.0, 2.0]})]

        def result(*passed):
            checks = [Check(f"c{i}", ok) for i, ok in enumerate(passed)]
            return FigureResult("F", "d", series=series, checks=checks)

        text = render_experiments_md(
            [(figure, result(True)), (ablation, result(True, True))]
        )
        assert "**2/2 experiments pass all 3 automated shape checks**" in text
        assert "(1 figures, 0 §5 text claims, 1 ablations," in text
        assert "1 experiments carry\ndocumented secondary deviations." in text
        text = render_experiments_md(
            [(figure, result(False)), (ablation, result(True, True))]
        )
        assert ("**1/2 experiments pass all their shape checks; 2 of 3 "
                "automated shape checks pass**") in text

    def test_experiments_md_structure(self):
        figure = _demo("a", "figures", 'section = "A head"\n'
                       "body = \"took {at('Br_Lin', 8):.1f} ms\"")
        robustness = _demo("r", "robustness",
                           'section = "R head"\nbody = "faults"')
        result = FigureResult("F", "d", series=[
            Series("t", "s", [4, 8], {"Br_Lin": [1.0, 2.25]})
        ])
        text = render_experiments_md([(figure, result), (robustness, result)])
        assert text.startswith("# EXPERIMENTS")
        assert "do not hand-edit" in text
        assert "## A head\n\ntook 2.2 ms\n**Verdict: reproduced.**" in text
        assert "## R head\n\nfaults\n\n### Fault-spec grammar" in text
        for stale in ("bench_output.txt", "75 s", "Known deviations",
                      "All ablation shape checks pass", "pre-faults"):
            assert stale not in text

    @pytest.mark.parametrize("experiment_id", ["fig6", "ablation-ideal-rows"])
    def test_doc_renders_its_committed_text_from_the_full_grid(
        self, configs, experiment_id
    ):
        """A declarative section and a builder's table row, with every
        number and the verdict computed from the full-grid results."""
        config = configs[experiment_id]
        text = render_doc(config, run_experiment(config))
        committed = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        assert f"\n{text}\n" in committed

    def test_every_placeholder_and_deviation_compiles(self, configs):
        """Loading compiles neither, so this is where a typo shows."""
        assert len(configs) == 25
        for config in configs.values():
            compile_doc(config)

    @pytest.mark.parametrize("bad, message", [
        ("{at('Br_Lin', 8) +:.1f}", "syntax error"),
        ("{x.y:.1f}", "disallowed construct"),
        ("{curve('Br_Lin')}", "is neither {expr:fmt}"),
        ("a lone { brace", "is neither {expr:fmt}"),
    ])
    def test_malformed_placeholders_name_file_and_field(self, bad, message):
        config = _demo("a", "figures", f'section = "A"\nbody = "{bad}"')
        with pytest.raises(ConfigurationError) as err:
            compile_doc(config)
        assert "configs/a.toml: [doc].body" in str(err.value)
        assert message in str(err.value)

    def test_every_deviation_evaluates_on_its_quick_grid(self, configs):
        """``report --quick`` puts each verdict on the index."""
        deviating = [c for c in configs.values() if c.doc.deviation]
        assert [c.id for c in deviating] == ["fig6", "fig8", "fig11"]
        for config in deviating:
            result = run_experiment(config, quick=True)
            assert verdict(config, result) == "partial", config.id

    def test_results_txt_rendering(self):
        text = render_results_txt([RESULT])
        assert text.startswith("=== Demo figure: two curves & a <check> ===")
        assert "shape checks FAILED for: Demo figure" in text
        passing = FigureResult("F", "d", checks=[Check("c", True)])
        text = render_results_txt([passing, passing])
        assert text.rstrip().endswith("all shape checks passed (2 experiment(s))")
        assert "(ran in" not in text


class TestVerdicts:
    """The verdict is computed from the deviation, wherever it shows."""

    def test_index_follows_the_deviation(self, configs):
        fig6 = configs["fig6"]
        held = render_index_html([(fig6, _fig6_result(2.75))])
        mended = render_index_html([(fig6, _fig6_result(2.0))])
        assert "<td>partial</td>" in held
        assert "<td>reproduced</td>" in mended
        assert "partial" not in mended

    def test_pages_do_not_show_the_verdict(self, configs):
        """An experiment page is the same whatever its deviation says."""
        import dataclasses

        fig6 = configs["fig6"]
        plain = dataclasses.replace(
            fig6, doc=dataclasses.replace(fig6.doc, deviation=None)
        )
        for result in (_fig6_result(2.75), _fig6_result(2.0)):
            page = render_experiment_html(fig6, result)
            assert page == render_experiment_html(plain, result)
            assert "partial" not in page and "reproduced" not in page


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

    @pytest.mark.parametrize("target", ["fig6", "all", "list"])
    @pytest.mark.parametrize("flag", ["--check"])
    def test_docs_flag_with_another_target_is_a_usage_error(
        self, flag, target, capsys, monkeypatch
    ):
        from repro.pipeline import cli

        def no_config(*args, **kwargs):
            raise AssertionError("a config was loaded")

        monkeypatch.setattr(cli, "load_config_dir", no_config)
        assert cli.main([target, flag, "--quick", "--no-cache"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {flag} applies only to the docs target (got: {target})\n"
        )

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

    def test_docs_render_from_the_full_grid_only(self, capsys, monkeypatch):
        from repro.pipeline import cli

        def no_config(*args, **kwargs):
            raise AssertionError("a config was loaded")

        monkeypatch.setattr(cli, "load_config_dir", no_config)
        assert cli.main(["docs", "--quick", "--no-cache"]) == 2
        assert "drop --quick" in capsys.readouterr().err

    def test_docs_compile_every_placeholder_before_any_point(
        self, tmp_path, capsys, monkeypatch
    ):
        """A typo'd placeholder stops ``report docs`` before the sweep."""
        from repro.pipeline import cli
        from repro.sweep import SweepExecutor

        def no_sweep(self, points):
            raise AssertionError("a point was evaluated")

        monkeypatch.setattr(SweepExecutor, "run", no_sweep)
        configs = tmp_path / "configs"
        configs.mkdir()
        text = (REPO_ROOT / "configs" / "06-fig6.toml").read_text()
        (configs / "06-fig6.toml").write_text(
            text.replace("{at('Br_Lin', 'Sq'):.2f}", "{att('Br_Lin', 'Sq'):.2f}")
        )
        assert cli.main(["docs", "--check", "--configs", str(configs)]) == 2
        err = capsys.readouterr().err
        assert "06-fig6.toml: [doc].body {att('Br_Lin', 'Sq'):.2f}" in err
        assert "unknown name 'att'" in err

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
