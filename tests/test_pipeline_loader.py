"""Config loading: strictness, error naming, and round-trip stability."""

from __future__ import annotations

import ast
import tomllib

import pytest

from repro.errors import ConfigurationError
from repro.pipeline import checks, loader
from repro.pipeline.checks import ALLOWED_NAMES
from repro.pipeline.loader import (
    DEFAULT_CONFIG_DIR,
    load_config,
    load_config_dir,
    load_config_text,
)
from repro.pipeline.runner import experiment_points
from repro.pipeline.schema import CELL_AXES

MINIMAL = """
[experiment]
id = "demo"
title = "Demo"
description = "a two-point sweep"

[[series]]
title = "demo sweep"
x_label = "s"
x_values = {{ full = [4, 8], quick = [4] }}
cell_axis = "s"
machine = "paragon:4x4"
distribution = "E"
algorithms = ["Br_Lin"]
message_size = 256
{extra}
"""


def _minimal(extra: str = "") -> str:
    return MINIMAL.format(extra=extra)


#: A check table for ``_minimal(extra=CHECK)``; the old-spelling test
#: adds its ``expr``.
CHECK = '\n[[checks]]\ndescription = "d"\n'
#: A builder config: its series, checks and notes come from the function.
BUILDER = """
[experiment]
id = "demo"
title = "Demo"
description = "builder"
builder = "repro.bench.figures:fig01"
"""
#: The line of ``_minimal(CHECK)`` after which a table's keys go.
ANCHORS = {
    "experiment": 'description = "a two-point sweep"',
    "series#0": 'x_label = "s"',
    "checks#0": 'description = "d"',
}


class TestErrorNaming:
    """Rejections at load time name the offending file and key."""

    def test_unknown_experiment_key_names_key_and_file(self):
        text = _minimal().replace(
            'title = "Demo"', 'title = "Demo"\nfrobnicate = 1'
        )
        with pytest.raises(ConfigurationError) as err:
            load_config_text(text, path="configs/xx-demo.toml")
        assert "'frobnicate'" in str(err.value)
        assert "configs/xx-demo.toml" in str(err.value)

    def test_missing_required_key_is_named(self):
        text = _minimal().replace('x_label = "s"\n', "")
        with pytest.raises(ConfigurationError) as err:
            load_config_text(text)
        assert "'x_label'" in str(err.value)

    @pytest.mark.parametrize("table, spelling, named", [
        # A series has one form: a kind, or a kind's own key, is rejected;
        # so is the contention switch no config set.
        ("series#0", 'kind = "sweep"', None),
        ("series#0", 'kind = "cells"', None),
        ("series#0", "total_bytes = 4096", None),
        ("series#0", 'axis = "s"', None),
        ("series#0", 'machines = ["paragon:4x4"]', None),
        ("series#0", "cells = [{ s = 4 }]", None),
        ("series#0", "contention = false", None),
        # An experiment's kind is whether it names a builder.
        ("experiment", 'kind = "declarative"', None),
        ("experiment", 'kind = "builder"', None),
        # A check has one form, an expression: no type, no ratio_range.
        ("checks#0", 'type = "expr"', None),
        ("checks#0", 'type = "ratio_range"', None),
        ("checks#0", 'curve = "Br_Lin"', None),
        ("checks#0", "x_num = 8", None),
        ("checks#0", "x_den = 4", None),
        ("checks#0", "lo = 1.5", None),
        ("checks#0", "hi = 2.5", None),
        # ``series = N`` picks the series; no cross-series helpers.
        ("checks#0", "expr = \"v(0, 'Br_Lin', 4) > 0\"", "unknown name 'v'"),
        ("checks#0", "expr = \"curve_of(0, 'Br_Lin') != []\"",
         "unknown name 'curve_of'"),
        ("checks#0", 'expr = "xs_of(0) != []"', "unknown name 'xs_of'"),
    ])
    def test_old_spellings_are_rejected(self, table, spelling, named):
        """An old spelling fails at load, naming the file and the table."""
        key = spelling.split(" = ")[0]
        anchor = ANCHORS[table]
        text = _minimal(CHECK).replace(anchor, f"{anchor}\n{spelling}")
        if key != "expr":
            text += 'expr = "True"\n'
        with pytest.raises(ConfigurationError) as err:
            load_config_text(text, path="configs/xx-demo.toml")
        message = str(err.value)
        assert (named or f"unknown key(s) {key!r}") in message
        assert f"configs/xx-demo.toml: [{table}]" in message

    @pytest.mark.parametrize("old, new, named", [
        # s set twice: by its own key and by the x axis.
        ('message_size = 256', 'message_size = 256\ns = 4', "s, cell_axis = 's'"),
        # no message size at all.
        ('message_size = 256', '', "message_size"),
        # the distribution set by a key and by the curve axis.
        ('algorithms = ["Br_Lin"]',
         'algorithm = "Br_Lin"\ndistributions = ["E", "R"]',
         "distribution, distributions"),
    ])
    def test_each_cell_field_is_set_exactly_once(self, old, new, named):
        with pytest.raises(ConfigurationError) as err:
            load_config_text(_minimal().replace(old, new))
        assert "needs exactly one of" in str(err.value)
        assert named in str(err.value)

    @pytest.mark.parametrize("old, new, message", [
        ('algorithms = ["Br_Lin"]', 'algorithm = "Br_Lin"',
         "exactly one curve axis"),
        ('algorithms = ["Br_Lin"]',
         'algorithms = ["Br_Lin"]\nalgorithm = "Br_Lin"',
         "measure with exactly one of"),
        ('distribution = "E"\nalgorithms = ["Br_Lin"]',
         'baseline = "Br_Lin"\ndistributions = ["E"]',
         "measure with exactly one of"),
    ])
    def test_one_curve_axis_and_one_measurement(self, old, new, message):
        with pytest.raises(ConfigurationError) as err:
            load_config_text(_minimal().replace(old, new))
        assert message in str(err.value)

    def test_cell_axis_values_are_checked(self):
        text = (
            _minimal()
            .replace("x_values = { full = [4, 8], quick = [4] }",
                     'x_values = ["E", "Zed"]\ns = 4')
            .replace('cell_axis = "s"', 'cell_axis = "dist"')
            .replace('distribution = "E"\n', "")
        )
        with pytest.raises(ConfigurationError) as err:
            load_config_text(text)
        assert "[series#0].x_values: unknown distribution 'Zed'" in str(err.value)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigurationError) as err:
            load_config_text(
                _minimal().replace('algorithms = ["Br_Lin"]',
                                   'algorithms = ["Br_Quantum"]')
            )
        assert "Br_Quantum" in str(err.value)

    def test_unknown_distribution_rejected(self):
        with pytest.raises(ConfigurationError) as err:
            load_config_text(
                _minimal().replace('distribution = "E"', 'distribution = "Z"')
            )
        assert "'Z'" in str(err.value)

    def test_malformed_machine_spec_rejected(self):
        with pytest.raises(ConfigurationError) as err:
            load_config_text(
                _minimal().replace('machine = "paragon:4x4"',
                                   'machine = "cray:banana"')
            )
        assert "cray:banana" in str(err.value)

    def test_machine_specs_follow_machine_from_spec(self):
        config = load_config_text(
            _minimal().replace('machine = "paragon:4x4"',
                               'machine = "t3d:16+mapping=identity"')
        )
        machines = {point.machine for point in experiment_points(config)}
        assert machines == {"t3d:16+mapping=identity"}
        with pytest.raises(ConfigurationError) as err:
            load_config_text(
                _minimal().replace('machine = "paragon:4x4"',
                                   'machine = "paragon:04x4"'),
                path="configs/xx-demo.toml",
            )
        assert "'paragon:4x4'" in str(err.value)
        assert "configs/xx-demo.toml" in str(err.value)

    def test_check_expression_compiled_at_load(self):
        """Disallowed syntax in an expr fails at load, not mid-run."""
        text = _minimal(
            extra="""
[[checks]]
description = "attribute escape"
expr = "().__class__"
"""
        )
        with pytest.raises(ConfigurationError) as err:
            load_config_text(text)
        assert "expr" in str(err.value)

    def test_check_series_index_out_of_range(self):
        text = _minimal(
            extra="""
[[checks]]
description = "wrong series"
series = 3
expr = "at('Br_Lin', 4) > 0"
"""
        )
        with pytest.raises(ConfigurationError) as err:
            load_config_text(text)
        assert "series" in str(err.value)

    @pytest.mark.parametrize("before, after, table", [
        ("", '\n[[series]]\ntitle = "t"\n', "[series]"),
        ("", '\n[[checks]]\ndescription = "d"\n', "[checks]"),
        ('notes = ["a note"]\n', "", "notes"),
    ])
    def test_builder_config_rejects_declarative_parts(self, before, after,
                                                      table):
        """A builder's series, checks and notes come from its function."""
        with pytest.raises(ConfigurationError) as err:
            load_config_text(before + BUILDER + after,
                             path="configs/xx-demo.toml")
        assert f"configs/xx-demo.toml: {table}" in str(err.value)
        assert "builder" in str(err.value)

    @pytest.mark.parametrize("base", ["declarative", "builder"])
    @pytest.mark.parametrize("table, key, line", [
        ("[experiment]", "expected_checks", "expected_checks = 3"),
        ("[doc]", "verdict", 'verdict = "partial"'),
    ])
    def test_hand_set_verdicts_and_check_counts_are_gone(self, base, table,
                                                         key, line):
        """The results compute both; a config that still sets one fails
        to load, naming the file and the key."""
        text = _minimal() if base == "declarative" else BUILDER
        if table == "[experiment]":
            text = text.replace('description = "', f'{line}\ndescription = "', 1)
        else:
            text += f'\n[doc]\nsection = "s"\n{line}\n'
        with pytest.raises(ConfigurationError) as err:
            load_config_text(text, path="configs/xx-demo.toml")
        assert f"configs/xx-demo.toml: {table}: unknown key(s) '{key}'" in str(
            err.value
        )

    def test_doc_expressions_compile_only_when_the_docs_render(self):
        """Loading never compiles a placeholder or the deviation."""
        from repro.pipeline.docsgen import compile_doc

        doc = (
            '\n[doc]\nsection = "s"\nbody = "took {nope(1):.2f} ms"\n'
            'deviation = "curve(\'Br_Lin\')[0] > 0"\n'
        )
        config = load_config_text(_minimal(doc), path="configs/xx-demo.toml")
        assert config.doc.deviation == "curve('Br_Lin')[0] > 0"
        with pytest.raises(ConfigurationError) as err:
            compile_doc(config)
        assert "configs/xx-demo.toml: [doc].body {nope(1):.2f}" in str(err.value)
        assert "unknown name 'nope'" in str(err.value)

    def test_unimportable_builder_rejected(self):
        with pytest.raises(ConfigurationError) as err:
            load_config_text(BUILDER.replace("fig01", "no_such_figure"))
        assert "no_such_figure" in str(err.value)

    def test_per_x_list_length_mismatch_rejected(self):
        text = _minimal().replace(
            "message_size = 256",
            "message_size = [256, 512]",
        )
        with pytest.raises(ConfigurationError):
            load_config_text(text)

    def test_duplicate_ids_rejected(self, tmp_path):
        (tmp_path / "01-demo.toml").write_text(_minimal(), encoding="utf-8")
        (tmp_path / "02-demo.toml").write_text(_minimal(), encoding="utf-8")
        with pytest.raises(ConfigurationError) as err:
            load_config_dir(tmp_path)
        assert "duplicate" in str(err.value)
        assert "02-demo.toml" in str(err.value)

    def test_duplicate_ids_rejected_by_id(self, tmp_path, capsys):
        """``report <id>`` rejects the duplicate too."""
        from repro.pipeline.cli import main

        (tmp_path / "01-demo.toml").write_text(_minimal(), encoding="utf-8")
        (tmp_path / "02-demo.toml").write_text(_minimal(), encoding="utf-8")
        code = main(["demo", "--configs", str(tmp_path), "--no-cache",
                     "--out", str(tmp_path / "html")])
        assert code == 2
        err = capsys.readouterr().err
        assert "duplicate" in err and "02-demo.toml" in err
        assert not (tmp_path / "html").exists()

    def test_file_name_must_carry_the_declared_id(self, tmp_path, capsys):
        """Both the full-directory and the by-id load enforce NN-<id>.toml."""
        from repro.pipeline.cli import main

        (tmp_path / "01-wrong.toml").write_text(_minimal(), encoding="utf-8")
        with pytest.raises(ConfigurationError) as err:
            load_config_dir(tmp_path)
        assert main(["wrong", "--configs", str(tmp_path)]) == 2
        for message in (str(err.value), capsys.readouterr().err):
            assert "01-wrong.toml" in message
            assert "'demo'" in message and "'wrong'" in message

    def test_file_name_without_number_rejected(self, tmp_path):
        (tmp_path / "demo.toml").write_text(_minimal(), encoding="utf-8")
        with pytest.raises(ConfigurationError) as err:
            load_config_dir(tmp_path)
        assert "demo.toml" in str(err.value)
        assert "NN-<id>.toml" in str(err.value)

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_config_dir(tmp_path / "nope")


class TestRoundTrip:
    """TOML → sweep point expansion is bit-stable across loads."""

    def test_text_round_trip_is_stable(self):
        first = load_config_text(_minimal())
        second = load_config_text(_minimal())
        assert first == second
        assert experiment_points(first) == experiment_points(second)
        assert experiment_points(first, quick=True) == experiment_points(
            second, quick=True
        )

    def test_file_round_trip_matches_committed_configs(self):
        """Re-reading every committed config is a fixed point."""
        for config in load_config_dir().values():
            assert load_config(config.path) == config

    def test_experiment_points_are_deterministic(self):
        config = load_config_text(_minimal())
        keys_a = [point.key() for point in experiment_points(config)]
        keys_b = [point.key() for point in experiment_points(config)]
        assert keys_a == keys_b
        assert len(keys_a) == 2

    def test_quick_axis_falls_back_to_full(self):
        def s_values(quick):
            points = experiment_points(config, quick=quick)
            return [len(point.sources) for point in points]

        config = load_config_text(_minimal())
        assert s_values(quick=True) == [4]
        assert s_values(quick=False) == [4, 8]


class TestCommittedConfigs:
    """The shipped configs/ directory is complete and well-formed."""

    def test_counts_match_the_experiments_summary(self):
        """25 experiments whose recorded results hold 74 checks; a
        declarative config's checks are its ``[[checks]]``."""
        import json

        golden = json.loads(
            (DEFAULT_CONFIG_DIR.parent / "tests" / "golden"
             / "experiments_quick.json").read_text()
        )
        configs = list(load_config_dir().values())
        assert len(configs) == 25
        assert sum(golden[c.id]["checks"] for c in configs) == 74
        for config in configs:
            if config.kind == "declarative":
                assert len(config.checks) == golden[config.id]["checks"]
        kinds = [c.kind for c in configs]
        assert (kinds.count("builder"), kinds.count("declarative")) == (12, 13)

    def test_every_config_has_doc_block(self):
        configs = load_config_dir()
        for config in configs.values():
            assert config.doc is not None, config.id
        assert [c.id for c in configs.values() if c.doc.deviation] == [
            "fig6", "fig8", "fig11",
        ]

    def test_groups_cover_the_paper(self):
        configs = list(load_config_dir().values())
        by_group = {}
        for config in configs:
            by_group.setdefault(config.group, []).append(config.id)
        assert len(by_group["figures"]) == 13
        assert len(by_group["text"]) == 3
        assert len(by_group["ablations"]) == 5
        assert len(by_group["extensions"]) == 3
        assert len(by_group["robustness"]) == 1

    def test_every_accepted_spelling_is_used(self):
        """The config language holds only what the committed configs use:
        each key the loader accepts, each ``cell_axis`` and ``placement``
        value and each check helper appears in at least one config."""
        used = {table: set() for table in ("top", "experiment", "series",
                                           "checks", "doc")}
        values = {"cell_axis": set(), "placement": set()}
        names = set()
        for path in sorted(DEFAULT_CONFIG_DIR.glob("*.toml")):
            data = tomllib.loads(path.read_text(encoding="utf-8"))
            used["top"] |= set(data)
            used["experiment"] |= set(data["experiment"])
            used["doc"] |= set(data.get("doc", {}))
            for series in data.get("series", []):
                used["series"] |= set(series)
                for key in values:
                    if key in series:
                        values[key].add(series[key])
            for check in data.get("checks", []):
                used["checks"] |= set(check)
                for key in ("expr", "detail"):
                    if key in check:
                        tree = ast.parse(check[key])
                        names |= {
                            node.id for node in ast.walk(tree)
                            if isinstance(node, ast.Name)
                        } - checks._bound_names(tree)
        accepted = {
            "top": loader._TOP_KEYS, "experiment": loader._EXPERIMENT_KEYS,
            "series": loader._SERIES_TABLE_KEYS, "checks": loader._CHECK_KEYS,
            "doc": loader._DOC_KEYS, "cell_axis": tuple(CELL_AXES),
            "placement": loader._PLACEMENTS,
            "helpers": tuple(ALLOWED_NAMES - set(checks._BUILTINS)),
        }
        used.update(values, helpers=names)
        unused = {
            table: sorted(set(keys) - used[table])
            for table, keys in accepted.items() if set(keys) - used[table]
        }
        assert unused == {}

    def test_default_config_dir_is_the_repo_configs(self):
        assert DEFAULT_CONFIG_DIR.name == "configs"
        assert (DEFAULT_CONFIG_DIR / "03-fig3.toml").is_file()
