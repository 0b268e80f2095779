"""TOML experiment configs → validated :class:`ExperimentConfig`.

The loader is strict by design: unknown table keys, malformed axes, a
cell field set twice or not at all, mismatched per-x list lengths,
unregistered algorithms/distributions, check expressions outside the
restricted language and malformed machine specs are all rejected **at
load time**, with an error message naming the offending file and key —
a config never fails halfway through a sweep.  Each check's ``expr``
and ``detail`` are kept as the code that validation compiled, so a
loaded config evaluates its checks without compiling them again.  The
``[doc]`` prose's placeholders and ``deviation`` are the exception:
they compile where they are evaluated (the docs, the report index's
verdict), so loading pays nothing for them.  A config is a builder
config exactly when ``[experiment]`` names a ``builder``.

Doctest — a config expands into the sweep points ``report`` evaluates::

    >>> config = load_config_text('''
    ... [experiment]
    ... id = "demo"
    ... title = "Demo"
    ... description = "a two-point sweep"
    ...
    ... [[series]]
    ... title = "demo sweep"
    ... x_label = "s"
    ... x_values = { full = [4, 8], quick = [4] }
    ... cell_axis = "s"
    ... machine = "paragon:4x4"
    ... distribution = "E"
    ... message_size = 256
    ... algorithms = ["Br_Lin"]
    ...
    ... [[checks]]
    ... description = "time grows with s"
    ... expr = "curve('Br_Lin')[-1] > curve('Br_Lin')[0]"
    ... ''')
    >>> from repro.pipeline.runner import experiment_points
    >>> [(p.machine, len(p.sources), p.algorithm) for p in experiment_points(config)]
    [('paragon:4x4', 4, 'Br_Lin'), ('paragon:4x4', 8, 'Br_Lin')]
    >>> len(experiment_points(config, quick=True))
    1
"""

from __future__ import annotations

import importlib
import pathlib
import tomllib
from typing import Any, Dict, List, Optional, Sequence

from repro.core.algorithms import ALGORITHMS
from repro.distributions import DISTRIBUTIONS
from repro.errors import ConfigurationError
from repro.machines import machine_from_spec
from repro.pipeline.checks import compile_expr
from repro.pipeline.schema import (
    CELL_AXES,
    CheckSpec,
    DocSpec,
    Dual,
    ExperimentConfig,
    SeriesSpec,
)

__all__ = [
    "DEFAULT_CONFIG_DIR",
    "load_config",
    "load_config_text",
    "load_config_dir",
]

#: The repo's ``configs/`` directory (checkout layout: ``src/repro/…``).
DEFAULT_CONFIG_DIR = (
    pathlib.Path(__file__).resolve().parents[3] / "configs"
)

_GROUPS = ("figures", "text", "ablations", "extensions", "robustness")
_PLACEMENTS = ("ideal_rows",)


def _fail(context: str, message: str) -> None:
    raise ConfigurationError(f"{context}: {message}")


def _table(value: Any, context: str) -> Dict[str, Any]:
    if not isinstance(value, dict):
        _fail(context, f"expected a table, got {type(value).__name__}")
    return value


def _reject_unknown(table: Dict[str, Any], allowed: Sequence[str],
                    context: str) -> None:
    unknown = sorted(set(table) - set(allowed))
    if unknown:
        _fail(
            context,
            f"unknown key(s) {', '.join(map(repr, unknown))} "
            f"(allowed: {', '.join(sorted(allowed))})",
        )


def _req(table: Dict[str, Any], key: str, context: str) -> Any:
    if key not in table:
        _fail(context, f"missing required key {key!r}")
    return table[key]


def _str(value: Any, context: str) -> str:
    if not isinstance(value, str) or not value:
        _fail(context, f"expected a non-empty string, got {value!r}")
    return value


def _int(value: Any, context: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(context, f"expected an integer, got {value!r}")
    return value


def _list_of(value: Any, parse, context: str) -> List[Any]:
    """A non-empty array, each item checked by ``parse``."""
    if not isinstance(value, list) or not value:
        _fail(context, f"expected a non-empty array, got {value!r}")
    return [parse(item, context) for item in value]


def _x_value(value: Any, context: str) -> Any:
    """An x value: an integer or a string (distribution key, shape label)."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        _fail(context, f"x value {value!r} is neither integer nor string")
    return value


def _dual(value: Any, parse, context: str) -> Dual:
    """Normalize plain / ``{full=…, quick=…}`` spellings into a Dual."""
    if isinstance(value, dict):
        _reject_unknown(value, ("full", "quick"), context)
        full = parse(_req(value, "full", context), f"{context}.full")
        quick = (
            parse(value["quick"], f"{context}.quick")
            if "quick" in value
            else None
        )
        return Dual(full=full, quick=quick)
    return Dual(full=parse(value, context))


def _machine_spec(value: Any, context: str) -> str:
    """A spec :func:`~repro.machines.machine_from_spec` accepts, as written."""
    spec = _str(value, context)
    try:
        machine_from_spec(spec)
    except ConfigurationError as exc:
        _fail(context, str(exc))
    return spec


def _algorithm(value: Any, context: str) -> str:
    name = _str(value, context)
    if name.lower() not in ALGORITHMS:
        _fail(context, f"unknown algorithm {name!r} "
                       f"(known: {', '.join(sorted(ALGORITHMS))})")
    return name


def _dist_key(value: Any, context: str) -> str:
    key = _str(value, context)
    if key not in DISTRIBUTIONS:
        _fail(context, f"unknown distribution {key!r} "
                       f"(known: {', '.join(sorted(DISTRIBUTIONS))})")
    return key


def _placement(value: Any, context: str) -> str:
    name = _str(value, context)
    if name not in _PLACEMENTS:
        _fail(context, f"unknown placement {name!r} "
                       f"(known: {', '.join(_PLACEMENTS)})")
    return name


# -- series ----------------------------------------------------------------

#: Cell fields a series gives as a scalar or a per-x list, with the
#: parser of one value.
_CELL_FIELDS = {
    "machine": _machine_spec,
    "distribution": _dist_key,
    "s": _int,
    "message_size": _int,
}
#: The keys that can set each cell field; a series sets each exactly once.
_FIELD_SOURCES = {
    "machine": ("machine",),
    "distribution": ("distribution", "distributions", "placement",
                     "cell_axis = 'dist'"),
    "s": ("s", "s_values", "cell_axis = 's'"),
    "message_size": ("message_size", "cell_axis = 'L'"),
}
#: Curve axes, with the parser of one curve value.
_CURVE_AXES = {"algorithms": _algorithm, "distributions": _dist_key,
               "s_values": _int}
#: What the cells measure besides an ``algorithms`` curve axis.
_MEASURES = ("algorithm", "baseline", "variant")
_SERIES_TABLE_KEYS = (
    "title", "x_label", "y_label", "x_values", "cell_axis", "placement",
    *_CELL_FIELDS, *_CURVE_AXES, *_MEASURES,
)


def _parse_series(table: Dict[str, Any], context: str) -> SeriesSpec:
    _reject_unknown(table, _SERIES_TABLE_KEYS, context)
    x_values = _dual(_req(table, "x_values", context),
                     lambda v, c: _list_of(v, _x_value, c),
                     f"{context}.x_values")

    given = set(table)
    cell_axis = table.get("cell_axis")
    if cell_axis is not None:
        if _str(cell_axis, f"{context}.cell_axis") not in CELL_AXES:
            _fail(f"{context}.cell_axis",
                  f"unknown cell axis {cell_axis!r} "
                  f"(known: {', '.join(CELL_AXES)})")
        for quick in (False, True):
            for x in x_values.get(quick):
                _CELL_FIELDS[CELL_AXES[cell_axis]](x, f"{context}.x_values")
        given.add(f"cell_axis = {cell_axis!r}")
    for field, sources in _FIELD_SOURCES.items():
        setters = [source for source in sources if source in given]
        if len(setters) != 1:
            _fail(context,
                  f"the cells' {field} needs exactly one of "
                  f"{', '.join(sources)} (got {', '.join(setters) or 'none'})")

    cells: Dict[str, Dual] = {}
    for field, parse in _CELL_FIELDS.items():
        if field not in table:
            continue
        cells[field] = _dual(
            table[field],
            lambda v, c, parse=parse: (
                _list_of(v, parse, c) if isinstance(v, list) else parse(v, c)
            ),
            f"{context}.{field}",
        )
        for mode, quick in (("full", False), ("quick", True)):
            value = cells[field].get(quick)
            xs = x_values.get(quick)
            if isinstance(value, list) and len(value) != len(xs):
                _fail(context, f"{field} has {len(value)} entries but "
                               f"x_values has {len(xs)} in {mode} mode")

    curves = {
        key: tuple(_list_of(table[key], parse, f"{context}.{key}"))
        for key, parse in _CURVE_AXES.items() if key in table
    }
    if len(curves) != 1:
        _fail(context, "give exactly one curve axis: algorithms, "
                       "distributions or s_values "
                       f"(got {', '.join(curves) or 'none'})")
    measures = {
        key: _algorithm(table[key], f"{context}.{key}")
        for key in _MEASURES if key in table
    }
    allowed = (
        [set()] if "algorithms" in curves
        else [{"algorithm"}, {"baseline", "variant"}]
    )
    if set(measures) not in allowed:
        _fail(context, "measure with exactly one of algorithms, algorithm, "
                       "or baseline + variant")

    return SeriesSpec(
        title=_str(_req(table, "title", context), f"{context}.title"),
        x_label=_str(_req(table, "x_label", context), f"{context}.x_label"),
        x_values=x_values,
        y_label=_str(table.get("y_label", "time (ms)"), f"{context}.y_label"),
        cell_axis=cell_axis,
        placement=(
            _placement(table["placement"], f"{context}.placement")
            if "placement" in table else None
        ),
        **cells,
        **curves,
        **measures,
    )


# -- checks ----------------------------------------------------------------

_CHECK_KEYS = ("description", "series", "expr", "detail")


def _parse_check(table: Dict[str, Any], context: str,
                 num_series: int) -> CheckSpec:
    _reject_unknown(table, _CHECK_KEYS, context)
    description = _str(_req(table, "description", context),
                       f"{context}.description")
    series = table.get("series", 0)
    series = _int(series, f"{context}.series")
    if not 0 <= series < num_series:
        _fail(f"{context}.series",
              f"series index {series} out of range "
              f"(experiment has {num_series} series)")
    detail = table.get("detail")
    if detail is not None:
        detail = compile_expr(_str(detail, f"{context}.detail"),
                              context=f"{context}.detail")
    expr = _str(_req(table, "expr", context), f"{context}.expr")
    return CheckSpec(description=description,
                     expr=compile_expr(expr, context=f"{context}.expr"),
                     series=series, detail=detail)


# -- experiment ------------------------------------------------------------

_EXPERIMENT_KEYS = ("id", "title", "description", "group", "builder")
_DOC_KEYS = ("section", "body", "removed", "effect", "finding", "deviation")
_TOP_KEYS = ("experiment", "doc", "series", "checks", "notes")


def _parse_doc(table: Dict[str, Any], context: str) -> DocSpec:
    """The ``[doc]`` block; its placeholders and deviation stay uncompiled
    until the docs render (:func:`repro.pipeline.docsgen.compile_doc`)."""
    _reject_unknown(table, _DOC_KEYS, context)
    deviation = table.get("deviation")
    return DocSpec(
        section=_str(_req(table, "section", context), f"{context}.section"),
        body=table.get("body", ""),
        removed=table.get("removed", ""),
        effect=table.get("effect", ""),
        finding=table.get("finding", ""),
        deviation=(
            None if deviation is None
            else _str(deviation, f"{context}.deviation")
        ),
    )


def _validate_builder(ref: str, context: str) -> None:
    module_name, sep, attr = ref.partition(":")
    if not sep or not module_name or not attr:
        _fail(context, f"builder must be 'module:function', got {ref!r}")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        _fail(context, f"builder module {module_name!r} not importable: {exc}")
    if not callable(getattr(module, attr, None)):
        _fail(context, f"builder {ref!r} does not name a callable")


def load_config_text(text: str, path: str = "<config>") -> ExperimentConfig:
    """Parse and validate one experiment config from TOML source."""
    try:
        data = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid TOML: {exc}") from None
    _reject_unknown(data, _TOP_KEYS, path)

    exp = _table(_req(data, "experiment", path), f"{path}: [experiment]")
    context = f"{path}: [experiment]"
    _reject_unknown(exp, _EXPERIMENT_KEYS, context)
    exp_id = _str(_req(exp, "id", context), f"{context}.id")
    title = _str(_req(exp, "title", context), f"{context}.title")
    description = _str(_req(exp, "description", context),
                       f"{context}.description")
    group = exp.get("group", "figures")
    if group not in _GROUPS:
        _fail(f"{context}.group",
              f"unknown group {group!r} (known: {', '.join(_GROUPS)})")

    notes = tuple(
        _list_of(data["notes"], _str, f"{path}: notes") if "notes" in data else ()
    )
    doc = (
        _parse_doc(_table(data["doc"], f"{path}: [doc]"), f"{path}: [doc]")
        if "doc" in data else None
    )

    if "builder" in exp:
        builder = _str(exp["builder"], f"{context}.builder")
        _validate_builder(builder, f"{context}.builder")
        for key in ("series", "checks"):
            if key in data:
                _fail(f"{path}: [{key}]",
                      "builder experiments take their series and checks "
                      "from the builder function")
        if notes:
            _fail(f"{path}: notes",
                  "builder experiments take their notes from the builder")
        return ExperimentConfig(
            id=exp_id, title=title, description=description,
            path=path, group=group, builder=builder, doc=doc,
        )

    series_tables = data.get("series")
    if not isinstance(series_tables, list) or not series_tables:
        _fail(f"{path}: [[series]]",
              "declarative experiments need at least one series")
    series = tuple(
        _parse_series(_table(t, f"{path}: [series#{i}]"),
                      f"{path}: [series#{i}]")
        for i, t in enumerate(series_tables)
    )
    check_tables = data.get("checks", [])
    if not isinstance(check_tables, list):
        _fail(f"{path}: [[checks]]", "expected an array of check tables")
    checks = tuple(
        _parse_check(_table(t, f"{path}: [checks#{i}]"),
                     f"{path}: [checks#{i}]", len(series))
        for i, t in enumerate(check_tables)
    )
    return ExperimentConfig(
        id=exp_id, title=title, description=description,
        path=path, group=group, series=series, checks=checks,
        notes=notes, doc=doc,
    )


def load_config(path: "pathlib.Path | str") -> ExperimentConfig:
    """Load one ``configs/*.toml`` file."""
    file_path = pathlib.Path(path)
    try:
        text = file_path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"{file_path}: unreadable: {exc}") from None
    return load_config_text(text, path=str(file_path))


def _config_files(root: pathlib.Path) -> Dict[str, pathlib.Path]:
    """``{experiment id: file}`` under ``root``, read from the file names.

    Every config is named ``NN-<id>.toml``, so the ids are known without
    parsing a file.  Filename order is the paper's figure order by
    construction.  A file named otherwise, and two files for one id,
    are defects.
    """
    if not root.is_dir():
        raise ConfigurationError(f"config directory {root} does not exist")
    files: Dict[str, pathlib.Path] = {}
    for file_path in sorted(root.glob("*.toml")):
        number, _, exp_id = file_path.stem.partition("-")
        if not number.isdigit() or not exp_id:
            raise ConfigurationError(
                f"{file_path}: config file names must be NN-<id>.toml"
            )
        if exp_id in files:
            raise ConfigurationError(
                f"{file_path}: duplicate experiment id {exp_id!r} "
                f"(also defined by {files[exp_id]})"
            )
        files[exp_id] = file_path
    if not files:
        raise ConfigurationError(f"no *.toml configs found under {root}")
    return files


def load_config_dir(
    directory: "pathlib.Path | str | None" = None,
    ids: Optional[Sequence[str]] = None,
) -> Dict[str, ExperimentConfig]:
    """Load the configs under ``directory`` (default: repo ``configs/``).

    Returns ``{experiment id: config}``.  Without ``ids``, every file is
    parsed and validated, in filename order; the ``list``/``all``/
    ``docs`` report targets load this way.  With ``ids`` (``report
    <id>...``), only the files of those ids are parsed, in the order
    given, and the other configs go unvalidated.  Ids are looked up by
    file name (``NN-<id>.toml``); an id with no file is an error listing
    the known ids.  Each parsed file must declare the id its name
    carries.
    """
    root = pathlib.Path(directory) if directory else DEFAULT_CONFIG_DIR
    files = _config_files(root)
    if ids is not None:
        unknown = [exp_id for exp_id in ids if exp_id not in files]
        if unknown:
            raise ConfigurationError(
                f"unknown experiment(s): {', '.join(unknown)}\n"
                f"known: {', '.join(files)}"
            )
        files = {exp_id: files[exp_id] for exp_id in ids}
    configs: Dict[str, ExperimentConfig] = {}
    for exp_id, file_path in files.items():
        config = load_config(file_path)
        if config.id != exp_id:
            raise ConfigurationError(
                f"{file_path}: declares experiment id {config.id!r} but its "
                f"file name says {exp_id!r} (name it NN-{config.id}.toml)"
            )
        configs[exp_id] = config
    return configs
