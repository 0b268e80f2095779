"""TOML experiment configs → validated :class:`ExperimentConfig`.

The loader is strict by design: unknown table keys, unknown series
kinds, unknown assertion types, malformed axes, mismatched per-x list
lengths, unregistered algorithms/distributions and malformed machine
specs are all rejected **at load time**, with an error message naming
the offending file and key — a config never fails halfway through a
multi-minute sweep.

Doctest — a config expands into the sweep points ``report`` evaluates::

    >>> config = load_config_text('''
    ... [experiment]
    ... id = "demo"
    ... title = "Demo"
    ... description = "a two-point sweep"
    ... kind = "declarative"
    ...
    ... [[series]]
    ... kind = "sweep"
    ... title = "demo sweep"
    ... x_label = "s"
    ... machine = "paragon:4x4"
    ... distribution = "E"
    ... algorithms = ["Br_Lin"]
    ... s_values = { full = [4, 8], quick = [4] }
    ... message_size = 256
    ...
    ... [[checks]]
    ... type = "expr"
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
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.algorithms import ALGORITHMS
from repro.distributions import DISTRIBUTIONS
from repro.errors import ConfigurationError
from repro.machines import machine_from_spec
from repro.pipeline.checks import compile_expr
from repro.pipeline.schema import (
    CHECK_TYPES,
    SERIES_KINDS,
    CellSpec,
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
_CELL_KEYS = {"machine", "dist", "placement", "s", "L"}
_CELL_AXES = ("s", "L", "dist", "machine")


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


def _number(value: Any, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(context, f"expected a number, got {value!r}")
    return value


def _str_list(value: Any, context: str) -> List[str]:
    if not isinstance(value, list) or not value:
        _fail(context, f"expected a non-empty array of strings, got {value!r}")
    return [_str(item, context) for item in value]


def _int_list(value: Any, context: str) -> List[int]:
    if not isinstance(value, list) or not value:
        _fail(context, f"expected a non-empty array of integers, got {value!r}")
    return [_int(item, context) for item in value]


def _scalar_list(value: Any, context: str) -> List[Any]:
    """x-axis values: ints or strings (distribution keys, shape labels)."""
    if not isinstance(value, list) or not value:
        _fail(context, f"expected a non-empty array, got {value!r}")
    for item in value:
        if isinstance(item, bool) or not isinstance(item, (int, str)):
            _fail(context, f"x value {item!r} is neither integer nor string")
    return list(value)


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


def _scalar_or_list(value: Any, parse_scalar, context: str) -> Any:
    if isinstance(value, list):
        if not value:
            _fail(context, "expected a scalar or non-empty array")
        return [parse_scalar(item, context) for item in value]
    return parse_scalar(value, context)


def _cell(value: Any, context: str) -> CellSpec:
    table = _table(value, context)
    _reject_unknown(table, sorted(_CELL_KEYS), context)
    return CellSpec(
        machine=(
            _machine_spec(table["machine"], f"{context}.machine")
            if "machine" in table else None
        ),
        dist=(
            _dist_key(table["dist"], f"{context}.dist")
            if "dist" in table else None
        ),
        placement=(
            _placement(table["placement"], f"{context}.placement")
            if "placement" in table else None
        ),
        s=_int(table["s"], f"{context}.s") if "s" in table else None,
        L=_int(table["L"], f"{context}.L") if "L" in table else None,
    )


def _cell_list(value: Any, context: str) -> List[CellSpec]:
    if not isinstance(value, list) or not value:
        _fail(context, "expected a non-empty array of cell tables")
    return [_cell(item, f"{context}[{i}]") for i, item in enumerate(value)]


# -- series ----------------------------------------------------------------

_COMMON_SERIES_KEYS = ("kind", "title", "x_label", "y_label", "contention")

_SERIES_KEYS = {
    "sweep": _COMMON_SERIES_KEYS + (
        "machine", "distribution", "algorithms", "s_values",
        "message_size", "total_bytes",
    ),
    "cells": _COMMON_SERIES_KEYS + (
        "machine", "distribution", "placement", "s", "message_size",
        "algorithms", "x_values", "cell_axis", "cells",
    ),
    "dist_curves": _COMMON_SERIES_KEYS + (
        "machine", "distributions", "algorithm", "x_values", "s",
        "message_size",
    ),
    "machines_by_s": _COMMON_SERIES_KEYS + (
        "machines", "x_values", "s_values", "algorithm", "distribution",
        "message_size",
    ),
    "percent_gain": _COMMON_SERIES_KEYS + (
        "machine", "distributions", "baseline", "variant", "axis",
        "x_values", "s", "message_size",
    ),
}


def _check_parallel(x_values: Dual, other: Dual, name: str,
                    context: str) -> None:
    """Per-x lists must match x_values length in both modes."""
    for mode, quick in (("full", False), ("quick", True)):
        xs = x_values.get(quick)
        value = other.get(quick)
        if isinstance(value, list) and len(value) != len(xs):
            _fail(
                context,
                f"{name} has {len(value)} entries but x_values has "
                f"{len(xs)} in {mode} mode",
            )


def _parse_series(table: Dict[str, Any], context: str) -> SeriesSpec:
    kind = _str(_req(table, "kind", context), f"{context}.kind")
    if kind not in SERIES_KINDS:
        _fail(context, f"unknown series kind {kind!r} "
                       f"(known: {', '.join(SERIES_KINDS)})")
    _reject_unknown(table, _SERIES_KEYS[kind], context)

    title = _str(_req(table, "title", context), f"{context}.title")
    x_label = _str(_req(table, "x_label", context), f"{context}.x_label")
    y_label = _str(table.get("y_label", "time (ms)"), f"{context}.y_label")
    contention = table.get("contention", True)
    if not isinstance(contention, bool):
        _fail(f"{context}.contention", f"expected a boolean, got {contention!r}")

    common = dict(kind=kind, title=title, x_label=x_label, y_label=y_label,
                  contention=contention)

    if kind == "sweep":
        return SeriesSpec(
            **common,
            machine=_machine_spec(_req(table, "machine", context),
                                  f"{context}.machine"),
            distribution=_dist_key(_req(table, "distribution", context),
                                   f"{context}.distribution"),
            algorithms=tuple(_algorithm(a, f"{context}.algorithms")
                             for a in _str_list(
                                 _req(table, "algorithms", context),
                                 f"{context}.algorithms")),
            s_values=_dual(_req(table, "s_values", context), _int_list,
                           f"{context}.s_values"),
            message_size=_int(_req(table, "message_size", context),
                              f"{context}.message_size"),
            total_bytes=(
                _int(table["total_bytes"], f"{context}.total_bytes")
                if "total_bytes" in table else None
            ),
        )

    if kind == "cells":
        x_values = _dual(_req(table, "x_values", context), _scalar_list,
                         f"{context}.x_values")
        cell_axis = table.get("cell_axis")
        cells: Optional[Dual] = None
        if cell_axis is not None:
            cell_axis = _str(cell_axis, f"{context}.cell_axis")
            if cell_axis not in _CELL_AXES:
                _fail(f"{context}.cell_axis",
                      f"unknown cell axis {cell_axis!r} "
                      f"(known: {', '.join(_CELL_AXES)})")
            if "cells" in table:
                _fail(context, "cell_axis and cells are mutually exclusive")
        else:
            cells = _dual(_req(table, "cells", context), _cell_list,
                          f"{context}.cells")
            _check_parallel(x_values, cells, "cells", context)
        spec = SeriesSpec(
            **common,
            machine=(
                _machine_spec(table["machine"], f"{context}.machine")
                if "machine" in table else None
            ),
            distribution=(
                _dist_key(table["distribution"], f"{context}.distribution")
                if "distribution" in table else None
            ),
            placement=(
                _placement(table["placement"], f"{context}.placement")
                if "placement" in table else None
            ),
            s=_int(table["s"], f"{context}.s") if "s" in table else None,
            message_size=(
                _int(table["message_size"], f"{context}.message_size")
                if "message_size" in table else None
            ),
            algorithms=tuple(_algorithm(a, f"{context}.algorithms")
                             for a in _str_list(
                                 _req(table, "algorithms", context),
                                 f"{context}.algorithms")),
            x_values=x_values,
            cell_axis=cell_axis,
            cells=cells,
        )
        _validate_cells(spec, context)
        return spec

    if kind == "dist_curves":
        x_values = _dual(_req(table, "x_values", context), _scalar_list,
                         f"{context}.x_values")
        machine = _dual(
            _req(table, "machine", context),
            lambda v, c: _scalar_or_list(v, _machine_spec, c),
            f"{context}.machine",
        )
        s = (
            _dual(table["s"], lambda v, c: _scalar_or_list(v, _int, c),
                  f"{context}.s")
            if "s" in table else None
        )
        message_size = _dual(
            _req(table, "message_size", context),
            lambda v, c: _scalar_or_list(v, _int, c),
            f"{context}.message_size",
        )
        for name, value in (("machine", machine), ("s", s),
                            ("message_size", message_size)):
            if value is not None:
                _check_parallel(x_values, value, name, context)
        if s is None:
            for quick in (False, True):
                for x in x_values.get(quick):
                    if not isinstance(x, int):
                        _fail(f"{context}.x_values",
                              "s is omitted, so x values must be source "
                              f"counts (integers); got {x!r}")
        return SeriesSpec(
            **common,
            machine=machine,
            distributions=tuple(
                _dist_key(k, f"{context}.distributions")
                for k in _str_list(_req(table, "distributions", context),
                                   f"{context}.distributions")),
            algorithm=_algorithm(_req(table, "algorithm", context),
                                 f"{context}.algorithm"),
            x_values=x_values,
            s=s,
            message_size=message_size,
        )

    if kind == "machines_by_s":
        x_values = _dual(_req(table, "x_values", context), _scalar_list,
                         f"{context}.x_values")
        machines = _dual(
            _req(table, "machines", context),
            lambda v, c: [_machine_spec(m, c) for m in _str_list(v, c)],
            f"{context}.machines",
        )
        _check_parallel(x_values, machines, "machines", context)
        return SeriesSpec(
            **common,
            machines=machines,
            x_values=x_values,
            s_values=_dual(_req(table, "s_values", context), _int_list,
                           f"{context}.s_values"),
            algorithm=_algorithm(_req(table, "algorithm", context),
                                 f"{context}.algorithm"),
            distribution=_dist_key(_req(table, "distribution", context),
                                   f"{context}.distribution"),
            message_size=_int(_req(table, "message_size", context),
                              f"{context}.message_size"),
        )

    # percent_gain
    axis = _str(_req(table, "axis", context), f"{context}.axis")
    if axis not in ("s", "L"):
        _fail(f"{context}.axis", f"axis must be 's' or 'L', got {axis!r}")
    fixed_key = "message_size" if axis == "s" else "s"
    if fixed_key not in table:
        _fail(context, f"axis = {axis!r} requires a fixed {fixed_key!r}")
    return SeriesSpec(
        **common,
        machine=_machine_spec(_req(table, "machine", context),
                              f"{context}.machine"),
        distributions=tuple(
            _dist_key(k, f"{context}.distributions")
            for k in _str_list(_req(table, "distributions", context),
                               f"{context}.distributions")),
        baseline=_algorithm(_req(table, "baseline", context),
                            f"{context}.baseline"),
        variant=_algorithm(_req(table, "variant", context),
                           f"{context}.variant"),
        axis=axis,
        x_values=_dual(_req(table, "x_values", context), _int_list,
                       f"{context}.x_values"),
        s=_int(table["s"], f"{context}.s") if "s" in table else None,
        message_size=(
            _int(table["message_size"], f"{context}.message_size")
            if "message_size" in table else None
        ),
    )


def _validate_cells(spec: SeriesSpec, context: str) -> None:
    """Every cell must resolve machine, sources and size after defaults."""
    for quick in (False, True):
        xs = spec.x_values.get(quick)
        if spec.cell_axis is not None:
            cells = [_axis_cell(spec.cell_axis, x, context) for x in xs]
        else:
            cells = spec.cells.get(quick)
        for i, cell in enumerate(cells):
            where = f"{context}.cells[{i}]"
            if (cell.machine or spec.machine) is None:
                _fail(where, "no machine (cell or series level)")
            placement = cell.placement or spec.placement
            dist = cell.dist or spec.distribution
            if placement is None and dist is None:
                _fail(where, "no source placement: set dist or placement")
            if (cell.s if cell.s is not None else spec.s) is None:
                _fail(where, "no source count s (cell or series level)")
            size = cell.L if cell.L is not None else spec.message_size
            if size is None:
                _fail(where, "no message_size (cell or series level)")


def _axis_cell(axis: str, x: Any, context: str) -> CellSpec:
    """The derived cell for x when ``cell_axis`` is set."""
    if axis == "s":
        return CellSpec(s=_int(x, context))
    if axis == "L":
        return CellSpec(L=_int(x, context))
    if axis == "dist":
        return CellSpec(dist=_dist_key(x, context))
    return CellSpec(machine=_machine_spec(x, context))


# -- checks ----------------------------------------------------------------

_CHECK_KEYS = {
    "expr": ("type", "description", "series", "expr", "detail"),
    "ratio_range": ("type", "description", "series", "curve",
                    "x_num", "x_den", "lo", "hi", "detail"),
}


def _parse_check(table: Dict[str, Any], context: str,
                 num_series: int) -> CheckSpec:
    check_type = _str(_req(table, "type", context), f"{context}.type")
    if check_type not in CHECK_TYPES:
        _fail(
            f"{context}.type",
            f"unknown assertion type {check_type!r} "
            f"(known: {', '.join(CHECK_TYPES)})",
        )
    _reject_unknown(table, _CHECK_KEYS[check_type], context)
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
        detail = _str(detail, f"{context}.detail")
        compile_expr(detail, context=f"{context}.detail")
    if check_type == "expr":
        expr = _str(_req(table, "expr", context), f"{context}.expr")
        compile_expr(expr, context=f"{context}.expr")
        return CheckSpec(type=check_type, description=description,
                         series=series, expr=expr, detail=detail)
    lo = _number(_req(table, "lo", context), f"{context}.lo")
    hi = _number(_req(table, "hi", context), f"{context}.hi")
    if lo > hi:
        _fail(context, f"empty ratio range: lo = {lo} > hi = {hi}")
    x_num = _req(table, "x_num", context)
    x_den = _req(table, "x_den", context)
    return CheckSpec(
        type=check_type, description=description, series=series,
        detail=detail,
        curve=_str(_req(table, "curve", context), f"{context}.curve"),
        x_num=x_num, x_den=x_den, lo=lo, hi=hi,
    )


# -- experiment ------------------------------------------------------------

_EXPERIMENT_KEYS = ("id", "title", "description", "kind", "group",
                    "builder", "expected_checks")
_DOC_KEYS = ("section", "verdict", "body", "removed", "effect", "finding")
_TOP_KEYS = ("experiment", "doc", "series", "checks", "notes")


def _parse_doc(table: Dict[str, Any], context: str) -> DocSpec:
    _reject_unknown(table, _DOC_KEYS, context)
    verdict = table.get("verdict", "reproduced")
    if verdict not in ("reproduced", "partial"):
        _fail(f"{context}.verdict",
              f"verdict must be 'reproduced' or 'partial', got {verdict!r}")
    return DocSpec(
        section=_str(_req(table, "section", context), f"{context}.section"),
        verdict=verdict,
        body=table.get("body", ""),
        removed=table.get("removed", ""),
        effect=table.get("effect", ""),
        finding=table.get("finding", ""),
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
    kind = _str(_req(exp, "kind", context), f"{context}.kind")
    if kind not in ("declarative", "builder"):
        _fail(f"{context}.kind",
              f"kind must be 'declarative' or 'builder', got {kind!r}")
    group = exp.get("group", "figures")
    if group not in _GROUPS:
        _fail(f"{context}.group",
              f"unknown group {group!r} (known: {', '.join(_GROUPS)})")

    notes = tuple(
        _str_list(data["notes"], f"{path}: notes") if "notes" in data else ()
    )
    doc = (
        _parse_doc(_table(data["doc"], f"{path}: [doc]"), f"{path}: [doc]")
        if "doc" in data else None
    )

    if kind == "builder":
        builder = _str(_req(exp, "builder", context), f"{context}.builder")
        _validate_builder(builder, f"{context}.builder")
        expected = _int(_req(exp, "expected_checks", context),
                        f"{context}.expected_checks")
        if expected < 0:
            _fail(f"{context}.expected_checks",
                  f"expected_checks must be >= 0, got {expected}")
        for key in ("series", "checks"):
            if key in data:
                _fail(f"{path}: [{key}]",
                      "builder experiments take their series and checks "
                      "from the builder function")
        if notes:
            _fail(f"{path}: notes",
                  "builder experiments take their notes from the builder")
        return ExperimentConfig(
            id=exp_id, title=title, description=description, kind=kind,
            path=path, group=group, builder=builder,
            expected_checks=expected, doc=doc,
        )

    if "builder" in exp or "expected_checks" in exp:
        _fail(context, "declarative experiments may not set builder or "
                       "expected_checks")
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
        id=exp_id, title=title, description=description, kind=kind,
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
    ``docs`` report targets and ``tools/check_experiments.py`` load this
    way.  With ``ids`` (``report <id>...``), only the files of those ids
    are parsed, in the order given, and the other configs go
    unvalidated.  Ids are looked up by file name (``NN-<id>.toml``); an
    id with no file is an error listing the known ids.  Each parsed file
    must declare the id its name carries.
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
