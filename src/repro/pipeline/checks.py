"""Shape-check assertions: a restricted expression language over series.

A declarative config states its DESIGN.md shape criteria as small
Python expressions evaluated against the measured
:class:`~repro.bench.types.Series` list; the docs' placeholders and
deviations (:mod:`repro.pipeline.docsgen`) are written in the same
language.  :func:`compile_expr` parses an expression and walks its AST
against a whitelist (no attribute access, no imports, no dunder names,
only known helper/builtin names).  Checks are compiled at **load
time** and the config keeps the code, so a typo'd helper or a smuggled
``__import__`` fails when the config is read, not mid-sweep; the docs'
expressions compile where the docs evaluate them.

Evaluation helpers (bound per check to the experiment's series list;
``series = N`` in the check selects the default series):

========================  =============================================
``at(curve, x)``          y-value of ``curve`` at x-axis value ``x``
``curve(name)``           the full y-list of ``curve``
``xs``                    the x-axis values of the check's series
========================  =============================================

plus the pure builtins ``min max abs all any len sum sorted zip round
range enumerate float int str``.  ``sum`` is
:func:`~repro.summation.left_sum`, so a float total, and the verdict
that compares it, is the same on every interpreter.  ``detail``
expressions (usually f-strings) use the same language and render the
check's detail text.
"""

from __future__ import annotations

import ast
from types import CodeType
from typing import Any, Dict, List, Sequence, Set

from repro.bench.types import Check, Series
from repro.errors import ConfigurationError
from repro.pipeline.schema import CheckSpec
from repro.summation import left_sum

__all__ = ["compile_expr", "evaluate_check", "evaluate_expr", "ALLOWED_NAMES"]

#: Builtins exposed to check expressions (pure, total on their domains).
_BUILTINS: Dict[str, Any] = {
    "min": min,
    "max": max,
    "abs": abs,
    "all": all,
    "any": any,
    "len": len,
    "sum": left_sum,
    "sorted": sorted,
    "zip": zip,
    "round": round,
    "range": range,
    "enumerate": enumerate,
    "float": float,
    "int": int,
    "str": str,
}

#: Series helpers (bound at evaluation time) + builtins + ``xs``.
ALLOWED_NAMES: Set[str] = {"at", "curve", "xs"} | set(_BUILTINS)

#: AST node types an expression may contain.  Notably absent:
#: ``Attribute`` (no method calls, no ``__class__`` escapes),
#: ``Lambda``, ``Await``, ``NamedExpr``, ``Dict``/``Set`` displays.
_ALLOWED_NODES = (
    ast.Expression,
    ast.BoolOp, ast.And, ast.Or,
    ast.BinOp, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv,
    ast.Mod, ast.Pow,
    ast.UnaryOp, ast.Not, ast.USub, ast.UAdd,
    ast.Compare, ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE,
    ast.In, ast.NotIn,
    ast.Call, ast.keyword,
    ast.IfExp,
    ast.Name, ast.Load, ast.Store,
    ast.Constant,
    ast.Tuple, ast.List,
    ast.Subscript, ast.Slice,
    ast.GeneratorExp, ast.ListComp, ast.comprehension,
    ast.JoinedStr, ast.FormattedValue,
)


def compile_expr(expr: str, *, context: str = "expression") -> CodeType:
    """Parse, whitelist-check and compile one check expression.

    Raises :class:`~repro.errors.ConfigurationError` naming the
    ``context`` (the loader passes ``"<file>: [checks#N].expr"``) when
    the expression is syntactically invalid, contains a disallowed
    construct, or references an unknown name (one walk finds both).

    >>> code = compile_expr("min(xs) < max(xs)")
    >>> eval(code, {"__builtins__": {}}, {"xs": [1, 2], "min": min, "max": max})
    True
    """
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ConfigurationError(f"{context}: syntax error: {exc.msg}") from None
    loaded: List[str] = []
    bound: Set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ConfigurationError(
                f"{context}: disallowed construct "
                f"{type(node).__name__!r} in {expr!r}"
            )
        if isinstance(node, ast.Name):
            # A stored name can only be a comprehension target.
            if isinstance(node.ctx, ast.Store):
                bound.add(node.id)
            else:
                loaded.append(node.id)
    for name in loaded:
        if name not in ALLOWED_NAMES and name not in bound:
            raise ConfigurationError(
                f"{context}: unknown name {name!r} "
                f"(allowed: {', '.join(sorted(ALLOWED_NAMES))})"
            )
    return compile(tree, filename=f"<{context}>", mode="eval")


def _namespace(base: Series) -> Dict[str, Any]:
    """The evaluation namespace for a check bound to series ``base``."""

    def at(curve: str, x: Any) -> float:
        return base.value(curve, x)

    def curve(name: str) -> List[float]:
        return base.curves[name]

    names: Dict[str, Any] = dict(_BUILTINS)
    names.update(at=at, curve=curve, xs=list(base.x_values))
    return names


def evaluate_expr(
    code: CodeType, series: Sequence[Series], index: int = 0, *,
    context: str = "expression",
) -> Any:
    """The value of one compiled expression over ``series[index]``.

    ``code`` comes from :func:`compile_expr`.  Checks, their details,
    and the docs' placeholders and deviations
    (:mod:`repro.pipeline.docsgen`) all evaluate through here.  Raises
    :class:`~repro.errors.ConfigurationError` naming ``context`` for an
    out-of-range index or a failed evaluation (a missing curve or x
    value).
    """
    if not 0 <= index < len(series):
        raise ConfigurationError(
            f"{context}: series index {index} out of range "
            f"(experiment has {len(series)} series)"
        )
    # Names go in *globals*: comprehensions in an eval'd expression
    # run in their own scope, which resolves free names through the
    # globals mapping, never through an outer locals dict.
    names = _namespace(series[index])
    names["__builtins__"] = {}
    try:
        return eval(code, names)
    except Exception as exc:  # missing curve/x value: a config defect
        raise ConfigurationError(
            f"{context}: evaluation failed: {exc}"
        ) from exc


def evaluate_check(
    spec: CheckSpec, series: Sequence[Series], *, context: str = "check"
) -> Check:
    """Evaluate one :class:`CheckSpec` against measured series.

    Returns the same :class:`~repro.bench.types.Check` record the
    builder functions build, so reports and verdicts render identically
    for both experiment kinds.
    """
    passed = bool(
        evaluate_expr(spec.expr, series, spec.series, context=f"{context}.expr")
    )
    detail = ""
    if spec.detail is not None:
        detail = str(evaluate_expr(
            spec.detail, series, spec.series, context=f"{context}.detail"
        ))
    return Check(spec.description, passed, detail)
