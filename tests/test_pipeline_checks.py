"""The restricted check-expression language and its evaluator."""

from __future__ import annotations

import pytest

from repro.bench.types import Series
from repro.errors import ConfigurationError
from repro.pipeline.checks import compile_expr, evaluate_check
from repro.pipeline.schema import CheckSpec


def compiled(expr, *, series=0, detail=None):
    """A :class:`CheckSpec` compiled as the loader compiles it."""
    return CheckSpec(
        description="x",
        expr=compile_expr(expr),
        series=series,
        detail=None if detail is None else compile_expr(detail),
    )

SERIES = [
    Series(
        title="demo",
        x_label="s",
        x_values=[4, 8, 16],
        curves={"Br_Lin": [1.0, 2.0, 4.0], "2-Step": [3.0, 6.0, 12.0]},
    ),
    Series(
        title="second",
        x_label="L",
        x_values=[256],
        curves={"Br_Lin": [9.0]},
    ),
]


class TestCompileExpr:
    def test_rejects_attribute_access(self):
        with pytest.raises(ConfigurationError) as err:
            compile_expr("().__class__", context="cfg.expr")
        assert "cfg.expr" in str(err.value)

    def test_rejects_lambda(self):
        with pytest.raises(ConfigurationError):
            compile_expr("(lambda: 1)()")

    def test_rejects_unknown_name(self):
        with pytest.raises(ConfigurationError) as err:
            compile_expr("open('x')")
        assert "open" in str(err.value)

    def test_rejects_syntax_error_with_context(self):
        with pytest.raises(ConfigurationError) as err:
            compile_expr("1 +", context="cfg.expr")
        assert "cfg.expr" in str(err.value)

    def test_rejects_statements(self):
        with pytest.raises(ConfigurationError):
            compile_expr("import os")

    def test_allows_comprehensions_and_fstrings(self):
        compile_expr("all(y > 0 for y in curve('Br_Lin'))")
        compile_expr("[y * 2 for y in curve('Br_Lin')]")
        compile_expr("f\"{min(xs)}..{max(xs)}\"")

    def test_comprehension_targets_bind_only_their_names(self):
        compile_expr("all(a < b for a, b in zip(xs, xs[1:]))")
        with pytest.raises(ConfigurationError, match="unknown name 'z'"):
            compile_expr("all(z > 0 for y in xs)")


class TestEvaluateCheck:
    def test_expr_pass(self):
        spec = CheckSpec(
            description="2-Step always above Br_Lin",
            expr=compile_expr(
                "all(a < b for a, b in zip(curve('Br_Lin'), curve('2-Step')))"
            ),
        )
        check = evaluate_check(spec, SERIES)
        assert check.passed
        assert check.description == "2-Step always above Br_Lin"

    def test_expr_fail(self):
        check = evaluate_check(compiled("at('Br_Lin', 4) > 10"), SERIES)
        assert not check.passed

    def test_detail_expression_renders(self):
        check = evaluate_check(
            compiled(
                "True", detail="f\"{at('Br_Lin', 16) / at('Br_Lin', 4):.1f}x\""
            ),
            SERIES,
        )
        assert check.detail == "4.0x"

    def test_series_picks_the_series_that_at_reads(self):
        check = evaluate_check(
            compiled("at('Br_Lin', 256) == 9.0 and xs == [256]", series=1),
            SERIES,
        )
        assert check.passed

    def test_ratio_as_a_chained_comparison(self):
        """Figure 4's linear-growth check is a plain expression."""
        ratio = "at('Br_Lin', 16) / at('Br_Lin', 4)"
        assert evaluate_check(compiled(f"3.5 <= {ratio} <= 4.5"), SERIES).passed
        tight = compiled(f"1.0 <= {ratio} <= 2.0")
        assert not evaluate_check(tight, SERIES).passed

    def test_sum_adds_left_to_right(self):
        """``sum`` is ``left_sum``: no compensation on any interpreter."""
        tenths = [Series(title="t", x_label="x", x_values=list(range(10)),
                         curves={"c": [0.1] * 10})]
        check = evaluate_check(
            compiled("sum(curve('c')) == 0.9999999999999999"), tenths
        )
        assert check.passed

    def test_series_index_out_of_range(self):
        with pytest.raises(ConfigurationError) as err:
            evaluate_check(
                compiled("True", series=5), SERIES, context="cfg [checks#0]"
            )
        assert "cfg [checks#0]" in str(err.value)

    def test_failed_evaluation_names_its_context(self):
        with pytest.raises(ConfigurationError) as err:
            evaluate_check(
                compiled("at('Br_X', 4) > 0"), SERIES, context="cfg [checks#1]"
            )
        assert "cfg [checks#1].expr: evaluation failed" in str(err.value)

    def test_genexpr_resolves_whitelisted_names(self):
        """Free names inside comprehensions resolve (globals scoping)."""
        check = evaluate_check(
            compiled("min(min(curve(n)) for n in ['Br_Lin', '2-Step']) > 0"),
            SERIES,
        )
        assert check.passed
