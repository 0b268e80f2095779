"""Unit tests for BroadcastProblem."""

from __future__ import annotations

import pytest

from repro.core.problem import BroadcastProblem
from repro.errors import ConfigurationError


class TestConstruction:
    def test_sources_sorted_and_deduplicated(self, small_paragon):
        prob = BroadcastProblem(small_paragon, (7, 3, 3, 0))
        assert prob.sources == (0, 3, 7)
        assert prob.s == 3

    def test_empty_sources_rejected(self, small_paragon):
        with pytest.raises(ConfigurationError):
            BroadcastProblem(small_paragon, ())

    def test_out_of_range_source_rejected(self, small_paragon):
        with pytest.raises(ConfigurationError):
            BroadcastProblem(small_paragon, (0, 20))

    def test_non_positive_size_rejected(self, small_paragon):
        with pytest.raises(ConfigurationError):
            BroadcastProblem(small_paragon, (0,), message_size=0)

    def test_sizes_for_non_source_rejected(self, small_paragon):
        with pytest.raises(ConfigurationError):
            BroadcastProblem(small_paragon, (0,), sizes={5: 100})

    def test_zero_per_source_size_rejected(self, small_paragon):
        with pytest.raises(ConfigurationError):
            BroadcastProblem(small_paragon, (0,), sizes={0: 0})


class TestQueries:
    def test_uniform_sizes(self, small_problem):
        assert small_problem.size_of(3) == 1024
        assert small_problem.nbytes(small_problem.source_set) == 5 * 1024

    def test_per_source_size_override(self, small_paragon):
        prob = BroadcastProblem(
            small_paragon, (0, 5), message_size=100, sizes={5: 999}
        )
        assert prob.size_of(0) == 100
        assert prob.size_of(5) == 999
        assert prob.nbytes(prob.source_set) == 1099

    def test_size_of_non_source_raises(self, small_problem):
        with pytest.raises(ConfigurationError):
            small_problem.size_of(1)

    def test_nbytes_of_msgset(self, small_problem):
        assert small_problem.nbytes({0, 3}) == 2048
        assert small_problem.nbytes(frozenset()) == 0

    def test_is_source(self, small_problem):
        assert small_problem.is_source(0)
        assert not small_problem.is_source(1)

    def test_initial_holdings(self, small_problem):
        holdings = small_problem.initial_holdings()
        assert holdings[0] == frozenset({0})
        assert holdings[1] == frozenset()
        assert len(holdings) == 20
