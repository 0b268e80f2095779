"""Unit tests for the ideal-distribution search."""

from __future__ import annotations

import itertools

import pytest

from repro.core.ideal import (
    best_line_positions,
    ideal_linear_sources,
    ideal_row_sources,
)
from repro.core.structure import estimate_halving_time
from repro.distributions import DISTRIBUTIONS
from repro.errors import DistributionError
from repro.machines import paragon, t3d


class TestBestLinePositions:
    def test_bounds_checked(self):
        with pytest.raises(DistributionError):
            best_line_positions(10, 0)
        with pytest.raises(DistributionError):
            best_line_positions(10, 11)

    def test_k_equals_n(self):
        assert best_line_positions(6, 6) == (0, 1, 2, 3, 4, 5)

    def test_returns_k_distinct_in_range(self):
        for n, k in ((10, 2), (16, 5), (13, 7), (100, 9)):
            pos = best_line_positions(n, k)
            assert len(pos) == k
            assert len(set(pos)) == k
            assert all(0 <= x < n for x in pos)

    def test_avoids_halving_partners_on_10_2(self):
        """The paper's example: {0, 5} pairs at iteration 1 and wastes
        it; the searched placement must do strictly better."""
        found = best_line_positions(10, 2)
        assert estimate_halving_time(10, found) < estimate_halving_time(
            10, (0, 5)
        )
        # the two positions must not be halving partners (distance 5)
        a, b = found
        assert b - a != 5

    def test_beats_even_spacing_for_power_of_two(self):
        found = best_line_positions(16, 4)
        even = (0, 4, 8, 12)  # every position pairs with another source
        assert estimate_halving_time(16, found) <= estimate_halving_time(
            16, even
        )

    @pytest.mark.parametrize("n,k", [(10, 2), (16, 5)])
    def test_pick_is_the_first_minimum_of_the_exhaustive_scan(self, n, k):
        """Ties at the estimator's minimum go to the lexicographically
        first placement, and there are many of them."""
        placements = list(itertools.combinations(range(n), k))
        scores = [estimate_halving_time(n, pos) for pos in placements]
        best = min(scores)
        assert best_line_positions(n, k) == placements[scores.index(best)]
        assert scores.count(best) > 1

    def test_ten_rows_pick_and_spread(self):
        """R(20) on 10 rows: the search picks {0, 1}, one of 24 tied pairs
        that include the paper's {0, 6}; even spacing scores higher."""
        assert best_line_positions(10, 2) == (0, 1)
        pairs = list(itertools.combinations(range(10), 2))
        score = {pair: estimate_halving_time(10, pair) for pair in pairs}
        tied = [pair for pair in pairs if score[pair] == score[(0, 1)]]
        assert len(tied) == 24 and len(pairs) == 45
        assert {(0, 4), (0, 6), (0, 9)} <= set(tied)
        assert score[(0, 1)] == pytest.approx(419.264)
        assert score[(0, 5)] == pytest.approx(523.712)

    def test_cached_and_deterministic(self):
        assert best_line_positions(12, 5) == best_line_positions(12, 5)


class TestIdealGenerators:
    def test_ideal_rows_are_full_rows(self):
        machine = paragon(10, 10)
        ranks = ideal_row_sources(machine, 30)
        assert len(ranks) == 30
        by_row = {}
        for rank in ranks:
            by_row.setdefault(rank // 10, []).append(rank)
        assert len(by_row) == 3
        assert sorted(len(v) for v in by_row.values()) == [10, 10, 10]

    def test_ideal_rows_partial_last(self):
        machine = paragon(10, 10)
        ranks = ideal_row_sources(machine, 25)
        by_row = {}
        for rank in ranks:
            by_row.setdefault(rank // 10, []).append(rank)
        assert sorted(len(v) for v in by_row.values()) == [5, 10, 10]

    def test_ideal_rows_avoid_partner_rows_on_10(self):
        """Rows 0 and 5 are halving partners on a 10-row mesh — the
        searched ideal must avoid that pairing (the R(20) observation)."""
        machine = paragon(10, 10)
        ranks = ideal_row_sources(machine, 20)
        rows = sorted({rank // 10 for rank in ranks})
        assert len(rows) == 2
        assert rows[1] - rows[0] != 5

    def test_ideal_linear_maps_through_snake(self):
        machine = paragon(4, 5)
        ranks = ideal_linear_sources(machine, 3)
        assert len(set(ranks)) == 3
        assert all(0 <= r < 20 for r in ranks)

    def test_generators_work_on_t3d_logical_grid(self):
        machine = t3d(64)
        for fn in (
            ideal_row_sources,
            ideal_linear_sources,
            DISTRIBUTIONS["Dl"].generate,
        ):
            ranks = fn(machine, 12)
            assert len(set(ranks)) == 12

    def test_s_bounds(self):
        machine = paragon(4, 4)
        with pytest.raises(DistributionError):
            ideal_row_sources(machine, 0)
        with pytest.raises(DistributionError):
            ideal_linear_sources(machine, 17)


class TestEstimator:
    def test_more_sources_not_faster_for_fixed_L(self):
        t1 = estimate_halving_time(16, (0,))
        t8 = estimate_halving_time(16, tuple(range(8)))
        assert t8 > t1  # more data to merge and move

    def test_search_beats_even_spacing(self):
        """Evenly spaced power-of-two placements pair source with source
        at every level; the search must strictly improve on them."""
        spread = estimate_halving_time(64, best_line_positions(64, 8))
        even = estimate_halving_time(64, tuple(range(0, 64, 8)))
        assert spread < even

    def test_zero_sources_edge(self):
        # degenerate but defined: nothing moves
        assert estimate_halving_time(8, ()) == 0.0
