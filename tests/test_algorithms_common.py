"""Unit tests for the halving pattern and GridView machinery."""

from __future__ import annotations

import pytest

from repro.core.algorithms.br_xy import xy_phase_rounds
from repro.core.algorithms.common import (
    GridView,
    folding_pairs,
    halving_pairs,
    halving_rounds,
    initial_holdings_map,
    merge_rounds,
)
from repro.core.problem import BroadcastProblem
from repro.errors import AlgorithmError


class TestHalvingPairs:
    def test_power_of_two_depth(self):
        assert len(halving_pairs(8)) == 3
        assert len(halving_pairs(16)) == 4

    def test_non_power_of_two_depth_is_ceil_log(self):
        assert len(halving_pairs(10)) == 4
        assert len(halving_pairs(5)) == 3

    def test_single_position_no_rounds(self):
        assert halving_pairs(1) == []

    def test_invalid_n(self):
        with pytest.raises(AlgorithmError):
            halving_pairs(0)

    def test_first_iteration_pairs_across_halves(self):
        pairs = halving_pairs(8)[0]
        assert pairs == [(0, 4, False), (1, 5, False), (2, 6, False), (3, 7, False)]

    def test_odd_segment_has_one_way_feed(self):
        pairs = halving_pairs(5)[0]
        # mid = 3: pairs (0,3), (1,4); extra one-way 2 -> 4
        assert (0, 3, False) in pairs
        assert (1, 4, False) in pairs
        assert (2, 4, True) in pairs

    def test_every_position_touched_across_iterations(self):
        for n in (2, 3, 7, 8, 13, 16, 100):
            touched = set()
            for pairs in halving_pairs(n):
                for a, b, _ in pairs:
                    touched.add(a)
                    touched.add(b)
            if n > 1:
                assert touched == set(range(n)), n

    def test_broadcast_completeness_from_any_single_position(self):
        """Structural check: one holder spreads to every position."""
        for n in (2, 5, 8, 11, 16):
            for start in range(n):
                holders = {start}
                for pairs in halving_pairs(n):
                    snapshot = set(holders)
                    for a, b, one_way in pairs:
                        if a in snapshot:
                            holders.add(b)
                        if not one_way and b in snapshot:
                            holders.add(a)
                assert holders == set(range(n)), (n, start)

    def test_union_completeness_from_all_positions(self):
        """Every position's message reaches every other position."""
        for n in (2, 5, 8, 10, 13):
            sets = {i: {i} for i in range(n)}
            for pairs in halving_pairs(n):
                snap = {i: set(s) for i, s in sets.items()}
                for a, b, one_way in pairs:
                    sets[b] |= snap[a]
                    if not one_way:
                        sets[a] |= snap[b]
            full = set(range(n))
            assert all(s == full for s in sets.values()), n


class TestFoldingPairs:
    def test_mirrors_halving_depth(self):
        for n in (2, 5, 8, 10, 16):
            assert len(folding_pairs(n)) == len(halving_pairs(n))

    def test_arrows_are_reversed_halving_arrows(self):
        folds = folding_pairs(8)
        halves = halving_pairs(8)
        for fold, pairs in zip(folds, reversed(halves)):
            assert fold == [(b, a, True) for a, b, _ in pairs]

    def test_fold_combines_everything_into_position_zero(self):
        """The dual of broadcast completeness: all contributions reach 0."""
        for n in (2, 3, 5, 8, 11, 13, 16):
            sets = {i: {i} for i in range(n)}
            for pairs in folding_pairs(n):
                snap = {i: set(s) for i, s in sets.items()}
                for src, dst, one_way in pairs:
                    assert one_way  # folds only ever push downward
                    sets[dst] |= snap[src]
            assert sets[0] == set(range(n)), n

    def test_rounds_have_disjoint_senders_and_receivers(self):
        # A position never sends and receives in the same fold round,
        # so a lock-step send/recv program cannot deadlock.
        for n in (3, 5, 8, 13):
            for pairs in folding_pairs(n):
                senders = {src for src, _, _ in pairs}
                receivers = {dst for _, dst, _ in pairs}
                assert not senders & receivers, n


class TestHalvingRounds:
    def test_one_way_send_when_one_side_empty(self, small_paragon):
        problem = BroadcastProblem(small_paragon, (0,), message_size=10)
        order = list(range(20))
        holdings = initial_holdings_map(problem, order)
        rounds = halving_rounds(order, holdings)
        # first round: only 0 -> 10 (one-way), nothing else has data
        assert rounds[0] == [(0, 10, frozenset({0}))]

    def test_exchange_when_both_hold(self, small_paragon):
        problem = BroadcastProblem(small_paragon, (0, 10), message_size=10)
        order = list(range(20))
        holdings = initial_holdings_map(problem, order)
        rounds = halving_rounds(order, holdings)
        first = {(src, dst) for src, dst, _msgset in rounds[0]}
        assert (0, 10) in first and (10, 0) in first

    def test_silence_when_both_empty(self, small_paragon):
        """With one source, only p - 1 one-way transfers ever happen —
        empty-empty pairs stay silent."""
        problem = BroadcastProblem(small_paragon, (0,), message_size=10)
        order = list(range(20))
        holdings = initial_holdings_map(problem, order)
        rounds = halving_rounds(order, holdings)
        assert sum(len(r) for r in rounds) == 19
        # round 0 pairs 10 positions but only one holds data
        assert len(rounds[0]) == 1

    def test_holdings_updated_in_place(self, small_paragon):
        problem = BroadcastProblem(small_paragon, (0, 10), message_size=10)
        order = list(range(20))
        holdings = initial_holdings_map(problem, order)
        halving_rounds(order, holdings)
        full = frozenset({0, 10})
        assert all(holdings[r] == full for r in order)


class TestMergeRounds:
    def test_round_k_is_every_groups_round_k_in_group_order(self):
        a = [
            [(0, 1, frozenset({0}))],
            [(0, 2, frozenset({0})), (1, 3, frozenset({0}))],
        ]
        b = [[(4, 5, frozenset({4}))]]
        c = [[], [(6, 7, frozenset({6}))], [(7, 8, frozenset({6}))]]
        assert merge_rounds([a, b, c]) == [
            [(0, 1, frozenset({0})), (4, 5, frozenset({4}))],
            [
                (0, 2, frozenset({0})),
                (1, 3, frozenset({0})),
                (6, 7, frozenset({6})),
            ],
            [(7, 8, frozenset({6}))],
        ]

    def test_no_groups_no_rounds(self):
        assert merge_rounds([]) == []

    def test_xy_phase_rounds_merges_per_line_halving(self, small_paragon):
        """The xy phase is the lines' halving rounds run side by side,
        the zip loop it replaced send for send."""
        problem = BroadcastProblem(small_paragon, (0, 6, 13, 19), message_size=8)
        view = GridView.full_machine(4, 5)
        for lines in (view.row_lines(), view.col_lines()):
            holdings = initial_holdings_map(problem, view.all_ranks())
            expected_holdings = dict(holdings)
            per_line = [halving_rounds(line, expected_holdings) for line in lines]
            expected = []
            for k in range(max(len(rounds) for rounds in per_line)):
                expected.append([
                    send
                    for rounds in per_line
                    if k < len(rounds)
                    for send in rounds[k]
                ])
            assert xy_phase_rounds(lines, holdings) == expected
            assert holdings == expected_holdings


class TestGridView:
    def test_full_machine_layout(self):
        view = GridView.full_machine(2, 3)
        assert view.cells == ((0, 1, 2), (3, 4, 5))
        assert view.rows == 2 and view.cols == 3

    def test_lines(self):
        view = GridView.full_machine(2, 3)
        assert view.row_lines() == [[0, 1, 2], [3, 4, 5]]
        assert view.col_lines() == [[0, 3], [1, 4], [2, 5]]

    def test_all_ranks_row_major(self):
        view = GridView.full_machine(2, 3)
        assert view.all_ranks() == [0, 1, 2, 3, 4, 5]

    def test_snake_order(self):
        view = GridView.full_machine(3, 3)
        assert view.snake_order() == [0, 1, 2, 5, 4, 3, 6, 7, 8]

    def test_split_prefers_larger_dimension(self):
        left, right = GridView.full_machine(2, 4).split()
        assert left.cols == right.cols == 2
        assert left.all_ranks() == [0, 1, 4, 5]
        assert right.all_ranks() == [2, 3, 6, 7]

    def test_split_falls_back_to_even_dimension(self):
        top, bottom = GridView.full_machine(4, 5).split()
        assert top.rows == bottom.rows == 2

    def test_split_rejects_doubly_odd(self):
        with pytest.raises(AlgorithmError):
            GridView.full_machine(3, 5).split()
        assert not GridView.full_machine(3, 5).splittable

    def test_ragged_rows_rejected(self):
        with pytest.raises(AlgorithmError):
            GridView([[0, 1], [2]])

    def test_empty_rejected(self):
        with pytest.raises(AlgorithmError):
            GridView([])
