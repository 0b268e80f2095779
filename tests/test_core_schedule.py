"""Unit tests for the schedule IR: its columns, phases, validation."""

from __future__ import annotations

import pytest

from repro.core.problem import BroadcastProblem
from repro.core.schedule import Schedule
from repro.errors import AlgorithmError, VerificationError
from repro.fastpath.lowering import lower_schedule


@pytest.fixture
def problem(line_machine):
    return BroadcastProblem(line_machine, (0, 4), message_size=100)


class TestAddRound:
    """The checks each send passes on its way into the columns."""

    def test_msgset_coerced_to_frozenset(self, problem):
        sched = Schedule(problem)
        sched.add_round([(0, 1, {0, 4})])
        assert type(sched.send_msgset[0]) is frozenset
        assert sched.send_msgset == [frozenset({0, 4})]

    @pytest.mark.parametrize(
        "send",
        [(1, 1, frozenset({0})), (0, 1, frozenset()), (0, 1, set())],
        ids=["self-send", "empty-frozenset", "empty-set"],
    )
    def test_bad_send_rejected(self, problem, send):
        sched = Schedule(problem)
        sched.add_round([(0, 4, frozenset({0}))])
        with pytest.raises(AlgorithmError):
            sched.add_round([(4, 0, frozenset({4})), send])
        # The rejected round left every column as it was.
        assert (sched.num_rounds, sched.send_src) == (1, [0])

    @pytest.mark.parametrize("override", [0, -1])
    def test_bad_override_rejected(self, problem, override):
        sched = Schedule(problem)
        with pytest.raises(AlgorithmError, match="positive"):
            sched.add_round([(0, 1, frozenset({0}), override)])
        assert sched.num_transfers == 0

    def test_nbytes_from_problem_or_override(self, problem):
        sched = Schedule(problem)
        sched.add_round(
            [(0, 1, frozenset({0, 4})), (0, 2, frozenset({0}), 37)]
        )
        assert sched.send_override == [None, 37]
        assert lower_schedule(sched).send_nbytes == [200, 37]

    def test_columns_record_each_send_and_round(self, problem):
        sched = Schedule(problem)
        sched.add_round([(0, 4, frozenset({0})), (4, 0, frozenset({4}))])
        sched.add_round([(0, 1, frozenset({0, 4}), None)], label="fwd-1")
        assert sched.send_src == [0, 4, 0]
        assert sched.send_dst == [4, 0, 1]
        assert sched.send_round == [0, 0, 1]
        assert sched.send_override == [None, None, None]
        assert sched.round_label == ["", "fwd-1"]
        assert sched.round_bounds() == [0, 2, 3]


class TestScheduleConstruction:
    def test_empty_rounds_dropped(self, problem):
        sched = Schedule(problem)
        sched.add_round([], label="nothing")
        assert sched.num_rounds == 0
        assert sched.round_bounds() == [0]

    def test_round_flags_preserved(self, problem):
        sched = Schedule(problem)
        sched.add_round([(0, 1, frozenset({0}))], collective=True, mpi=True)
        sched.add_round([(1, 2, frozenset({0}))])
        assert sched.round_collective == [True, False]
        assert sched.round_mpi == [True, False]

    def test_counts(self, problem):
        sched = Schedule(problem)
        sched.add_round([(0, 1, frozenset({0})), (4, 3, frozenset({4}))])
        assert sched.num_transfers == 2
        assert sched.num_rounds == 1
        assert sched.send_round == [0, 0]


class TestPhases:
    def test_unspanned_round_takes_its_label_stem(self, problem):
        sched = Schedule(problem)
        for label in ("halving-3", "gather", "", "ring-x"):
            sched.add_round([(0, 1, frozenset({0}))], label=label)
        assert sched.round_phase == ["halving", "gather", "round", "ring-x"]

    def test_span_names_its_rounds_and_nesting_restores(self, problem):
        sched = Schedule(problem)
        with sched.span("outer"):
            sched.add_round([(0, 1, frozenset({0}))], label="a-0")
            with sched.span("inner"):
                sched.add_round([(0, 2, frozenset({0}))], label="b-0")
            sched.add_round([(0, 3, frozenset({0}))], label="a-1")
        sched.add_round([(0, 5, frozenset({0}))], label="tail-0")
        assert sched.round_phase == ["outer", "inner", "outer", "tail"]


class TestValidation:
    def _full_broadcast(self, problem):
        """A tiny hand-built valid schedule on the 8-node line."""
        sched = Schedule(problem, algorithm="hand")
        # round 0: 0 and 4 exchange
        sched.add_round(
            [(0, 4, frozenset({0})), (4, 0, frozenset({4}))]
        )
        both = frozenset({0, 4})
        # rounds: flood outward
        sched.add_round(
            [(0, 2, both), (4, 6, both)]
        )
        sched.add_round(
            [
                (0, 1, both),
                (2, 3, both),
                (4, 5, both),
                (6, 7, both),
            ]
        )
        return sched

    def test_valid_schedule_passes(self, problem):
        self._full_broadcast(problem).validate()

    def test_causality_violation_detected(self, problem):
        sched = Schedule(problem, algorithm="bad")
        # rank 1 holds nothing yet sends message 0
        sched.add_round([(1, 2, frozenset({0}))])
        with pytest.raises(AlgorithmError, match="does not hold"):
            sched.validate()

    def test_same_round_forwarding_is_not_causal(self, problem):
        """Snapshot semantics: data received in round k is unusable in k."""
        sched = Schedule(problem, algorithm="bad")
        sched.add_round(
            [(0, 1, frozenset({0})), (1, 2, frozenset({0}))]
        )
        with pytest.raises(AlgorithmError, match="does not hold"):
            sched.validate()

    def test_incomplete_delivery_detected(self, problem):
        sched = Schedule(problem, algorithm="partial")
        sched.add_round([(0, 4, frozenset({0}))])
        with pytest.raises(VerificationError, match="incomplete"):
            sched.validate()

    def test_out_of_range_rank_detected(self, problem):
        sched = Schedule(problem, algorithm="oob")
        sched.add_round([(0, 99, frozenset({0}))])
        with pytest.raises(AlgorithmError, match="outside"):
            sched.validate()

    def test_non_source_id_detected(self, problem):
        sched = Schedule(problem, algorithm="phantom")
        sched.add_round([(0, 1, frozenset({0, 3}))])
        with pytest.raises(AlgorithmError):
            sched.validate()


class TestStatistics:
    def test_ops_by_rank(self, problem):
        sched = Schedule(problem)
        sched.add_round(
            [(0, 1, frozenset({0})), (0, 2, frozenset({0}))]
        )
        ops = sched.ops_by_rank()
        assert ops[0] == 2  # two sends
        assert ops[1] == 1
        assert ops[2] == 1
