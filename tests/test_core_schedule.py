"""Unit tests for the schedule IR: transfers, rounds, validation."""

from __future__ import annotations

import pytest

from repro.core.problem import BroadcastProblem
from repro.core.schedule import Schedule, Transfer
from repro.errors import AlgorithmError, VerificationError


@pytest.fixture
def problem(line_machine):
    return BroadcastProblem(line_machine, (0, 4), message_size=100)


class TestTransfer:
    def test_msgset_coerced_to_frozenset(self):
        t = Transfer(0, 1, {2, 3})
        assert isinstance(t.msgset, frozenset)
        assert t.msgset == frozenset({2, 3})

    def test_self_transfer_rejected(self):
        with pytest.raises(AlgorithmError):
            Transfer(1, 1, frozenset({0}))

    def test_empty_msgset_rejected(self):
        with pytest.raises(AlgorithmError):
            Transfer(0, 1, frozenset())

    def test_nbytes_from_problem(self, problem):
        t = Transfer(0, 1, frozenset({0, 4}))
        assert t.nbytes(problem) == 200

    def test_nbytes_override(self, problem):
        t = Transfer(0, 1, frozenset({0}), nbytes_override=37)
        assert t.nbytes(problem) == 37

    @pytest.mark.parametrize("override", [0, -1])
    def test_bad_override_rejected(self, override):
        with pytest.raises(AlgorithmError):
            Transfer(0, 1, frozenset({0}), nbytes_override=override)


class TestScheduleConstruction:
    def test_empty_rounds_dropped(self, problem):
        sched = Schedule(problem)
        sched.add_round([], label="nothing")
        assert sched.num_rounds == 0

    def test_round_flags_preserved(self, problem):
        sched = Schedule(problem)
        sched.add_round(
            [Transfer(0, 1, frozenset({0}))], collective=True, mpi=True
        )
        assert sched.rounds[0].collective
        assert sched.rounds[0].mpi

    def test_extend_concatenates(self, problem):
        a = Schedule(problem)
        a.add_round([Transfer(0, 1, frozenset({0}))])
        b = Schedule(problem)
        b.add_round([Transfer(4, 3, frozenset({4}))])
        a.rounds.extend(b.rounds)
        assert a.num_rounds == 2

    def test_counts(self, problem):
        sched = Schedule(problem)
        sched.add_round(
            [Transfer(0, 1, frozenset({0})), Transfer(4, 3, frozenset({4}))]
        )
        assert sched.num_transfers == 2
        assert len(sched.rounds[0]) == 2


class TestValidation:
    def _full_broadcast(self, problem):
        """A tiny hand-built valid schedule on the 8-node line."""
        sched = Schedule(problem, algorithm="hand")
        # round 0: 0 and 4 exchange
        sched.add_round(
            [Transfer(0, 4, frozenset({0})), Transfer(4, 0, frozenset({4}))]
        )
        both = frozenset({0, 4})
        # rounds: flood outward
        sched.add_round(
            [Transfer(0, 2, both), Transfer(4, 6, both)]
        )
        sched.add_round(
            [
                Transfer(0, 1, both),
                Transfer(2, 3, both),
                Transfer(4, 5, both),
                Transfer(6, 7, both),
            ]
        )
        return sched

    def test_valid_schedule_passes(self, problem):
        self._full_broadcast(problem).validate()

    def test_causality_violation_detected(self, problem):
        sched = Schedule(problem, algorithm="bad")
        # rank 1 holds nothing yet sends message 0
        sched.add_round([Transfer(1, 2, frozenset({0}))])
        with pytest.raises(AlgorithmError, match="does not hold"):
            sched.validate()

    def test_same_round_forwarding_is_not_causal(self, problem):
        """Snapshot semantics: data received in round k is unusable in k."""
        sched = Schedule(problem, algorithm="bad")
        sched.add_round(
            [Transfer(0, 1, frozenset({0})), Transfer(1, 2, frozenset({0}))]
        )
        with pytest.raises(AlgorithmError, match="does not hold"):
            sched.validate()

    def test_incomplete_delivery_detected(self, problem):
        sched = Schedule(problem, algorithm="partial")
        sched.add_round([Transfer(0, 4, frozenset({0}))])
        with pytest.raises(VerificationError, match="incomplete"):
            sched.validate()

    def test_out_of_range_rank_detected(self, problem):
        sched = Schedule(problem, algorithm="oob")
        sched.add_round([Transfer(0, 99, frozenset({0}))])
        with pytest.raises(AlgorithmError, match="outside"):
            sched.validate()

    def test_non_source_id_detected(self, problem):
        sched = Schedule(problem, algorithm="phantom")
        sched.add_round([Transfer(0, 1, frozenset({0, 3}))])
        with pytest.raises(AlgorithmError):
            sched.validate()


class TestStatistics:
    def test_ops_by_rank(self, problem):
        sched = Schedule(problem)
        sched.add_round(
            [Transfer(0, 1, frozenset({0})), Transfer(0, 2, frozenset({0}))]
        )
        ops = sched.ops_by_rank()
        assert ops[0] == 2  # two sends
        assert ops[1] == 1
        assert ops[2] == 1
