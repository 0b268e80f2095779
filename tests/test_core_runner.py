"""Unit tests for run_broadcast and BroadcastResult."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import BroadcastProblem, run_broadcast
from repro.core.algorithms import BrLin, get_algorithm
from repro.core.schedule import Schedule
from repro.errors import AlgorithmError, VerificationError


class TestRunBroadcast:
    def test_accepts_registry_name(self, small_problem):
        result = run_broadcast(small_problem, "Br_Lin")
        assert result.algorithm == "Br_Lin"
        assert result.elapsed_us > 0

    def test_accepts_instance(self, small_problem):
        result = run_broadcast(small_problem, BrLin())
        assert result.algorithm == "Br_Lin"

    def test_registry_names_case_insensitive(self, small_problem):
        result = run_broadcast(small_problem, "br_lin")
        assert result.algorithm == "Br_Lin"

    def test_unknown_algorithm_raises(self, small_problem):
        with pytest.raises(AlgorithmError, match="unknown algorithm"):
            run_broadcast(small_problem, "Does_Not_Exist")

    def test_elapsed_ms_conversion(self, small_problem):
        result = run_broadcast(small_problem, "Br_Lin")
        assert result.elapsed_ms == pytest.approx(result.elapsed_us / 1000.0)

    def test_deterministic_given_seed(self, small_problem):
        a = run_broadcast(small_problem, "Br_xy_source", seed=0)
        b = run_broadcast(small_problem, "Br_xy_source", seed=0)
        assert a.elapsed_us == b.elapsed_us

    def test_contention_off_is_faster_or_equal(self, small_problem):
        on = run_broadcast(small_problem, "2-Step", contention=True)
        off = run_broadcast(small_problem, "2-Step", contention=False)
        assert off.elapsed_us <= on.elapsed_us

    def test_counts_reported(self, small_problem):
        result = run_broadcast(small_problem, "Br_Lin")
        assert result.num_rounds >= 1
        assert result.num_transfers >= small_problem.s

    def test_verification_catches_bad_schedule(self, small_problem):
        class Broken(BrLin):
            name = "Broken"

            def build_schedule(self, problem):
                sched = Schedule(problem, algorithm=self.name)
                src = problem.sources[0]
                dst = (src + 1) % problem.p
                sched.add_round([(src, dst, frozenset({src}))])
                return sched  # delivers to one rank only

        with pytest.raises(VerificationError):
            run_broadcast(small_problem, Broken())

    def test_event_engine_checks_simulated_delivery(
        self, small_problem, monkeypatch
    ):
        """A payload the message layer loses fails the run, although the
        schedule validated: the check covers the wire, not the plan."""
        from repro.mpsim.comm import Comm

        real_recv = Comm.recv
        emptied = []

        def lossy_recv(self, *args, **kwargs):
            envelope = yield from real_recv(self, *args, **kwargs)
            if emptied:
                return envelope
            emptied.append(envelope)
            return dataclasses.replace(envelope, payload=frozenset())

        monkeypatch.setattr(Comm, "recv", lossy_recv)
        # PersAlltoAll moves each source's message to each rank exactly
        # once, so the emptied envelope's message never arrives.
        with pytest.raises(VerificationError, match="simulated delivery"):
            run_broadcast(small_problem, "PersAlltoAll", engine="event")
        assert len(emptied) == 1

    def test_mesh_algorithm_rejected_on_t3d(self, small_t3d):
        problem = BroadcastProblem(small_t3d, (0, 5, 9))
        with pytest.raises(AlgorithmError, match="mesh"):
            run_broadcast(problem, "Br_xy_source")

    def test_all_registered_names_resolve(self):
        from repro.core.algorithms import list_algorithms

        for name in list_algorithms():
            assert get_algorithm(name).name == name
