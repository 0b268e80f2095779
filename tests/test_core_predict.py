"""Unit tests for the closed-form prediction model."""

from __future__ import annotations

import pytest

from repro.core import BroadcastProblem, run_broadcast
from repro.core.algorithms import get_algorithm, list_algorithms
from repro.core.predict import predict_broadcast_time, predict_schedule_time
from repro.core.schedule import Schedule
from repro.distributions import DISTRIBUTIONS
from repro.machines import machine_from_spec, paragon, t3d
from tests.conftest import model_is_exact


class TestPrimitive:
    def test_single_transfer_matches_hand_computation(self, line_machine):
        problem = BroadcastProblem(line_machine, (0,), message_size=100)
        sched = Schedule(problem, algorithm="t")
        sched.add_round([(0, 3, frozenset({0}))])
        predicted = predict_schedule_time(sched)
        # o_s 10 + wire (3 hops * 0.1 + 100 * 0.01) + o_r 5 + copy 2
        assert predicted == pytest.approx(18.3)

    def test_empty_schedule_is_zero(self, line_machine):
        problem = BroadcastProblem(line_machine, (0,), message_size=100)
        assert predict_schedule_time(Schedule(problem)) == 0.0

    def test_dependency_chain_accumulates(self, line_machine):
        problem = BroadcastProblem(line_machine, (0,), message_size=100)
        sched = Schedule(problem, algorithm="t")
        sched.add_round([(0, 1, frozenset({0}))])
        sched.add_round([(1, 2, frozenset({0}))])
        two_hop = predict_schedule_time(sched)
        one = Schedule(problem, algorithm="t")
        one.add_round([(0, 1, frozenset({0}))])
        assert two_hop > predict_schedule_time(one)

    def test_collective_rounds_use_fast_tier(self):
        machine = t3d(16)
        problem = BroadcastProblem(machine, (0,), message_size=4096)
        plain = Schedule(problem, algorithm="p")
        plain.add_round([(0, 1, frozenset({0}))])
        lib = Schedule(problem, algorithm="l")
        lib.add_round([(0, 1, frozenset({0}))], collective=True)
        assert predict_schedule_time(lib) < predict_schedule_time(plain)


#: Every registered algorithm except the predictor-driven selector.
SCHEDULE_ALGORITHMS = [name for name in list_algorithms() if name != "Auto_Predict"]


def exactness_grid():
    """Problems on a small grid of shapes, with the predicate's outsiders."""
    machines = [
        paragon(3, 5),
        paragon(4, 4),
        t3d(16),
        machine_from_spec("hypercube:16"),
        machine_from_spec("paragon:4x4+switching=store_and_forward"),
    ]
    for machine in machines:
        for dist in ("E", "R", "Cr"):
            for s in (1, 7):
                src = DISTRIBUTIONS[dist].generate(machine, s)
                yield BroadcastProblem(machine, src, message_size=2048)
        src = DISTRIBUTIONS["E"].generate(machine, 4)
        yield BroadcastProblem(
            machine, src, message_size=2048, sizes={src[0]: 64}
        )


#: The grid's problems on which the model claims exactness.
EXACT_PROBLEMS = [
    problem for problem in exactness_grid() if model_is_exact(problem)
]


class TestAgainstSimulation:
    @pytest.mark.parametrize("name", SCHEDULE_ALGORITHMS)
    def test_prediction_lower_bounds_simulation(self, name, square_paragon):
        """The model omits contention, so sim >= prediction (float eps)."""
        src = DISTRIBUTIONS["E"].generate(square_paragon, 30)
        problem = BroadcastProblem(square_paragon, src, message_size=4096)
        sim = run_broadcast(problem, name).elapsed_us
        pred = predict_broadcast_time(problem, name)
        assert sim >= pred * (1 - 1e-12)

    def test_exactness_grid_holds_the_predicate_outsiders(self):
        """The grid's store-and-forward and mixed-size problems fail the
        predicate, and every other problem meets it."""
        grid = list(exactness_grid())
        exact = [problem for problem in grid if model_is_exact(problem)]
        assert (len(grid), len(exact)) == (35, 24)

    @pytest.mark.parametrize("name", SCHEDULE_ALGORITHMS)
    def test_prediction_equals_contention_free_simulation(self, name):
        """Without contention the model is exact wherever it claims to be."""
        algorithm = get_algorithm(name)
        for problem in EXACT_PROBLEMS:
            if not algorithm.supports(problem.machine):
                continue
            sim = run_broadcast(problem, name, contention=False).elapsed_us
            pred = predict_broadcast_time(problem, name)
            assert sim == pytest.approx(pred, rel=1e-12, abs=0.0), (
                problem.machine.spec,
                problem.sources,
            )

    def test_same_pair_twice_in_one_round(self):
        """Two transfers between one pair in a round keep both arrivals.

        Naive_Independent on a 2x2 mesh with sources (0, 1) sends twice
        from one rank to another in a round; without contention the
        model is then exact.
        """
        problem = BroadcastProblem(paragon(2, 2), (0, 1), message_size=1024)
        sim = run_broadcast(
            problem, "Naive_Independent", contention=False
        ).elapsed_us
        assert sim == pytest.approx(362.2816, rel=1e-12)
        assert predict_broadcast_time(problem, "Naive_Independent") == sim

    @pytest.mark.parametrize(
        "name", ["Br_Lin", "Br_xy_source", "2-Step", "PersAlltoAll"]
    )
    def test_prediction_is_tight_on_light_contention(self, name, square_paragon):
        src = DISTRIBUTIONS["E"].generate(square_paragon, 30)
        problem = BroadcastProblem(square_paragon, src, message_size=4096)
        sim = run_broadcast(problem, name).elapsed_us
        pred = predict_broadcast_time(problem, name)
        assert sim <= 1.5 * pred

    def test_contention_attribution_ranks_flood_highest(self, square_paragon):
        """sim/pred measures contention-boundness: Naive >> Br_Lin."""
        src = DISTRIBUTIONS["E"].generate(square_paragon, 40)
        problem = BroadcastProblem(square_paragon, src, message_size=16384)

        def blowup(name):
            return (
                run_broadcast(problem, name).elapsed_us
                / predict_broadcast_time(problem, name)
            )

        assert blowup("Naive_Independent") > blowup("Br_Lin") + 0.3

    def test_prediction_orders_algorithms_like_simulation(self, square_paragon):
        src = DISTRIBUTIONS["E"].generate(square_paragon, 30)
        problem = BroadcastProblem(square_paragon, src, message_size=4096)
        names = ["Br_xy_source", "Br_Lin", "2-Step"]
        sim_order = sorted(
            names, key=lambda n: run_broadcast(problem, n).elapsed_us
        )
        pred_order = sorted(
            names, key=lambda n: predict_broadcast_time(problem, n)
        )
        assert sim_order == pred_order

    def test_t3d_prediction_uses_seed_mapping(self):
        machine = t3d(64)
        src = DISTRIBUTIONS["E"].generate(machine, 16)
        problem = BroadcastProblem(machine, src, message_size=4096)
        a = predict_broadcast_time(problem, "Br_Lin", seed=0)
        b = predict_broadcast_time(problem, "Br_Lin", seed=1)
        assert a != b  # different placements -> different hop counts
