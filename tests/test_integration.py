"""Cross-module integration tests: the full pipeline on real configs.

These are the suite's heaviest tests: every registered algorithm runs
on paper-scale machines across all §4 distributions, end-to-end through
the event engine, with delivery verified per rank.
"""

from __future__ import annotations

import pytest

from repro.core import BroadcastProblem, run_broadcast
from repro.core.algorithms import get_algorithm, list_algorithms
from repro.distributions import DISTRIBUTIONS
from repro.machines import paragon, t3d

PARAGON_ALGOS = sorted(list_algorithms())
T3D_ALGOS = [
    name
    for name in sorted(list_algorithms())
    if get_algorithm(name).supports(t3d(8))
]


class TestParagonPipeline:
    @pytest.mark.parametrize("name", PARAGON_ALGOS)
    def test_every_algorithm_delivers_on_10x10(self, name, square_paragon):
        algo = get_algorithm(name)
        src = DISTRIBUTIONS["E"].generate(square_paragon, 30)
        problem = BroadcastProblem(square_paragon, src, message_size=1024)
        result = run_broadcast(problem, algo)
        assert result.elapsed_us > 0

    @pytest.mark.parametrize("key", sorted(DISTRIBUTIONS))
    def test_every_distribution_under_repositioning(self, key, square_paragon):
        src = DISTRIBUTIONS[key].generate(square_paragon, 30)
        problem = BroadcastProblem(square_paragon, src, message_size=1024)
        run_broadcast(problem, "Repos_xy_source")

    def test_extreme_source_counts(self, square_paragon):
        for name in ("Br_Lin", "Br_xy_source", "2-Step", "Part_Lin"):
            for s in (1, 2, 99, 100):
                problem = BroadcastProblem(
                    square_paragon, tuple(range(s)), message_size=256
                )
                run_broadcast(problem, name)

    def test_non_uniform_message_sizes(self, square_paragon):
        sizes = {0: 128, 17: 8192, 55: 1024}
        problem = BroadcastProblem(
            square_paragon, (0, 17, 55), message_size=512, sizes=sizes
        )
        for name in ("Br_Lin", "Br_xy_source", "Repos_xy_source", "2-Step"):
            result = run_broadcast(problem, name)
            assert result.elapsed_us > 0

    def test_good_distribution_stays_good_with_varied_sizes(
        self, square_paragon
    ):
        """§5: varying the message lengths does not reorder distributions."""
        import numpy as np

        rng = np.random.default_rng(1)
        times = {}
        for key in ("R", "Sq"):
            src = DISTRIBUTIONS[key].generate(square_paragon, 30)
            sizes = {
                rank: int(rng.integers(1024, 4096)) for rank in src
            }
            problem = BroadcastProblem(
                square_paragon, src, message_size=2048, sizes=sizes
            )
            times[key] = run_broadcast(problem, "Br_xy_source").elapsed_us
        assert times["R"] < times["Sq"]


class TestT3DPipeline:
    @pytest.mark.parametrize("name", T3D_ALGOS)
    def test_every_supported_algorithm_delivers_on_t3d64(self, name):
        machine = t3d(64)
        src = DISTRIBUTIONS["E"].generate(machine, 16)
        problem = BroadcastProblem(machine, src, message_size=1024)
        run_broadcast(problem, name)

    def test_seeds_change_time_not_correctness(self):
        machine = t3d(64)
        src = DISTRIBUTIONS["Dr"].generate(machine, 16)
        problem = BroadcastProblem(machine, src, message_size=4096)
        times = {
            run_broadcast(problem, "Br_Lin", seed=seed).elapsed_us
            for seed in range(4)
        }
        assert len(times) > 1  # placement matters


class TestMachineScaling:
    def test_rectangular_120_node_shapes(self):
        """Figure 8's machine family: every factorization of 120."""
        for rows, cols in ((4, 30), (6, 20), (8, 15), (10, 12), (12, 10)):
            machine = paragon(rows, cols)
            src = DISTRIBUTIONS["E"].generate(machine, 15)
            problem = BroadcastProblem(machine, src, message_size=4096)
            run_broadcast(problem, "Br_Lin")

    def test_tiny_machines(self):
        for shape in ((1, 2), (2, 1), (2, 2), (1, 7)):
            machine = paragon(*shape)
            problem = BroadcastProblem(machine, (0,), message_size=64)
            for name in ("Br_Lin", "2-Step", "PersAlltoAll", "Br_xy_source"):
                run_broadcast(problem, name)

    def test_single_processor_machine(self):
        machine = paragon(1, 1)
        problem = BroadcastProblem(machine, (0,), message_size=64)
        result = run_broadcast(problem, "Br_Lin")
        assert result.elapsed_us == 0.0
        assert result.num_transfers == 0
