"""Unit tests for the MPI library-collective algorithms."""

from __future__ import annotations

from repro.core import BroadcastProblem, run_broadcast
from repro.core.algorithms import MPIAllGather, MPIAlltoAll
from repro.distributions import DISTRIBUTIONS
from repro.machines import t3d
from tests.schedule_view import all_rounds


def ring_sends(sched):
    """The sends of every ``ring-*`` round, in send order."""
    return [
        t
        for label, rnd in zip(sched.round_label, all_rounds(sched))
        if label.startswith("ring")
        for t in rnd
    ]


class TestStructureSelection:
    def test_monolithic_on_paragon(self, square_paragon):
        problem = BroadcastProblem(square_paragon, (0, 5, 9), message_size=64)
        sched = MPIAllGather().build_schedule(problem)
        labels = sched.round_label
        assert labels[0] == "gather"
        assert any(lbl.startswith("bcast") for lbl in labels)

    def test_pipelined_on_t3d(self, small_t3d):
        problem = BroadcastProblem(small_t3d, (0, 5, 9), message_size=64)
        sched = MPIAllGather().build_schedule(problem)
        labels = sched.round_label
        assert labels[0] == "gatherv"
        assert any(lbl.startswith("ring") for lbl in labels)

    def test_collective_mode_flags_set(self, square_paragon):
        problem = BroadcastProblem(square_paragon, (0, 5), message_size=64)
        for algo in (MPIAllGather(), MPIAlltoAll()):
            sched = algo.build_schedule(problem)
            assert all(sched.round_collective)
            assert all(sched.round_mpi)

    def test_both_validate_on_both_machines(self, square_paragon, small_t3d):
        for machine in (square_paragon, small_t3d):
            for s in (1, 5, machine.p):
                problem = BroadcastProblem(
                    machine, tuple(range(s)), message_size=64
                )
                MPIAllGather().build_schedule(problem).validate()
                MPIAlltoAll().build_schedule(problem).validate()


class TestPipelinedRing:
    def test_segmentation_of_large_messages(self, small_t3d):
        seg = small_t3d.params.collective_segment_bytes
        problem = BroadcastProblem(small_t3d, (3,), message_size=4 * seg)
        sched = MPIAllGather().build_schedule(problem)
        ring = ring_sends(sched)
        # 4 segments traverse p - 1 edges each
        assert len(ring) == 4 * (small_t3d.p - 1)
        assert all(t.nbytes(problem) == seg for t in ring)

    def test_small_message_single_segment(self, small_t3d):
        problem = BroadcastProblem(small_t3d, (3,), message_size=100)
        sched = MPIAllGather().build_schedule(problem)
        ring = ring_sends(sched)
        assert len(ring) == small_t3d.p - 1
        assert all(t.nbytes(problem) == 100 for t in ring)

    def test_segment_bytes_sum_to_message(self, small_t3d):
        problem = BroadcastProblem(small_t3d, (3,), message_size=40_000)
        sched = MPIAllGather().build_schedule(problem)
        first_edge_bytes = sum(
            t.nbytes(problem)
            for t in ring_sends(sched)
            if t.src == sched.problem.machine.linear_order()[0]
        )
        assert first_edge_bytes == 40_000


class TestPaperShapes:
    def test_paragon_mpi_versions_slower_than_nx(self, square_paragon):
        """Figure 3: MPI variants trail their NX counterparts."""
        src = DISTRIBUTIONS["E"].generate(square_paragon, 30)
        prob = BroadcastProblem(square_paragon, src, message_size=4096)
        assert (
            run_broadcast(prob, "MPI_AllGather").elapsed_us
            > run_broadcast(prob, "2-Step").elapsed_us
        )
        assert (
            run_broadcast(prob, "MPI_Alltoall").elapsed_us
            > run_broadcast(prob, "PersAlltoAll").elapsed_us
        )

    def test_t3d_alltoall_beats_allgather_and_br_lin(self):
        """Figure 13(a): the T3D inverts the Paragon ordering."""
        machine = t3d(128)
        src = DISTRIBUTIONS["E"].generate(machine, 40)
        prob = BroadcastProblem(machine, src, message_size=4096)
        t_a2a = run_broadcast(prob, "MPI_Alltoall").elapsed_us
        t_ag = run_broadcast(prob, "MPI_AllGather").elapsed_us
        t_lin = run_broadcast(prob, "Br_Lin").elapsed_us
        assert t_a2a < t_ag < t_lin

    def test_t3d_allgather_converges_toward_alltoall(self):
        """Figure 13(a): the AllGather/AlltoAll gap narrows as s grows."""
        machine = t3d(128)
        ratios = []
        for s in (10, 100):
            src = DISTRIBUTIONS["E"].generate(machine, s)
            prob = BroadcastProblem(machine, src, message_size=4096)
            t_a2a = run_broadcast(prob, "MPI_Alltoall").elapsed_us
            t_ag = run_broadcast(prob, "MPI_AllGather").elapsed_us
            ratios.append(t_ag / t_a2a)
        assert ratios[1] < ratios[0]

    def test_t3d_fixed_total_faster_with_more_sources(self):
        """Figure 12: spreading a fixed total over more sources helps."""
        machine = t3d(128)
        total = 131072
        times = []
        for s in (4, 64):
            src = DISTRIBUTIONS["E"].generate(machine, s)
            prob = BroadcastProblem(machine, src, message_size=total // s)
            times.append(run_broadcast(prob, "MPI_AllGather").elapsed_us)
        assert times[1] < times[0]
