"""Unit tests for the Machine runner and its shape helpers."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, DeadlockError
from repro.machines import Machine, paragon, t3d
from repro.network.linear import LinearArray
from tests.conftest import TEST_PARAMS


class TestShapeHelpers:
    def test_paragon_is_mesh_with_stable_ranks(self, small_paragon):
        assert small_paragon.is_mesh
        assert small_paragon.topology_stable_ranks
        assert small_paragon.mesh_shape == (4, 5)

    def test_t3d_is_not_mesh(self, small_t3d):
        assert not small_t3d.is_mesh
        assert not small_t3d.topology_stable_ranks

    def test_mesh_coords_roundtrip(self, small_paragon):
        topo = small_paragon.topology
        for rank in range(small_paragon.p):
            r, c = topo.coords(rank)
            assert topo.node_at(r, c) == rank

    def test_mesh_shape_rejected_off_mesh(self, small_t3d):
        with pytest.raises(ConfigurationError):
            small_t3d.mesh_shape

    def test_logical_grid_mesh(self, small_paragon):
        assert small_paragon.logical_grid == (4, 5)

    def test_logical_grid_t3d_near_square(self):
        assert t3d(128).logical_grid == (8, 16)
        assert t3d(64).logical_grid == (8, 8)

    def test_linear_order_snake_on_mesh(self, small_paragon):
        order = small_paragon.linear_order()
        assert order[:10] == [0, 1, 2, 3, 4, 9, 8, 7, 6, 5]
        assert sorted(order) == list(range(20))

    def test_linear_order_snake_rows_alternate(self):
        # row0 L->R, row1 R->L, row2 L->R
        expected = [0, 1, 2, 3, 7, 6, 5, 4, 8, 9, 10, 11]
        assert paragon(3, 4).linear_order() == expected

    def test_linear_order_steps_are_physical_neighbors(self):
        machine = paragon(5, 6)
        order = machine.linear_order()
        for u, v in zip(order, order[1:]):
            assert machine.topology.has_wire_link(u, v), (u, v)

    def test_linear_order_identity_off_mesh(self, small_t3d):
        assert small_t3d.linear_order() == list(range(32))


class TestRun:
    def test_ping_pong_timing(self, line_machine):
        """Hand-computed timing for one message over 3 hops."""

        def program(comm):
            if comm.rank == 0:
                yield from comm.send(3, "ball", nbytes=100, tag=1)
            elif comm.rank == 3:
                env = yield from comm.recv(source=0, tag=1)
                return env.payload
            return None
            yield

        result = line_machine.run(program)
        # sender overhead 10 + (3 hops * 0.1 + 100 * 0.01) wire
        # + recv overhead 5 + copy 100 * 0.02 = 10 + 1.3 + 5 + 2
        assert result.elapsed_us == pytest.approx(18.3)
        assert result.returns[3] == "ball"

    def test_run_is_deterministic(self, small_paragon):
        def program(comm):
            dst = (comm.rank + 7) % comm.size
            req = yield from comm.isend(dst, None, nbytes=512, tag=0)
            yield from comm.recv(source=(comm.rank - 7) % comm.size, tag=0)
            yield from req.wait()
            return comm.now

        r1 = small_paragon.run(program)
        r2 = small_paragon.run(program)
        assert r1.elapsed_us == r2.elapsed_us
        assert r1.returns == r2.returns

    def test_t3d_seed_changes_timing(self, small_t3d):
        def program(comm):
            dst = (comm.rank + 1) % comm.size
            req = yield from comm.isend(dst, None, nbytes=4096, tag=0)
            yield from comm.recv(source=(comm.rank - 1) % comm.size, tag=0)
            yield from req.wait()

        r1 = small_t3d.run(program, seed=0)
        r2 = small_t3d.run(program, seed=1)
        assert r1.elapsed_us != r2.elapsed_us  # different placements

    def test_unmatched_recv_deadlocks_with_diagnostic(self, line_machine):
        def program(comm):
            if comm.rank == 0:
                yield from comm.recv(source=1, tag=9)  # nobody sends

        with pytest.raises(DeadlockError, match="rank0"):
            line_machine.run(program)

    def test_contention_flag_reaches_fabric(self, line_machine):
        def program(comm):
            if comm.rank in (0, 1):
                yield from comm.send(7, None, nbytes=10_000, tag=comm.rank)
            elif comm.rank == 7:
                yield from comm.recv(source=0, tag=0)
                yield from comm.recv(source=1, tag=1)

        with_c = line_machine.run(program, contention=True)
        without_c = line_machine.run(program, contention=False)
        # The shared wire/ejection links delay the second message only
        # under contention (the receiver's copy time can hide it from
        # the elapsed figure, so assert on the measured link wait).
        assert with_c.fabric_link_wait > 0.0
        assert without_c.fabric_link_wait == 0.0

    def test_metrics_in_result(self, line_machine):
        def program(comm):
            if comm.rank == 0:
                yield from comm.send(1, None, nbytes=256, tag=0)
            elif comm.rank == 1:
                yield from comm.recv(source=0, tag=0)

        result = line_machine.run(program)
        assert result.metrics.total_messages == 1
        assert result.metrics.total_bytes == 256
        assert result.fabric_transfers == 1


class TestFactories:
    def test_paragon_rejects_bad_shape(self):
        with pytest.raises(ConfigurationError):
            paragon(0, 5)

    def test_t3d_rejects_bad_size(self):
        with pytest.raises(ConfigurationError):
            t3d(0)

    def test_t3d_power_of_two_only(self):
        with pytest.raises(Exception):
            t3d(100)

    def test_generic_machine(self):
        m = Machine(LinearArray(4), TEST_PARAMS)
        assert m.p == 4
        assert not m.is_mesh
