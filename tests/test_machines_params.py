"""Unit tests for machine parameters."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.machines import MachineParams
from repro.machines.paragon import PARAGON_PARAMS
from repro.machines.t3d import T3D_PARAMS


def make_params(**overrides):
    base = dict(
        name="p",
        t_send_overhead=10.0,
        t_recv_overhead=5.0,
        t_byte=0.01,
        t_hop=0.1,
        t_mem_byte=0.02,
    )
    base.update(overrides)
    return MachineParams(**base)


class TestValidation:
    def test_negative_field_rejected(self):
        with pytest.raises(ConfigurationError):
            make_params(t_byte=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_field_rejected(self, value):
        with pytest.raises(ConfigurationError):
            make_params(t_byte=value)

    def test_bad_collective_style_rejected(self):
        with pytest.raises(ConfigurationError):
            make_params(collective_style="magic")

    def test_bad_segment_size_rejected(self):
        with pytest.raises(ConfigurationError):
            make_params(collective_segment_bytes=0)

    def test_fractional_segment_size_rejected(self):
        with pytest.raises(ConfigurationError):
            make_params(collective_segment_bytes=1.5)


class TestOverheadTiers:
    def test_plain_overheads(self):
        p = make_params()
        assert p.send_overhead() == 10.0
        assert p.recv_overhead() == 5.0

    def test_collective_scale(self):
        p = make_params(collective_overhead_scale=0.1)
        assert p.send_overhead(collective=True) == pytest.approx(1.0)
        assert p.send_overhead(collective=False) == 10.0

    def test_mpi_scale(self):
        p = make_params(mpi_overhead_scale=1.5)
        assert p.recv_overhead(mpi=True) == pytest.approx(7.5)

    def test_scales_compose(self):
        p = make_params(collective_overhead_scale=0.5, mpi_overhead_scale=2.0)
        assert p.send_overhead(collective=True, mpi=True) == pytest.approx(10.0)


class TestCopyAndLatency:
    def test_copy_cost(self):
        p = make_params()
        assert p.copy_cost(100) == pytest.approx(2.0)

    def test_collective_copy_scale(self):
        p = make_params(collective_mem_scale=0.1)
        assert p.copy_cost(100, collective=True) == pytest.approx(0.2)

    def test_latency_composition(self):
        p = make_params(route_setup=1.0)
        # o_s + setup + 2 hops + bytes*(wire+copy) + o_r
        assert p.latency(100, hops=2) == pytest.approx(
            10 + 1 + 0.2 + 100 * 0.01 + 5 + 100 * 0.02
        )

    def test_with_overrides_returns_copy(self):
        p = make_params()
        q = p.with_overrides(t_byte=0.5)
        assert q.t_byte == 0.5
        assert p.t_byte == 0.01
        assert q.name == p.name


class TestCalibratedPresets:
    def test_paragon_software_heavier_than_t3d(self):
        assert PARAGON_PARAMS.t_send_overhead > T3D_PARAMS.t_send_overhead

    def test_t3d_wire_faster(self):
        assert T3D_PARAMS.t_byte < PARAGON_PARAMS.t_byte

    def test_t3d_has_collective_fast_path(self):
        assert T3D_PARAMS.collective_overhead_scale < 0.5
        assert PARAGON_PARAMS.collective_overhead_scale == 1.0

    def test_paragon_mpi_penalty(self):
        assert PARAGON_PARAMS.mpi_overhead_scale > 1.0

    def test_collective_styles(self):
        assert PARAGON_PARAMS.collective_style == "monolithic"
        assert T3D_PARAMS.collective_style == "pipelined"
