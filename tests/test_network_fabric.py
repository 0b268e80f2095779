"""Unit tests for the path-reservation fabric (timing + contention)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.network import Fabric, LinearArray, Mesh2D


def make_fabric(topo=None, **kw):
    defaults = dict(t_byte=0.01, t_hop=1.0, route_setup=0.0, contention=True)
    defaults.update(kw)
    return Fabric(topo or LinearArray(8), **defaults)


class TestUncontendedTiming:
    def test_duration_formula(self):
        fabric = make_fabric(route_setup=2.0)
        stats = fabric.transfer(0, 3, nbytes=1000, now=0.0)
        # 3 hops * 1.0 + 1000 * 0.01 + setup 2.0
        assert stats.start_time == 0.0
        assert stats.finish_time == pytest.approx(15.0)
        assert stats.hops == 3

    def test_self_send_is_free_and_instant(self):
        fabric = make_fabric()
        stats = fabric.transfer(4, 4, nbytes=10_000, now=7.0)
        assert stats.start_time == stats.finish_time == 7.0
        assert stats.hops == 0
        assert fabric.transfers == 1

    def test_negative_size_rejected(self):
        fabric = make_fabric()
        with pytest.raises(ConfigurationError):
            fabric.transfer(0, 1, nbytes=-1, now=0.0)

    def test_negative_params_rejected(self):
        with pytest.raises(ConfigurationError):
            make_fabric(t_byte=-0.01)


class TestContention:
    def test_shared_link_serializes(self):
        fabric = make_fabric()
        a = fabric.transfer(0, 3, nbytes=100, now=0.0)  # holds links 0..3
        b = fabric.transfer(1, 3, nbytes=100, now=0.0)  # shares wire 2->3
        assert a.start_time == 0.0
        assert b.start_time == pytest.approx(a.finish_time)
        assert b.link_wait == pytest.approx(a.finish_time)

    def test_disjoint_paths_run_in_parallel(self):
        fabric = make_fabric()
        a = fabric.transfer(0, 1, nbytes=100, now=0.0)
        b = fabric.transfer(4, 5, nbytes=100, now=0.0)
        assert a.start_time == 0.0
        assert b.start_time == 0.0

    def test_ejection_channel_is_a_hotspot(self):
        # Messages from different directions to the same destination
        # serialise on the destination's ejection channel — the 2-Step
        # gather bottleneck.
        topo = Mesh2D(3, 3)
        fabric = Fabric(topo, t_byte=0.01, t_hop=1.0)
        center = topo.node_at(1, 1)
        north = topo.node_at(0, 1)
        south = topo.node_at(2, 1)
        a = fabric.transfer(north, center, nbytes=100, now=0.0)
        b = fabric.transfer(south, center, nbytes=100, now=0.0)
        assert b.start_time == pytest.approx(a.finish_time)

    def test_contention_disabled_ablation(self):
        fabric = make_fabric(contention=False)
        a = fabric.transfer(0, 3, nbytes=100, now=0.0)
        b = fabric.transfer(1, 3, nbytes=100, now=0.0)
        assert a.start_time == b.start_time == 0.0
        assert fabric.total_link_wait == 0.0

    def test_link_frees_after_finish(self):
        fabric = make_fabric()
        a = fabric.transfer(0, 2, nbytes=100, now=0.0)
        b = fabric.transfer(0, 2, nbytes=100, now=a.finish_time + 5.0)
        assert b.link_wait == 0.0


class TestStatistics:
    def test_transfer_count_and_wait_accumulate(self):
        fabric = make_fabric()
        fabric.transfer(0, 3, nbytes=100, now=0.0)
        fabric.transfer(1, 3, nbytes=100, now=0.0)
        assert fabric.transfers == 2
        assert fabric.total_link_wait > 0.0

    def test_utilization_bounded(self):
        fabric = make_fabric()
        fabric.transfer(0, 7, nbytes=1000, now=0.0)
        u = fabric.link_utilization()
        assert 0.0 < u <= 1.0

    def test_utilization_zero_without_traffic(self):
        assert make_fabric().link_utilization() == 0.0


class TestTransferStats:
    def test_derived_properties(self):
        fabric = make_fabric()
        stats = fabric.transfer(0, 2, nbytes=500, now=3.0)
        assert stats.request_time == 3.0
        assert stats.duration == pytest.approx(2 * 1.0 + 500 * 0.01)
        assert stats.link_wait == 0.0
