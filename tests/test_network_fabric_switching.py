"""Unit tests for the store-and-forward switching mode."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.machines import paragon
from repro.machines.paragon import PARAGON_PARAMS
from repro.network import Fabric, LinearArray
from tests.conftest import TEST_PARAMS


def make_fabric(**kw):
    defaults = dict(t_byte=0.01, t_hop=1.0, route_setup=0.0)
    defaults.update(kw)
    return Fabric(LinearArray(8), **defaults)


class TestStoreAndForwardTiming:
    def test_duration_multiplies_with_hops(self):
        saf = make_fabric(switching="store_and_forward")
        stats = saf.transfer(0, 3, nbytes=1000, now=0.0)
        # path = inj + 3 wires + ej = 5 links, each 1.0 + 1000*0.01
        assert stats.finish_time == pytest.approx(5 * 11.0)

    def test_wormhole_is_faster_over_distance(self):
        worm = make_fabric(switching="wormhole")
        saf = make_fabric(switching="store_and_forward")
        t_worm = worm.transfer(0, 7, nbytes=1000, now=0.0).finish_time
        t_saf = saf.transfer(0, 7, nbytes=1000, now=0.0).finish_time
        assert t_saf > 2.0 * t_worm

    def test_single_hop_costs_match_modulo_endpoints(self):
        # one wire hop: wormhole = 1*t_hop + bytes; SAF = 3 links
        worm = make_fabric(switching="wormhole")
        saf = make_fabric(switching="store_and_forward")
        t_worm = worm.transfer(0, 1, nbytes=100, now=0.0).finish_time
        t_saf = saf.transfer(0, 1, nbytes=100, now=0.0).finish_time
        assert t_saf == pytest.approx(3 * (1.0 + 1.0))
        assert t_worm == pytest.approx(1.0 + 1.0)

    def test_self_send_still_free(self):
        saf = make_fabric(switching="store_and_forward")
        stats = saf.transfer(4, 4, nbytes=1000, now=5.0)
        assert stats.finish_time == 5.0

    def test_links_released_hop_by_hop(self):
        """A second message can start on link 1 while the first has
        moved on — SAF pipelines across messages."""
        saf = make_fabric(switching="store_and_forward")
        first = saf.transfer(0, 7, nbytes=1000, now=0.0)
        second = saf.transfer(0, 1, nbytes=1000, now=0.0)
        # second waits only for the first to clear the injection and
        # first wire link, not the whole 9-link path
        assert second.finish_time < first.finish_time

    def test_contention_off(self):
        saf = make_fabric(switching="store_and_forward", contention=False)
        a = saf.transfer(0, 3, nbytes=1000, now=0.0)
        b = saf.transfer(1, 3, nbytes=1000, now=0.0)
        assert a.link_wait == b.link_wait == 0.0

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            make_fabric(switching="circuit")


class TestMachineIntegration:
    def test_params_carry_switching(self):
        saf_params = TEST_PARAMS.with_overrides(switching="store_and_forward")
        assert saf_params.switching == "store_and_forward"
        with pytest.raises(ConfigurationError):
            TEST_PARAMS.with_overrides(switching="optical")

    def test_broadcast_slower_under_saf(self):
        from repro.core import BroadcastProblem, run_broadcast

        worm = paragon(8, 8)
        saf = paragon(
            8, 8,
            params=PARAGON_PARAMS.with_overrides(switching="store_and_forward"),
        )
        sources = tuple(range(0, 64, 7))
        t_worm = run_broadcast(
            BroadcastProblem(worm, sources, message_size=4096), "Br_Lin"
        ).elapsed_us
        t_saf = run_broadcast(
            BroadcastProblem(saf, sources, message_size=4096), "Br_Lin"
        ).elapsed_us
        assert t_saf > t_worm

    def test_delivery_still_verified_under_saf(self):
        from repro.core import BroadcastProblem, run_broadcast

        saf = paragon(
            6, 6,
            params=PARAGON_PARAMS.with_overrides(switching="store_and_forward"),
        )
        problem = BroadcastProblem(saf, (0, 7, 21), message_size=512)
        for name in ("Br_Lin", "Br_xy_source", "2-Step"):
            run_broadcast(problem, name)
