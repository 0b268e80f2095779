"""Unit tests for metric counters and the Figure-2 report."""

from __future__ import annotations

import pytest

from repro.core import BroadcastProblem, run_broadcast
from repro.metrics import MetricsCollector, MetricsReport


class TestCollector:
    def test_send_recv_counting(self):
        c = MetricsCollector(4)
        c.record_send(0, 100, link_wait=2.0, iteration=0)
        c.record_recv(1, 100, wait_time=5.0, copy_time=1.0, iteration=0)
        assert c.ranks[0].sends == 1
        assert c.ranks[0].bytes_sent == 100
        assert c.ranks[1].recvs == 1
        assert c.ranks[1].recv_wait_time == 5.0
        assert c.ranks[1].recv_wait_count == 1

    def test_zero_wait_not_counted_as_wait(self):
        c = MetricsCollector(2)
        c.record_recv(0, 10, wait_time=0.0, copy_time=0.0, iteration=0)
        assert c.ranks[0].recv_wait_count == 0

    def test_per_iteration_buckets(self):
        c = MetricsCollector(2)
        c.record_send(0, 10, 0.0, iteration=0)
        c.record_send(0, 10, 0.0, iteration=0)
        c.record_send(0, 10, 0.0, iteration=3)
        assert c.ranks[0].per_iter_ops == {0: 2, 3: 1}
        assert c.ranks[0].max_ops_in_one_iteration() == 2
        assert set(c.active_by_iter) == {0, 3}

    def test_active_by_iteration(self):
        c = MetricsCollector(4)
        c.record_send(0, 10, 0.0, iteration=0)
        c.record_recv(1, 10, 0.0, 0.0, iteration=0)
        c.record_send(2, 10, 0.0, iteration=1)
        assert c.active_by_iter[0] == {0, 1}
        assert c.active_by_iter[1] == {2}


class TestReport:
    def test_congestion_is_max_per_iteration(self):
        c = MetricsCollector(3)
        for _ in range(4):
            c.record_recv(0, 10, 0.0, 0.0, iteration=0)
        c.record_send(1, 10, 0.0, iteration=0)
        report = MetricsReport.from_collector(c)
        assert report.congestion == 4

    def test_send_recv_is_max_total_ops(self):
        c = MetricsCollector(3)
        for it in range(5):
            c.record_send(2, 10, 0.0, iteration=it)
        report = MetricsReport.from_collector(c)
        assert report.send_recv_ops == 5

    def test_av_msg_lgth_per_active_iteration(self):
        c = MetricsCollector(2)
        c.record_send(0, 100, 0.0, iteration=0)
        c.record_send(0, 300, 0.0, iteration=1)
        report = MetricsReport.from_collector(c)
        # rank 0: 400 bytes over 2 active iterations
        assert report.av_msg_lgth == pytest.approx(200.0)

    def test_av_act_proc_mean_over_iterations(self):
        c = MetricsCollector(4)
        c.record_send(0, 1, 0.0, iteration=0)
        c.record_send(1, 1, 0.0, iteration=0)
        c.record_send(0, 1, 0.0, iteration=1)
        report = MetricsReport.from_collector(c)
        assert report.av_act_proc == pytest.approx(1.5)

    def test_empty_collector(self):
        report = MetricsReport.from_collector(MetricsCollector(4))
        assert report.congestion == 0
        assert report.av_act_proc == 0.0
        assert report.total_messages == 0

    def test_as_dict_stable_keys(self):
        report = MetricsReport.from_collector(MetricsCollector(1))
        keys = set(report.as_dict())
        assert {"congestion", "wait", "send_recv", "av_msg_lgth", "av_act_proc"} <= keys


class TestMeasuredFigure2Shapes:
    """Measured counters must match the paper's Figure-2 forms."""

    def test_two_step_congestion_linear_in_s(self, square_paragon):
        reports = {}
        for s in (10, 20):
            prob = BroadcastProblem(
                square_paragon, tuple(range(s)), message_size=256
            )
            reports[s] = run_broadcast(prob, "2-Step").metrics
        # root receives s (or s-1) messages in the gather iteration
        assert reports[20].congestion >= 2 * reports[10].congestion - 2

    def test_pers_alltoall_congestion_constant(self, square_paragon):
        values = []
        for s in (10, 20):
            prob = BroadcastProblem(
                square_paragon, tuple(range(s)), message_size=256
            )
            values.append(run_broadcast(prob, "PersAlltoAll").metrics.congestion)
        assert values[0] == values[1] <= 2

    def test_br_lin_ops_logarithmic(self, square_paragon):
        prob = BroadcastProblem(square_paragon, tuple(range(16)), message_size=256)
        report = run_broadcast(prob, "Br_Lin").metrics
        # ceil(log2 100) = 7 rounds; <= ~3 ops per round (exchange + odd feed)
        assert report.send_recv_ops <= 3 * 7

    def test_pers_alltoall_ops_linear_in_p(self, square_paragon):
        prob = BroadcastProblem(square_paragon, (0, 1), message_size=256)
        report = run_broadcast(prob, "PersAlltoAll").metrics
        # a source sends p-1 messages and receives 1 per round it hears from
        assert report.send_recv_ops >= square_paragon.p - 1


class TestIterationTimeline:
    def test_iteration_times_monotone_for_round_algorithms(
        self, square_paragon
    ):
        """Later schedule rounds finish later (per-round progress)."""
        prob = BroadcastProblem(
            square_paragon, tuple(range(0, 100, 7)), message_size=2048
        )
        report = run_broadcast(prob, "Br_Lin").metrics
        times = [t for _, t in report.iteration_times]
        assert times == sorted(times)
        assert len(times) == report.iterations

    def test_iteration_times_cover_the_run(self, square_paragon):
        prob = BroadcastProblem(square_paragon, (0, 50), message_size=2048)
        result = run_broadcast(prob, "2-Step")
        last = result.metrics.iteration_times[-1][1]
        # the last recorded operation happens before the run ends but
        # within the final receive's processing window
        assert 0 < last <= result.elapsed_us

    def test_empty_report_has_no_iteration_times(self):
        report = MetricsReport.from_collector(MetricsCollector(2))
        assert report.iteration_times == ()
