"""Reduction of raw counters to the paper's Figure-2 parameters."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Dict, Tuple

from repro.summation import left_sum

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.metrics.counters import MetricsCollector

__all__ = ["MetricsReport"]


@dataclass(frozen=True)
class MetricsReport:
    """The five Figure-2 parameters plus supporting totals.

    Attributes
    ----------
    congestion:
        Max over ranks and iterations of the sends+receives a single
        rank handled in a single iteration.
    wait_count:
        Max over ranks of the number of times a rank blocked on a
        receive (arrival later than the posting time) — the paper's
        *wait* parameter.
    send_recv_ops:
        Max over ranks of total send+receive operations — *#send/rec*.
    av_msg_lgth:
        Max over ranks of (sum of its message lengths) / (number of
        iterations it was active in) — *av_msg_lgth*.
    av_act_proc:
        Mean number of ranks active per iteration — *av_act_proc*.
    """

    p: int
    iterations: int
    congestion: int
    wait_count: int
    send_recv_ops: int
    av_msg_lgth: float
    av_act_proc: float
    total_messages: int
    total_bytes: int
    total_recv_wait: float
    total_link_wait: float
    total_copy_time: float
    #: (iteration, last-operation virtual time) pairs, iteration order —
    #: the per-round progress timeline (useful for spotting which phase
    #: of an algorithm dominates).
    iteration_times: Tuple[Tuple[int, float], ...] = field(default=())

    @classmethod
    def from_collector(cls, collector: "MetricsCollector") -> "MetricsReport":
        """Reduce raw per-rank counters into a report."""
        iterations = len(collector.active_by_iter)
        congestion = 0
        wait_count = 0
        ops = 0
        av_msg = 0.0
        for counters in collector.ranks:
            congestion = max(congestion, counters.max_ops_in_one_iteration())
            wait_count = max(wait_count, counters.recv_wait_count)
            ops = max(ops, counters.total_ops)
            active_iters = len(counters.per_iter_ops)
            if active_iters:
                av_msg = max(av_msg, counters.msg_bytes / active_iters)
        if collector.active_by_iter:
            av_act = sum(
                len(ranks) for ranks in collector.active_by_iter.values()
            ) / len(collector.active_by_iter)
        else:
            av_act = 0.0
        return cls(
            p=collector.p,
            iterations=iterations,
            congestion=congestion,
            wait_count=wait_count,
            send_recv_ops=ops,
            av_msg_lgth=av_msg,
            av_act_proc=av_act,
            total_messages=sum(c.sends for c in collector.ranks),
            total_bytes=sum(c.bytes_sent for c in collector.ranks),
            total_recv_wait=left_sum(c.recv_wait_time for c in collector.ranks),
            total_link_wait=left_sum(c.link_wait_time for c in collector.ranks),
            total_copy_time=left_sum(c.copy_time for c in collector.ranks),
            iteration_times=tuple(
                sorted(collector.last_time_by_iter.items())
            ),
        )

    def to_json_dict(self) -> Dict[str, Any]:
        """Lossless JSON-compatible rendering of **every** field.

        Unlike :meth:`as_dict` (the bench reporters' summary view) this
        round-trips bit-exactly through :func:`json.dumps` /
        :meth:`from_json_dict` — the contract the sweep result cache
        depends on.
        """
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["iteration_times"] = [
            [iteration, when] for iteration, when in self.iteration_times
        ]
        return data

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "MetricsReport":
        """Inverse of :meth:`to_json_dict`."""
        data = dict(data)
        data["iteration_times"] = tuple(
            (int(iteration), float(when))
            for iteration, when in data.get("iteration_times", ())
        )
        return cls(**data)

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict rendering (stable keys, used by the bench reporters)."""
        return {
            "p": self.p,
            "iterations": self.iterations,
            "congestion": self.congestion,
            "wait": self.wait_count,
            "send_recv": self.send_recv_ops,
            "av_msg_lgth": self.av_msg_lgth,
            "av_act_proc": self.av_act_proc,
            "total_messages": self.total_messages,
            "total_bytes": self.total_bytes,
        }
