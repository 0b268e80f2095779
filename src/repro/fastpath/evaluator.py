"""Batch replay of a lowered plan, bit-identical to the event engine.

The evaluator is the thin orchestration layer around the replay
kernel (:mod:`repro.fastpath.kernel`): it binds a lowered
:class:`~repro.fastpath.lowering.FastPlan` to a run — seed-dependent
rank placement, one route tuple per distinct rank pair shared by its
sends, wire durations — invokes the kernel once on the plan's lists,
and folds the kernel's timing-dependent accumulators and the plan's
precomputed report fields into a
:class:`~repro.metrics.report.MetricsReport`.

The kernel replicates the generator engine's observable behaviour
exactly — not merely equivalent results, the *same* results to the
last float bit — by mirroring three engine disciplines:

1. **Heap ordering.**  The engine breaks time ties by a global
   monotonic sequence number, allocated on every ``Timeout`` creation
   and every ``Event.succeed``.  The replay allocates its sequence
   numbers at the same logical points: process starts (one per rank at
   t=0), send-overhead timeouts, send completions, receive-match
   wake-ups, and receive overhead+copy timeouts.  (The engine also
   allocates one inert sequence number per finished process; those
   events carry no callbacks and shift later numbers uniformly, so
   skipping them preserves all relative order.)
2. **Float expressions.**  Every virtual-time computation reuses the
   engine's exact expression: completion events land at
   ``t + (finish - t)`` (how ``succeed(delay=finish - now)`` schedules,
   which may differ in the last bit from ``finish``), wormhole and
   store-and-forward reservations repeat the
   :class:`~repro.network.wirestate.WireState` arithmetic statement for
   statement, and the duration formula keeps the fabric's association
   order.
3. **Synchronous resumption order.**  A completion event first
   delivers its message (possibly waking a parked receiver — a new
   sequence number) and only then resumes a sender blocked on the
   request — matching the engine's callback registration order.

Receive matching is dynamic per-inbox FIFO — exactly the Store's
non-overtaking ``(source, tag)`` semantics — so the replay stays
faithful even when same-instant arrivals make static send→recv pairing
ambiguous.

Tracing rides on the same replay: with a
:class:`~repro.simulator.trace.Tracer` the kernel fills its event log
(see :mod:`repro.fastpath.kernel`), and :func:`evaluate_plan` rebuilds
the event engine's ``span_begin`` / ``span_end`` / ``xfer`` / ``send`` /
``recv`` records from it, in log order, and stores them with one
``tracer.extend`` call — kind filters, limits and truncation leave
exactly what the event engine's per-record ``tracer.record`` calls
leave, and the records are equal field for field.

Metric reduction follows :meth:`MetricsReport.from_collector` term by
term: the fields the schedule fixes are counted once per plan, at
lowering; per-rank float accumulation happens inside the kernel in
global event order (identical between engines), and the report-level
float totals here are :func:`~repro.summation.left_sum` over ranks in
rank order, as in the collector — never pairwise or compensated sums,
which would differ in the last bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.errors import DeadlockError
from repro.fastpath.kernel import (
    LOG_BEGIN,
    LOG_END,
    LOG_RECV,
    LOG_SEND,
    replay_kernel,
)
from repro.fastpath.lowering import FastPlan
from repro.metrics.report import MetricsReport
from repro.network.wirestate import WireState
from repro.simulator.trace import SPAN_BEGIN, SPAN_END, TraceRecord
from repro.summation import left_sum

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.machines.machine import Machine
    from repro.simulator.trace import Tracer

__all__ = [
    "FastRunResult",
    "PlanBinding",
    "bind_plan",
    "evaluate_plan",
]


@dataclass(frozen=True)
class FastRunResult:
    """Outcome of one fast-path replay (mirrors the engine's RunResult)."""

    elapsed_us: float
    metrics: MetricsReport
    link_utilization: float
    num_sends: int


@dataclass(frozen=True)
class PlanBinding:
    """A plan's seed-dependent link paths, resolved once per mapping.

    ``paths[sid]`` is send ``sid``'s route tuple (injection channel,
    wire links, ejection channel): one tuple per distinct rank pair,
    shared by every send of that pair and with the topology's route
    cache.  ``nodes`` is the rank → node placement the paths were
    resolved under (traced ``xfer`` records name nodes).  Bindings are
    reusable across replays of the same (plan, rank mapping) — the plan
    cache keeps one per seed class.
    """

    paths: List[Tuple[int, ...]]
    nodes: List[int]


def bind_plan(plan: FastPlan, machine: "Machine", seed: int) -> PlanBinding:
    """Resolve ``plan``'s link paths under ``machine``'s ``seed`` mapping.

    One route per distinct ``(src, dst)`` rank pair, resolved in order
    of first use; every send of a pair shares that pair's tuple (a
    pipelined MPI_AllGather ring repeats each pair once per segment).
    """
    node_of = machine.build_mapping(seed).node_of
    p = plan.p
    nodes = [node_of(rank) for rank in range(p)]
    route_links = machine.topology.route_links
    pairs = [src * p + dst for src, dst in zip(plan.send_src, plan.send_dst)]
    route_of = {
        pair: route_links(nodes[pair // p], nodes[pair % p])
        for pair in dict.fromkeys(pairs)
    }
    return PlanBinding(paths=[route_of[pair] for pair in pairs], nodes=nodes)


def evaluate_plan(
    plan: FastPlan,
    machine: "Machine",
    *,
    seed: int = 0,
    contention: bool = True,
    binding: Optional[PlanBinding] = None,
    tracer: Optional["Tracer"] = None,
) -> FastRunResult:
    """Replay ``plan`` on ``machine``; returns timing plus metrics.

    ``binding`` may carry pre-resolved link paths for this (plan, rank
    mapping) — pass it when replaying one plan many times (the plan
    cache does).  With ``tracer`` the replay also records the event
    engine's trace records into it.
    """
    params = machine.params
    topology = machine.topology
    p = plan.p
    num_rounds = plan.num_rounds

    if binding is None:
        binding = bind_plan(plan, machine, seed)
    paths = binding.paths

    # Wire durations in the fabric's association order: per link for
    # store-and-forward, per path for wormhole (hops exclude the
    # injection and ejection channels).
    t_hop = params.t_hop
    t_byte = params.t_byte
    route_setup = params.route_setup
    store_forward = params.switching == "store_and_forward"
    if store_forward:
        durations = [t_hop + nbytes * t_byte for nbytes in plan.send_nbytes]
    else:
        durations = [
            route_setup + (len(path) - 2) * t_hop + nbytes * t_byte
            for path, nbytes in zip(paths, plan.send_nbytes)
        ]

    wire = WireState(topology.num_links, 2 * topology.num_nodes)
    log = None if tracer is None else []
    (now, finished, recv_wait, recv_wait_ct, link_wait, copy,
     round_last) = replay_kernel(
        p,
        num_rounds,
        plan.op_code,
        plan.op_arg,
        plan.op_aux,
        plan.op_start,
        plan.send_src,
        plan.send_dst,
        plan.send_round,
        plan.send_ovh,
        plan.recv_total,
        plan.recv_copy,
        durations,
        paths,
        store_forward,
        contention,
        route_setup,
        wire.free_at,
        wire.busy_time,
        log,
    )
    if log is not None:
        _record_trace(log, plan, binding, tracer)

    blocked = [rank for rank in range(p) if not finished[rank]]
    if blocked:
        detail = ", ".join(f"rank{rank}" for rank in blocked[:16])
        more = "" if len(blocked) <= 16 else f" (+{len(blocked) - 16} more)"
        raise DeadlockError(
            f"simulation deadlocked at t={now:.3f}us with "
            f"{len(blocked)} blocked process(es): {detail}{more}"
        )

    # The rest of MetricsReport.from_collector, term by term: float
    # totals are left_sum() over ranks in rank order, like the collector's.
    metrics = MetricsReport(
        p=p,
        wait_count=max(recv_wait_ct),
        total_recv_wait=left_sum(recv_wait),
        total_link_wait=left_sum(link_wait),
        total_copy_time=left_sum(copy),
        iteration_times=tuple(enumerate(round_last)),
        **plan.report_fields,
    )
    return FastRunResult(
        elapsed_us=now,
        metrics=metrics,
        link_utilization=wire.wire_utilization(now),
        num_sends=plan.num_sends,
    )


def _record_trace(
    log: List[tuple], plan: FastPlan, binding: PlanBinding, tracer: "Tracer"
) -> None:
    """Rebuild the event engine's trace records from the kernel's log.

    Each log entry becomes the records the engine emits at that point,
    with the engine's fields in the engine's order: a send issue is the
    fabric's ``xfer`` (node ids, link path, reservation window) then the
    message layer's ``send``; a receive completion is ``recv``; a
    round-entry boundary is the executor's ``span_begin`` /
    ``span_end``.  Kinds the tracer's filter drops are skipped before
    their fields are built, and the run's records are stored with one
    :meth:`~repro.simulator.trace.Tracer.extend` call, which applies the
    tracer's ``limit``.
    """
    send_src = plan.send_src
    send_dst = plan.send_dst
    send_round = plan.send_round
    send_nbytes = plan.send_nbytes
    num_rounds = plan.num_rounds
    round_phase = plan.round_phase
    nodes = binding.nodes
    paths = binding.paths
    records: List[TraceRecord] = []
    append = records.append
    xfer = tracer.wants("xfer")
    send = tracer.wants("send")
    recv = tracer.wants("recv")
    # The record kind of each span log code, None where the filter drops it.
    span_kind = {
        code: kind if tracer.wants(kind) else None
        for code, kind in ((LOG_BEGIN, SPAN_BEGIN), (LOG_END, SPAN_END))
    }
    for code, ident, time, a, b in log:
        if code == LOG_SEND:
            if xfer:
                append(TraceRecord(time, "xfer", {
                    "src": nodes[send_src[ident]],
                    "dst": nodes[send_dst[ident]],
                    "nbytes": send_nbytes[ident],
                    "links": paths[ident],
                    "start": a,
                    "finish": b,
                }))
            if send:
                append(TraceRecord(time, "send", {
                    "src": send_src[ident],
                    "dst": send_dst[ident],
                    "tag": send_round[ident],
                    "nbytes": send_nbytes[ident],
                    "start": a,
                    "finish": b,
                }))
        elif code == LOG_RECV:
            if recv:
                append(TraceRecord(time, "recv", {
                    "rank": send_dst[ident],
                    "src": send_src[ident],
                    "tag": send_round[ident],
                    "nbytes": send_nbytes[ident],
                    "waited": a,
                }))
        else:
            kind = span_kind[code]
            if kind is not None:
                rank, rnd = divmod(ident, num_rounds)
                append(TraceRecord(time, kind, {
                    "name": round_phase[rnd], "rank": rank, "round": rnd,
                }))
    tracer.extend(records)
