"""Batch replay of a lowered plan, bit-identical to the event engine.

The evaluator is the thin orchestration layer around the flat replay
kernel (:mod:`repro.fastpath.kernel`): it binds a structure-of-arrays
:class:`~repro.fastpath.lowering.FastPlan` to a run — seed-dependent
rank placement, link paths, wire durations — allocates the kernel's
working state in the containers the active kernel mode wants (plain
lists for the pure-Python mode, contiguous numpy arrays for the JIT),
invokes the kernel once, and reduces the flat metric accumulators into
a :class:`~repro.metrics.report.MetricsReport`.

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
   statement, and the vectorized duration formula keeps the fabric's
   association order.
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
``recv`` records from it, in log order, through ``tracer.record`` — so
kind filters, limits and truncation behave exactly as on the event
engine, and the records are equal field for field.

Metric reduction follows :meth:`MetricsReport.from_collector` term by
term: per-rank float accumulation happens inside the kernel in global
event order (identical between engines), and the report-level float
sums here are plain left-to-right Python reductions in rank order —
never pairwise numpy sums, which would differ in the last bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, List, Optional, Tuple

from repro.errors import DeadlockError
from repro.fastpath import kernel as _kernel_mod
from repro.fastpath.kernel import LOG_BEGIN, LOG_RECV, LOG_SEND
from repro.fastpath.lowering import FastPlan, lower_schedule
from repro.metrics.report import MetricsReport
from repro.network.wirestate import flatten_link_paths, wire_utilization_from
from repro.simulator.trace import SPAN_BEGIN, SPAN_END

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.schedule import Schedule
    from repro.machines.machine import Machine
    from repro.simulator.trace import Tracer

__all__ = [
    "FastRunResult",
    "PlanBinding",
    "bind_plan",
    "evaluate_plan",
    "evaluate_plan_many",
    "evaluate_schedule",
]


@dataclass(frozen=True)
class FastRunResult:
    """Outcome of one fast-path replay (mirrors the engine's RunResult).

    ``kernel`` records which execution mode produced the result
    (``"jit"`` or ``"python"``) — diagnostic only, both modes are
    bit-identical; it is surfaced in ``BroadcastResult.debug`` and
    never serialized.
    """

    elapsed_us: float
    metrics: MetricsReport
    link_utilization: float
    num_sends: int
    kernel: str = "python"


@dataclass
class PlanBinding:
    """A plan's seed-dependent link paths, resolved once per mapping.

    ``path_flat`` / ``path_start`` are plain lists (the pure-Python
    kernel's containers); :meth:`as_arrays` lazily builds and caches
    the int32 views the JIT kernel consumes.  ``nodes`` is the rank →
    node placement the paths were resolved under (traced ``xfer``
    records name nodes).  Bindings are reusable across replays of the
    same (plan, rank mapping) — the plan cache keeps one per seed class.
    """

    path_flat: List[int]
    path_start: List[int]
    hops: Any  # float64[num_sends] wire-hop counts
    nodes: List[int]
    _arrays: Optional[Tuple[Any, Any]] = None

    def as_arrays(self) -> Tuple[Any, Any]:
        """``(path_flat, path_start)`` as cached int32 numpy arrays."""
        if self._arrays is None:
            import numpy as np

            self._arrays = (
                np.asarray(self.path_flat, dtype=np.int32),
                np.asarray(self.path_start, dtype=np.int32),
            )
        return self._arrays


def bind_plan(plan: FastPlan, machine: "Machine", seed: int) -> PlanBinding:
    """Resolve ``plan``'s link paths under ``machine``'s ``seed`` mapping."""
    node_of = machine.build_mapping(seed).node_of
    nodes = [node_of(rank) for rank in range(plan.p)]
    lists = plan.list_views()
    path_flat, path_start, hops = flatten_link_paths(
        machine.topology,
        [(nodes[src], nodes[dst])
         for src, dst in zip(lists["send_src"], lists["send_dst"])],
    )
    return PlanBinding(
        path_flat=path_flat, path_start=path_start, hops=hops, nodes=nodes
    )


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
    cache and :func:`evaluate_plan_many` do).  With ``tracer`` the
    replay also records the event engine's trace records into it; a
    traced replay runs the pure-Python kernel whatever the active mode.
    """
    import numpy as np

    params = machine.params
    topology = machine.topology
    p = plan.p
    num_rounds = plan.num_rounds
    num_sends = plan.num_sends

    if binding is None:
        binding = bind_plan(plan, machine, seed)

    nbytes_f = plan.send_nbytes.astype(np.float64)
    store_forward = params.switching == "store_and_forward"
    if store_forward:
        # Per-link occupancy of one hop; the fabric's per-hop formula
        # with a healthy (factor 1.0) link.
        durations_a = params.t_hop + nbytes_f * params.t_byte
    else:
        # Wormhole path-hold duration, association order as in Fabric.
        durations_a = (
            params.route_setup + binding.hops * params.t_hop
            + nbytes_f * params.t_byte
        )

    num_links = topology.num_links
    wire_offset = 2 * topology.num_nodes
    inbox_cap = int(plan.inbox_base[p])

    if tracer is None:
        kernel = _kernel_mod.get_kernel()
        mode = _kernel_mod.kernel_mode()
        log = None
    else:
        kernel = _kernel_mod.replay_kernel
        mode = "python"
        log = []
    if mode == "jit":
        i32 = np.int32
        path_flat, path_start = binding.as_arrays()
        free_at = np.zeros(num_links, dtype=np.float64)
        busy_time = np.zeros(num_links, dtype=np.float64)
        state = dict(
            op_code=plan.op_code,
            op_arg=plan.op_arg,
            op_aux=plan.op_aux,
            op_start=plan.op_start,
            send_src=plan.send_src,
            send_dst=plan.send_dst,
            send_round=plan.send_round,
            send_nbytes=plan.send_nbytes,
            send_ovh=plan.send_ovh,
            recv_total=plan.recv_total,
            recv_copy=plan.recv_copy,
            durations=durations_a,
            path_flat=path_flat,
            path_start=path_start,
            free_at=free_at,
            busy_time=busy_time,
            inbox_store=np.zeros(inbox_cap, dtype=i32),
            inbox_base=plan.inbox_base,
            inbox_len=np.zeros(p, dtype=i32),
            op_ptr=plan.op_start[:p].copy(),
            finished=np.zeros(p, dtype=np.uint8),
            posted=np.zeros(p, dtype=np.float64),
            matched=np.full(p, -1, dtype=i32),
            pending_wait=np.zeros(p, dtype=np.float64),
            parked_src=np.full(p, -1, dtype=i32),
            parked_round=np.full(p, -1, dtype=i32),
            completed=np.zeros(num_sends, dtype=np.uint8),
            waiter=np.full(num_sends, -1, dtype=i32),
            m_sends=np.zeros(p, dtype=np.int64),
            m_recvs=np.zeros(p, dtype=np.int64),
            m_bytes_sent=np.zeros(p, dtype=np.int64),
            m_bytes_recv=np.zeros(p, dtype=np.int64),
            m_recv_wait=np.zeros(p, dtype=np.float64),
            m_recv_wait_ct=np.zeros(p, dtype=np.int64),
            m_link_wait=np.zeros(p, dtype=np.float64),
            m_copy=np.zeros(p, dtype=np.float64),
            m_iter_ops=np.zeros(p * num_rounds, dtype=np.int64),
            m_iter_last=np.full(num_rounds, -1.0, dtype=np.float64),
        )
    else:
        lists = plan.list_views()
        free_at = [0.0] * num_links
        busy_time = [0.0] * num_links
        state = dict(
            op_code=lists["op_code"],
            op_arg=lists["op_arg"],
            op_aux=lists["op_aux"],
            op_start=lists["op_start"],
            send_src=lists["send_src"],
            send_dst=lists["send_dst"],
            send_round=lists["send_round"],
            send_nbytes=lists["send_nbytes"],
            send_ovh=lists["send_ovh"],
            recv_total=lists["recv_total"],
            recv_copy=lists["recv_copy"],
            durations=durations_a.tolist(),
            path_flat=binding.path_flat,
            path_start=binding.path_start,
            free_at=free_at,
            busy_time=busy_time,
            inbox_store=[0] * inbox_cap,
            inbox_base=lists["inbox_base"],
            inbox_len=[0] * p,
            op_ptr=lists["op_start"][:p],
            finished=[0] * p,
            posted=[0.0] * p,
            matched=[-1] * p,
            pending_wait=[0.0] * p,
            parked_src=[-1] * p,
            parked_round=[-1] * p,
            completed=[0] * num_sends,
            waiter=[-1] * num_sends,
            m_sends=[0] * p,
            m_recvs=[0] * p,
            m_bytes_sent=[0] * p,
            m_bytes_recv=[0] * p,
            m_recv_wait=[0.0] * p,
            m_recv_wait_ct=[0] * p,
            m_link_wait=[0.0] * p,
            m_copy=[0.0] * p,
            m_iter_ops=[0] * (p * num_rounds),
            m_iter_last=[-1.0] * num_rounds,
        )

    now = kernel(
        p,
        num_rounds,
        state["op_code"],
        state["op_arg"],
        state["op_aux"],
        state["op_start"],
        state["send_src"],
        state["send_dst"],
        state["send_round"],
        state["send_nbytes"],
        state["send_ovh"],
        state["recv_total"],
        state["recv_copy"],
        state["durations"],
        state["path_flat"],
        state["path_start"],
        store_forward,
        contention,
        params.route_setup,
        state["free_at"],
        state["busy_time"],
        state["inbox_store"],
        state["inbox_base"],
        state["inbox_len"],
        state["op_ptr"],
        state["finished"],
        state["posted"],
        state["matched"],
        state["pending_wait"],
        state["parked_src"],
        state["parked_round"],
        state["completed"],
        state["waiter"],
        state["m_sends"],
        state["m_recvs"],
        state["m_bytes_sent"],
        state["m_bytes_recv"],
        state["m_recv_wait"],
        state["m_recv_wait_ct"],
        state["m_link_wait"],
        state["m_copy"],
        state["m_iter_ops"],
        state["m_iter_last"],
        log,
    )
    now = float(now)
    if log is not None:
        _record_trace(log, plan, binding, tracer)

    finished = state["finished"]
    blocked = [rank for rank in range(p) if not finished[rank]]
    if blocked:
        detail = ", ".join(f"rank{rank}" for rank in blocked[:16])
        more = "" if len(blocked) <= 16 else f" (+{len(blocked) - 16} more)"
        raise DeadlockError(
            f"simulation deadlocked at t={now:.3f}us with "
            f"{len(blocked)} blocked process(es): {detail}{more}"
        )

    return FastRunResult(
        elapsed_us=now,
        metrics=_report_from_state(p, num_rounds, state),
        link_utilization=wire_utilization_from(
            state["busy_time"], wire_offset, now
        ),
        num_sends=num_sends,
        kernel=mode,
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
    ``span_end``.
    """
    lists = plan.list_views()
    send_src = lists["send_src"]
    send_dst = lists["send_dst"]
    send_round = lists["send_round"]
    send_nbytes = lists["send_nbytes"]
    num_rounds = plan.num_rounds
    round_phase = plan.round_phase
    nodes = binding.nodes
    path_flat = binding.path_flat
    path_start = binding.path_start
    record = tracer.record
    # Kinds the tracer's filter drops are skipped before their fields
    # are built; record() would drop them unseen anyway.
    xfer = tracer.wants("xfer")
    send = tracer.wants("send")
    recv = tracer.wants("recv")
    spans = tracer.wants(SPAN_BEGIN) or tracer.wants(SPAN_END)
    for code, ident, time, a, b in log:
        if code == LOG_SEND:
            if xfer:
                record(time, "xfer", {
                    "src": nodes[send_src[ident]],
                    "dst": nodes[send_dst[ident]],
                    "nbytes": send_nbytes[ident],
                    "links": tuple(
                        path_flat[path_start[ident]:path_start[ident + 1]]
                    ),
                    "start": a,
                    "finish": b,
                })
            if send:
                record(time, "send", {
                    "src": send_src[ident],
                    "dst": send_dst[ident],
                    "tag": send_round[ident],
                    "nbytes": send_nbytes[ident],
                    "start": a,
                    "finish": b,
                })
        elif code == LOG_RECV:
            if recv:
                record(time, "recv", {
                    "rank": send_dst[ident],
                    "src": send_src[ident],
                    "tag": send_round[ident],
                    "nbytes": send_nbytes[ident],
                    "waited": a,
                })
        elif spans:
            rank, rnd = divmod(ident, num_rounds)
            record(
                time,
                SPAN_BEGIN if code == LOG_BEGIN else SPAN_END,
                {"name": round_phase[rnd], "rank": rank, "round": rnd},
            )


def _report_from_state(p: int, num_rounds: int, state: dict) -> MetricsReport:
    """Reduce the kernel's flat accumulators into a MetricsReport.

    Reproduces :meth:`MetricsReport.from_collector` bit-for-bit:
    integer reductions are exact in any order (numpy is fine); float
    reductions are left-to-right Python sums in rank order; divisions
    see the exact same integer operands the collector's dicts would
    have produced.
    """
    import numpy as np

    ops_mat = np.asarray(state["m_iter_ops"], dtype=np.int64)
    ops_mat = ops_mat.reshape(p, num_rounds) if num_rounds else ops_mat.reshape(p, 0)
    active_mask = ops_mat > 0
    #: Per-iteration count of active ranks (the active_by_iter sizes).
    iter_active = active_mask.sum(axis=0)
    iterations = int((iter_active > 0).sum())
    congestion = int(ops_mat.max()) if ops_mat.size else 0

    m_sends = state["m_sends"]
    m_recvs = state["m_recvs"]
    m_bytes_sent = state["m_bytes_sent"]
    m_bytes_recv = state["m_bytes_recv"]
    m_recv_wait_ct = state["m_recv_wait_ct"]
    rank_active = active_mask.sum(axis=1)

    wait_count = 0
    ops = 0
    av_msg = 0.0
    for r in range(p):
        wc = int(m_recv_wait_ct[r])
        if wc > wait_count:
            wait_count = wc
        total_ops = int(m_sends[r]) + int(m_recvs[r])
        if total_ops > ops:
            ops = total_ops
        active_iters = int(rank_active[r])
        if active_iters:
            # sum(msg_lengths) == bytes_sent + bytes_received (ints, so
            # exact); the int/int division is the collector's.
            val = (int(m_bytes_sent[r]) + int(m_bytes_recv[r])) / active_iters
            if val > av_msg:
                av_msg = val
    if iterations:
        av_act = int(iter_active.sum()) / iterations
    else:
        av_act = 0.0

    m_recv_wait = state["m_recv_wait"]
    m_link_wait = state["m_link_wait"]
    m_copy = state["m_copy"]
    total_recv_wait = 0.0
    total_link_wait = 0.0
    total_copy = 0.0
    for r in range(p):
        total_recv_wait += m_recv_wait[r]
        total_link_wait += m_link_wait[r]
        total_copy += m_copy[r]

    m_iter_last = state["m_iter_last"]
    iteration_times = tuple(
        (it, float(m_iter_last[it]))
        for it in range(num_rounds)
        if iter_active[it]
    )

    return MetricsReport(
        p=p,
        iterations=iterations,
        congestion=congestion,
        wait_count=wait_count,
        send_recv_ops=ops,
        av_msg_lgth=float(av_msg),
        av_act_proc=float(av_act),
        total_messages=int(sum(int(v) for v in m_sends)),
        total_bytes=int(sum(int(v) for v in m_bytes_sent)),
        total_recv_wait=float(total_recv_wait),
        total_link_wait=float(total_link_wait),
        total_copy_time=float(total_copy),
        iteration_times=iteration_times,
    )


def evaluate_plan_many(
    plan: FastPlan,
    machine: "Machine",
    runs: Iterable[Tuple[int, bool]],
) -> List[FastRunResult]:
    """Replay ``plan`` for many ``(seed, contention)`` runs.

    The batched entry: link-path bindings are resolved once per
    distinct rank mapping (a single binding covers every seed on
    machines with seed-independent placement) and every replay reuses
    the plan's list/array views — no re-lowering, no re-pickling.
    """
    bindings: dict = {}
    stable = machine.topology_stable_ranks
    out: List[FastRunResult] = []
    for seed, contention in runs:
        bkey = 0 if stable else seed
        binding = bindings.get(bkey)
        if binding is None:
            binding = bindings[bkey] = bind_plan(plan, machine, seed)
        out.append(
            evaluate_plan(
                plan, machine, seed=seed, contention=contention, binding=binding
            )
        )
    return out


def evaluate_schedule(
    schedule: "Schedule",
    *,
    seed: int = 0,
    contention: bool = True,
    plan: Optional[FastPlan] = None,
) -> FastRunResult:
    """Replay ``schedule`` on its machine; returns timing plus metrics.

    Convenience entry lowering on the fly; ``plan`` may carry the
    pre-lowered :class:`FastPlan` (the lowering is seed-independent, so
    sweeps over seeds can share it).  Cached, repeated evaluation goes
    through :mod:`repro.fastpath.plancache` instead.
    """
    if plan is None:
        plan = lower_schedule(schedule)
    return evaluate_plan(
        plan,
        schedule.problem.machine,
        seed=seed,
        contention=contention,
    )
