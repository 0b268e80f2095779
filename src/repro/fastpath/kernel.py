"""The typed replay kernel: one function, two execution modes.

:func:`replay_kernel` is the entire fast-path inner loop — heap-driven
replay of a structure-of-arrays :class:`~repro.fastpath.lowering.
FastPlan` — written against the *common subset* of Python and numba's
``nopython`` mode: flat 1-D containers, scalar arithmetic, ``heapq`` on
a list of ``(time, seq, code, arg)`` tuples, and nothing else.  The
same source therefore runs two ways:

* **python** — called as-is on plain Python lists.  ``heapq`` is the
  same C accelerator the event engine's calendar uses, so the fallback
  keeps the PR-6 performance profile with zero dependencies;
* **jit** — wrapped in ``numba.njit`` (strict IEEE-754: no fastmath,
  no reassociation) and called on contiguous numpy arrays.

Because both modes execute the *same statements*, there is a single
arithmetic path to keep bit-identical to the event engine — the golden
sha256 fixtures and the randomized differential grid pin all of:
event engine, python kernel, and (when numba is installed) jit kernel.

Tracing: the kernel's last argument is an optional event log (a list,
or ``None`` when the run is untraced).  Every log site sits behind
``log is not None`` — numba prunes those branches when it compiles the
untraced kernel, and the pure-Python mode pays one ``None`` check per
site.  The kernel appends ``(code, id, time, a, b)`` tuples:

* ``(LOG_SEND, sid, t, start, finish)`` when send ``sid`` is issued;
* ``(LOG_RECV, sid, t, wait, 0.0)`` when the receive matching ``sid``
  completes at its destination rank;
* ``(LOG_BEGIN, entry, t, 0.0, 0.0)`` / ``(LOG_END, entry, t, 0.0,
  0.0)`` when a rank enters / leaves its slice of a round, where
  ``entry = rank * num_rounds + round``.

Log order is replay order, which is the event engine's record order;
:mod:`repro.fastpath.evaluator` rebuilds the engine's trace records
from it.  Traced replays always run in the python mode, so numba only
ever compiles the kernel with ``log=None``.

Mode selection — ``REPRO_FASTPATH_JIT``:

* unset / ``auto`` — use numba when importable, silently fall back
  otherwise;
* ``1`` / ``true`` / ``on`` / ``jit`` — request the JIT; if numba is
  missing (or fails to compile the kernel) warn **once** per process
  and fall back to the python mode;
* ``0`` / ``false`` / ``off`` / ``python`` — force the python mode.

The resolved mode is visible via :func:`kernel_mode` (surfaced in
``BroadcastResult.debug`` and the CLI) and never participates in cache
keys or result bytes — both modes produce the same bits.
"""

from __future__ import annotations

import os
import warnings
from heapq import heappop, heappush
from typing import Any, Callable, Dict, Optional

__all__ = [
    "JIT_ENV_VAR",
    "kernel_mode",
    "kernel_status",
    "get_kernel",
    "replay_kernel",
    "reset_kernel_cache",
]

#: Environment variable steering JIT compilation of the replay kernel.
JIT_ENV_VAR = "REPRO_FASTPATH_JIT"

_TRUTHY = frozenset(("1", "true", "on", "yes", "jit"))
_FALSY = frozenset(("0", "false", "off", "no", "python"))

# Replay event codes (third element of each heap tuple).  START events
# mirror the engine's Process.__init__ kick-starts; the rest map 1:1 to
# the engine's timeout/succeed callbacks.
EV_START = 0
EV_SEND_ISSUE = 1
EV_COMPLETION = 2
EV_RECV_GOT = 3
EV_RECV_DONE = 4

# Operation stream opcodes (values shared with repro.fastpath.lowering;
# duplicated as plain ints so the jitted kernel sees literal globals).
OP_SEND = 0
OP_RECV = 1
OP_WAIT = 2

# Event-log record codes (first element of each log tuple).
LOG_SEND = 0
LOG_RECV = 1
LOG_BEGIN = 2
LOG_END = 3


def replay_kernel(
    p,
    num_rounds,
    # -- operation streams (structure of arrays) ------------------------
    op_code,
    op_arg,
    op_aux,
    op_start,
    # -- per-send tables ------------------------------------------------
    send_src,
    send_dst,
    send_round,
    send_nbytes,
    send_ovh,
    recv_total,
    recv_copy,
    durations,
    # -- link paths (flattened, bind-time) ------------------------------
    path_flat,
    path_start,
    # -- fabric configuration -------------------------------------------
    store_forward,
    contention,
    route_setup,
    # -- wire state (mutated: the contention ledger) ---------------------
    free_at,
    busy_time,
    # -- inbox matching (SoA FIFO per destination rank) ------------------
    inbox_store,
    inbox_base,
    inbox_len,
    # -- per-rank replay state -------------------------------------------
    op_ptr,
    finished,
    posted,
    matched,
    pending_wait,
    parked_src,
    parked_round,
    completed,
    waiter,
    # -- metrics accumulators (mutated; reduced by the caller) ------------
    m_sends,
    m_recvs,
    m_bytes_sent,
    m_bytes_recv,
    m_recv_wait,
    m_recv_wait_ct,
    m_link_wait,
    m_copy,
    m_iter_ops,
    m_iter_last,
    # -- optional event log (None = untraced) ----------------------------
    log,
):
    """Replay the plan; returns the virtual completion time.

    Mirrors the event engine's three disciplines exactly (see
    :mod:`repro.fastpath.evaluator` for the full argument): heap order
    is ``(time, seq)`` with sequence numbers allocated at the engine's
    allocation points, every float expression is kept verbatim
    (``t + (finish - t)``, the wire-reservation max/accumulate order,
    the per-hop store-and-forward chain), and completions deliver to
    the receiver before resuming a waiting sender.
    """
    # Process-start events, one per rank at t=0 in rank order — already
    # a valid heap (equal times, ascending seq), and byte-identical to
    # pushing them one by one as the engine does.
    heap = [(0.0, i, EV_START, i) for i in range(p)]
    seq = p
    now = 0.0
    while len(heap) > 0:
        item = heappop(heap)
        now = item[0]
        code = item[2]
        arg = item[3]
        adv = -1  # rank to drive forward after this event, if any
        if code == EV_COMPLETION:
            sid = arg
            completed[sid] = 1
            # Deliver first (the completion's first callback), which may
            # wake a parked receiver — allocating its sequence number
            # *before* any sender blocked on this request resumes.
            dst = send_dst[sid]
            if parked_src[dst] == send_src[sid] and parked_round[dst] == send_round[sid]:
                parked_src[dst] = -1
                matched[dst] = sid
                heappush(heap, (now, seq, EV_RECV_GOT, dst))
                seq += 1
            else:
                inbox_store[inbox_base[dst] + inbox_len[dst]] = sid
                inbox_len[dst] = inbox_len[dst] + 1
            w = waiter[sid]
            if w >= 0:
                waiter[sid] = -1
                adv = w
        elif code == EV_RECV_GOT:
            rank = arg
            sid = matched[rank]
            wait = now - posted[rank]
            total = recv_total[sid]
            if total > 0.0:
                # comm.recv: yield timeout(overhead + copy), then record.
                pending_wait[rank] = wait
                heappush(heap, (now + total, seq, EV_RECV_DONE, rank))
                seq += 1
            else:
                m_recvs[rank] = m_recvs[rank] + 1
                m_bytes_recv[rank] = m_bytes_recv[rank] + send_nbytes[sid]
                m_recv_wait[rank] = m_recv_wait[rank] + wait
                if wait > 0.0:
                    m_recv_wait_ct[rank] = m_recv_wait_ct[rank] + 1
                m_copy[rank] = m_copy[rank] + recv_copy[sid]
                it = send_round[sid]
                m_iter_ops[rank * num_rounds + it] += 1
                if now > m_iter_last[it]:
                    m_iter_last[it] = now
                if log is not None:
                    log.append((LOG_RECV, sid, now, wait, 0.0))
                adv = rank
        elif code == EV_RECV_DONE:
            rank = arg
            sid = matched[rank]
            m_recvs[rank] = m_recvs[rank] + 1
            m_bytes_recv[rank] = m_bytes_recv[rank] + send_nbytes[sid]
            m_recv_wait[rank] = m_recv_wait[rank] + pending_wait[rank]
            if pending_wait[rank] > 0.0:
                m_recv_wait_ct[rank] = m_recv_wait_ct[rank] + 1
            m_copy[rank] = m_copy[rank] + recv_copy[sid]
            it = send_round[sid]
            m_iter_ops[rank * num_rounds + it] += 1
            if now > m_iter_last[it]:
                m_iter_last[it] = now
            if log is not None:
                log.append((LOG_RECV, sid, now, pending_wait[rank], 0.0))
            adv = rank
        elif code == EV_SEND_ISSUE:
            sid = arg
            # --- issue ``sid`` to the fabric at ``now`` ----------------
            t = now
            if store_forward:
                pl = durations[sid]
                arrive = t + route_setup
                start = 0.0
                first = True
                for k in range(path_start[sid], path_start[sid + 1]):
                    link = path_flat[k]
                    if contention:
                        s0 = arrive if arrive >= free_at[link] else free_at[link]
                        f0 = s0 + pl
                        free_at[link] = f0
                        busy_time[link] = busy_time[link] + pl
                    else:
                        s0 = arrive
                        f0 = arrive + pl
                    if first:
                        start = s0
                        first = False
                    arrive = f0
                finish = arrive
            elif contention:
                # Wormhole reservation: whole path free, held for the
                # duration (the WireState.reserve_path arithmetic).
                d = durations[sid]
                start = t
                for k in range(path_start[sid], path_start[sid + 1]):
                    free = free_at[path_flat[k]]
                    if free > start:
                        start = free
                finish = start + d
                for k in range(path_start[sid], path_start[sid + 1]):
                    link = path_flat[k]
                    free_at[link] = finish
                    busy_time[link] = busy_time[link] + d
            else:
                start = t
                finish = t + durations[sid]
            src_r = send_src[sid]
            m_sends[src_r] = m_sends[src_r] + 1
            m_bytes_sent[src_r] = m_bytes_sent[src_r] + send_nbytes[sid]
            m_link_wait[src_r] = m_link_wait[src_r] + (start - t)
            it = send_round[sid]
            m_iter_ops[src_r * num_rounds + it] += 1
            if t > m_iter_last[it]:
                m_iter_last[it] = t
            if log is not None:
                log.append((LOG_SEND, sid, t, start, finish))
            # The engine schedules completion via succeed(delay=finish -
            # now), so the heap time is t + (finish - t) — kept verbatim.
            heappush(heap, (t + (finish - t), seq, EV_COMPLETION, sid))
            seq += 1
            adv = src_r
        else:  # EV_START
            adv = arg

        if adv >= 0:
            # Drive ``adv``'s operation stream until it suspends or ends.
            rank = adv
            i = op_ptr[rank]
            end = op_start[rank + 1]
            t = now
            while True:
                if i >= end:
                    if log is not None:
                        if end > op_start[rank]:
                            last = end - 1
                            rnd = op_aux[last] if op_code[last] == OP_RECV else send_round[op_arg[last]]
                            log.append((LOG_END, rank * num_rounds + rnd, t, 0.0, 0.0))
                    op_ptr[rank] = end
                    finished[rank] = 1
                    break
                if log is not None:
                    # A rank's ops run round by round, one slice per
                    # round: an op whose round differs from its
                    # predecessor's closes one slice and opens the next.
                    rnd = op_aux[i] if op_code[i] == OP_RECV else send_round[op_arg[i]]
                    if i == op_start[rank]:
                        log.append((LOG_BEGIN, rank * num_rounds + rnd, t, 0.0, 0.0))
                    else:
                        last = i - 1
                        prev = op_aux[last] if op_code[last] == OP_RECV else send_round[op_arg[last]]
                        if prev != rnd:
                            log.append((LOG_END, rank * num_rounds + prev, t, 0.0, 0.0))
                            log.append((LOG_BEGIN, rank * num_rounds + rnd, t, 0.0, 0.0))
                oc = op_code[i]
                if oc == OP_SEND:
                    sid = op_arg[i]
                    ovh = send_ovh[sid]
                    if ovh > 0.0:
                        # comm.isend: yield timeout(overhead), issue on
                        # resume (the EV_SEND_ISSUE handler above).
                        op_ptr[rank] = i + 1
                        heappush(heap, (t + ovh, seq, EV_SEND_ISSUE, sid))
                        seq += 1
                        break
                    # Zero-overhead send: issue inline (same block as the
                    # EV_SEND_ISSUE handler; kept literal for numba).
                    if store_forward:
                        pl = durations[sid]
                        arrive = t + route_setup
                        start = 0.0
                        first = True
                        for k in range(path_start[sid], path_start[sid + 1]):
                            link = path_flat[k]
                            if contention:
                                s0 = arrive if arrive >= free_at[link] else free_at[link]
                                f0 = s0 + pl
                                free_at[link] = f0
                                busy_time[link] = busy_time[link] + pl
                            else:
                                s0 = arrive
                                f0 = arrive + pl
                            if first:
                                start = s0
                                first = False
                            arrive = f0
                        finish = arrive
                    elif contention:
                        d = durations[sid]
                        start = t
                        for k in range(path_start[sid], path_start[sid + 1]):
                            free = free_at[path_flat[k]]
                            if free > start:
                                start = free
                        finish = start + d
                        for k in range(path_start[sid], path_start[sid + 1]):
                            link = path_flat[k]
                            free_at[link] = finish
                            busy_time[link] = busy_time[link] + d
                    else:
                        start = t
                        finish = t + durations[sid]
                    src_r = send_src[sid]
                    m_sends[src_r] = m_sends[src_r] + 1
                    m_bytes_sent[src_r] = m_bytes_sent[src_r] + send_nbytes[sid]
                    m_link_wait[src_r] = m_link_wait[src_r] + (start - t)
                    it = send_round[sid]
                    m_iter_ops[src_r * num_rounds + it] += 1
                    if t > m_iter_last[it]:
                        m_iter_last[it] = t
                    if log is not None:
                        log.append((LOG_SEND, sid, t, start, finish))
                    heappush(heap, (t + (finish - t), seq, EV_COMPLETION, sid))
                    seq += 1
                    i += 1
                elif oc == OP_RECV:
                    src = op_arg[i]
                    rnd = op_aux[i]
                    posted[rank] = t
                    op_ptr[rank] = i + 1
                    # Buffered match: per-inbox FIFO scan in arrival
                    # order — the Store's non-overtaking (source, tag)
                    # semantics.
                    base = inbox_base[rank]
                    cnt = inbox_len[rank]
                    found = -1
                    for j in range(cnt):
                        sid2 = inbox_store[base + j]
                        if send_src[sid2] == src and send_round[sid2] == rnd:
                            found = j
                            break
                    if found >= 0:
                        matched[rank] = inbox_store[base + found]
                        for j2 in range(found, cnt - 1):
                            inbox_store[base + j2] = inbox_store[base + j2 + 1]
                        inbox_len[rank] = cnt - 1
                        # The Store claims the item and fires the getter
                        # at the current instant (one sequence number).
                        heappush(heap, (t, seq, EV_RECV_GOT, rank))
                        seq += 1
                    else:
                        parked_src[rank] = src
                        parked_round[rank] = rnd
                    break
                else:  # OP_WAIT
                    sid = op_arg[i]
                    if completed[sid] != 0:
                        i += 1
                    else:
                        waiter[sid] = rank
                        op_ptr[rank] = i + 1
                        break
    return now


# -- mode resolution ---------------------------------------------------------

_active: Optional[Callable[..., float]] = None
_active_mode: Optional[str] = None
_jit_error: Optional[str] = None
_warned_missing = False
_warned_failed = False


def _requested() -> str:
    """Parse ``$REPRO_FASTPATH_JIT`` into ``jit`` | ``python`` | ``auto``."""
    raw = os.environ.get(JIT_ENV_VAR, "").strip().lower()
    if raw in _TRUTHY:
        return "jit"
    if raw in _FALSY:
        return "python"
    return "auto"


def _smoke_check(kernel: Callable[..., float]) -> None:
    """Compile-and-run the kernel on a trivial single-rank empty plan.

    Forces numba's type inference *now*, so an uncompilable kernel is
    detected once at activation (and downgraded with a warning) instead
    of exploding mid-sweep.
    """
    import numpy as np

    i32 = np.int32
    i64 = np.int64
    f64 = np.float64
    empty_i = np.zeros(0, dtype=i32)
    elapsed = kernel(
        1,
        1,
        empty_i,
        empty_i,
        empty_i,
        np.zeros(2, dtype=i32),
        empty_i,
        empty_i,
        empty_i,
        np.zeros(0, dtype=i64),
        np.zeros(0, dtype=f64),
        np.zeros(0, dtype=f64),
        np.zeros(0, dtype=f64),
        np.zeros(0, dtype=f64),
        empty_i,
        np.zeros(1, dtype=i32),
        False,
        True,
        0.0,
        np.zeros(1, dtype=f64),
        np.zeros(1, dtype=f64),
        empty_i,
        np.zeros(2, dtype=i32),
        np.zeros(1, dtype=i32),
        np.zeros(1, dtype=i32),
        np.zeros(1, dtype=np.uint8),
        np.zeros(1, dtype=f64),
        np.full(1, -1, dtype=i32),
        np.zeros(1, dtype=f64),
        np.full(1, -1, dtype=i32),
        np.full(1, -1, dtype=i32),
        np.zeros(0, dtype=np.uint8),
        np.zeros(0, dtype=i32),
        np.zeros(1, dtype=i64),
        np.zeros(1, dtype=i64),
        np.zeros(1, dtype=i64),
        np.zeros(1, dtype=i64),
        np.zeros(1, dtype=f64),
        np.zeros(1, dtype=i64),
        np.zeros(1, dtype=f64),
        np.zeros(1, dtype=f64),
        np.zeros(1, dtype=i64),
        np.full(1, -1.0, dtype=f64),
        None,
    )
    if elapsed != 0.0:  # pragma: no cover - sanity net
        raise RuntimeError(f"kernel smoke check returned {elapsed!r}, expected 0.0")


def _activate() -> Callable[..., float]:
    """Resolve the execution mode once per process; returns the kernel."""
    global _active, _active_mode, _jit_error, _warned_missing, _warned_failed
    if _active is not None:
        return _active
    want = _requested()
    if want in ("jit", "auto"):
        try:
            import numba  # noqa: F401
        except ImportError:
            if want == "jit" and not _warned_missing:
                _warned_missing = True
                warnings.warn(
                    f"{JIT_ENV_VAR} requests the JIT kernel but numba is not "
                    "installed; falling back to the pure-Python kernel "
                    "(results are bit-identical, only slower)",
                    RuntimeWarning,
                    stacklevel=3,
                )
            _jit_error = "numba not installed"
        else:
            try:
                jitted = numba.njit(cache=True)(replay_kernel)
                _smoke_check(jitted)
            except Exception as exc:  # numba typing/lowering failures
                _jit_error = f"{type(exc).__name__}: {exc}"
                if not _warned_failed:
                    _warned_failed = True
                    warnings.warn(
                        "numba could not compile the fast-path kernel "
                        f"({type(exc).__name__}); falling back to the "
                        "pure-Python kernel (results are bit-identical)",
                        RuntimeWarning,
                        stacklevel=3,
                    )
            else:
                _active = jitted
                _active_mode = "jit"
                return _active
    _active = replay_kernel
    _active_mode = "python"
    return _active


def get_kernel() -> Callable[..., float]:
    """The active kernel callable (resolving the mode on first use)."""
    return _activate()


def kernel_mode() -> str:
    """The active kernel execution mode: ``"jit"`` or ``"python"``."""
    _activate()
    assert _active_mode is not None
    return _active_mode


def kernel_status() -> Dict[str, Any]:
    """Diagnostic snapshot: mode, the env request, and any JIT failure."""
    _activate()
    return {
        "mode": _active_mode,
        "requested": _requested(),
        "jit_error": _jit_error,
    }


def reset_kernel_cache() -> None:
    """Forget the resolved mode (tests re-resolve after env changes)."""
    global _active, _active_mode, _jit_error, _warned_missing, _warned_failed
    _active = None
    _active_mode = None
    _jit_error = None
    _warned_missing = False
    _warned_failed = False
