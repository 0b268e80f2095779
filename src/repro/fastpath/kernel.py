"""The replay kernel: one CPython function over plain lists.

:func:`replay_kernel` is the entire fast-path inner loop — event-driven
replay of a lowered :class:`~repro.fastpath.lowering.FastPlan` — written
for the interpreter that runs it: every table is a plain list (list
indexing returns unboxed ``int`` / ``float``), every link path is the
topology's memoized route tuple, and ``heapq`` is the same C
accelerator the event engine's calendar uses.  The golden sha256
fixtures and the randomized differential grid pin it bit-identical to
the event engine.

Only the timing-dependent metrics are accumulated here: receive wait
and its count, link wait, copy cost and round last-times.  Per-rank
send, receive and byte counts and the per-round op counts are fixed by
the plan and counted once at lowering.  Copy cost stays in the kernel:
it is summed in match order, and with contention off two same-(source,
destination, round) sends of different sizes can overtake each other.

Tracing: the kernel's last argument is an optional event log (a list,
or ``None`` when the run is untraced); every log site sits behind one
``log is not None`` check.  The kernel appends ``(code, id, time, a,
b)`` tuples:

* ``(LOG_SEND, sid, t, start, finish)`` when send ``sid`` is issued;
* ``(LOG_RECV, sid, t, wait, 0.0)`` when the receive matching ``sid``
  completes at its destination rank;
* ``(LOG_BEGIN, entry, t, 0.0, 0.0)`` / ``(LOG_END, entry, t, 0.0,
  0.0)`` when a rank enters / leaves its slice of a round, where
  ``entry = rank * num_rounds + round`` and the round is the op's
  ``op_aux``.

Log order is replay order, which is the event engine's record order;
:mod:`repro.fastpath.evaluator` rebuilds the engine's trace records
from it.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop as _heappop, heappush as _heappush

__all__ = ["replay_kernel"]

# Replay event codes (third element of each event tuple).  START events
# mirror the engine's Process.__init__ kick-starts; the rest map 1:1 to
# the engine's timeout/succeed callbacks.
EV_START = 0
EV_SEND_ISSUE = 1
EV_COMPLETION = 2
EV_RECV_GOT = 3
EV_RECV_DONE = 4

# Operation stream opcodes (values shared with repro.fastpath.lowering).
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
    # -- operation streams ----------------------------------------------
    op_code,
    op_arg,
    op_aux,
    op_start,
    # -- per-send tables ------------------------------------------------
    send_src,
    send_dst,
    send_round,
    send_ovh,
    recv_total,
    recv_copy,
    durations,
    paths,
    # -- fabric configuration -------------------------------------------
    store_forward,
    contention,
    route_setup,
    # -- wire state (mutated: the contention ledger) ---------------------
    free_at,
    busy_time,
    # -- optional event log (None = untraced) ----------------------------
    log,
):
    """Replay the plan.

    Returns ``(now, finished, recv_wait, recv_wait_ct, link_wait, copy,
    round_last)``: the virtual completion time, per-rank completion
    flags (a false one means deadlock), the per-rank receive wait, its
    count and link wait, the per-rank copy cost and each round's last
    event time.

    Mirrors the event engine's three disciplines exactly (see
    :mod:`repro.fastpath.evaluator` for the full argument): events run
    in ``(time, seq)`` order with sequence numbers allocated at the
    engine's allocation points, every float expression is kept verbatim
    (``t + (finish - t)``, the wire-reservation max/accumulate order,
    the per-hop store-and-forward chain), and completions deliver to
    the receiver before resuming a waiting sender.
    """
    heappush = _heappush
    heappop = _heappop
    num_sends = len(send_src)
    op_ptr = op_start[:p]
    finished = [False] * p
    posted = [0.0] * p
    matched = [-1] * p
    pending_wait = [0.0] * p
    parked_src = [-1] * p
    parked_round = [-1] * p
    inbox = [[] for _ in range(p)]
    completed = [False] * num_sends
    waiter = [-1] * num_sends
    recv_wait = [0.0] * p
    recv_wait_ct = [0] * p
    link_wait = [0.0] * p
    copy = [0.0] * p
    round_last = [-1.0] * num_rounds

    # Process-start events, one per rank at t=0 in rank order — already
    # a valid heap (equal times, ascending seq), and byte-identical to
    # pushing them one by one as the engine does.
    heap = [(0.0, i, EV_START, i) for i in range(p)]
    # Receive matches fire at the current instant with rising sequence
    # numbers, so they queue here instead of the heap; taking the
    # smaller of both heads as full (time, seq) tuples keeps heap order.
    ready = deque()
    seq = p
    now = 0.0
    while True:
        if ready and (not heap or ready[0] < heap[0]):
            now, _, code, arg = ready.popleft()
        elif heap:
            now, _, code, arg = heappop(heap)
        else:
            break
        if code == EV_COMPLETION:
            sid = arg
            completed[sid] = True
            # Deliver first (the completion's first callback), which may
            # wake a parked receiver — allocating its sequence number
            # *before* any sender blocked on this request resumes.
            dst = send_dst[sid]
            if parked_src[dst] == send_src[sid] and parked_round[dst] == send_round[sid]:
                parked_src[dst] = -1
                matched[dst] = sid
                ready.append((now, seq, EV_RECV_GOT, dst))
                seq += 1
            else:
                inbox[dst].append(sid)
            rank = waiter[sid]
            if rank < 0:
                continue
            waiter[sid] = -1
        elif code == EV_RECV_GOT or code == EV_RECV_DONE:
            rank = arg
            sid = matched[rank]
            if code == EV_RECV_GOT:
                wait = now - posted[rank]
                total = recv_total[sid]
                if total > 0.0:
                    # comm.recv: yield timeout(overhead + copy), then record.
                    pending_wait[rank] = wait
                    heappush(heap, (now + total, seq, EV_RECV_DONE, rank))
                    seq += 1
                    continue
            else:
                wait = pending_wait[rank]
            recv_wait[rank] += wait
            if wait > 0.0:
                recv_wait_ct[rank] += 1
            copy[rank] += recv_copy[sid]
            # Events run in time order, so the latest is the largest.
            round_last[send_round[sid]] = now
            if log is not None:
                log.append((LOG_RECV, sid, now, wait, 0.0))
        elif code == EV_SEND_ISSUE:
            # Issue send ``sid`` to the fabric at ``now``, then resume
            # its sender.
            sid = arg
            rank = send_src[sid]
            path = paths[sid]
            if store_forward:
                pl = durations[sid]
                arrive = now + route_setup
                start = 0.0
                first = True
                for link in path:
                    if contention:
                        free = free_at[link]
                        s0 = arrive if arrive >= free else free
                        f0 = s0 + pl
                        free_at[link] = f0
                        busy_time[link] += pl
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
                start = now
                for link in path:
                    free = free_at[link]
                    if free > start:
                        start = free
                finish = start + d
                for link in path:
                    free_at[link] = finish
                    busy_time[link] += d
            else:
                start = now
                finish = now + durations[sid]
            link_wait[rank] += start - now
            round_last[send_round[sid]] = now
            if log is not None:
                log.append((LOG_SEND, sid, now, start, finish))
            # The engine schedules completion via succeed(delay=finish
            # - now), so the event time is now + (finish - now).
            heappush(heap, (now + (finish - now), seq, EV_COMPLETION, sid))
            seq += 1
        else:  # EV_START
            rank = arg

        # Drive ``rank``'s operation stream until it suspends or ends.
        i = op_ptr[rank]
        end = op_start[rank + 1]
        while True:
            if i >= end:
                if log is not None and end > op_start[rank]:
                    log.append((LOG_END, rank * num_rounds + op_aux[end - 1], now, 0.0, 0.0))
                finished[rank] = True
                break
            if log is not None:
                # A rank's ops run round by round, one slice per round:
                # an op whose round differs from its predecessor's closes
                # one slice and opens the next.
                rnd = op_aux[i]
                if i == op_start[rank]:
                    log.append((LOG_BEGIN, rank * num_rounds + rnd, now, 0.0, 0.0))
                else:
                    prev = op_aux[i - 1]
                    if prev != rnd:
                        log.append((LOG_END, rank * num_rounds + prev, now, 0.0, 0.0))
                        log.append((LOG_BEGIN, rank * num_rounds + rnd, now, 0.0, 0.0))
            oc = op_code[i]
            if oc == OP_SEND:
                ovh = send_ovh[op_arg[i]]
                op_ptr[rank] = i + 1
                if ovh > 0.0:
                    # comm.isend: yield timeout(overhead), issue on resume.
                    heappush(heap, (now + ovh, seq, EV_SEND_ISSUE, op_arg[i]))
                    seq += 1
                else:
                    # No overhead, so no timeout and no sequence number:
                    # the issue goes to the head of the ready queue and
                    # runs next, before anything else at this instant.
                    ready.appendleft((now, -1, EV_SEND_ISSUE, op_arg[i]))
                break
            elif oc == OP_RECV:
                src = op_arg[i]
                rnd = op_aux[i]
                posted[rank] = now
                op_ptr[rank] = i + 1
                # Buffered match: per-inbox FIFO scan in arrival order —
                # the Store's non-overtaking (source, tag) semantics.
                box = inbox[rank]
                for j, sid in enumerate(box):
                    if send_src[sid] == src and send_round[sid] == rnd:
                        del box[j]
                        matched[rank] = sid
                        # The Store claims the item and fires the getter
                        # at the current instant (one sequence number).
                        ready.append((now, seq, EV_RECV_GOT, rank))
                        seq += 1
                        break
                else:
                    parked_src[rank] = src
                    parked_round[rank] = rnd
                break
            else:  # OP_WAIT
                sid = op_arg[i]
                if completed[sid]:
                    i += 1
                else:
                    waiter[sid] = rank
                    op_ptr[rank] = i + 1
                    break
    return now, finished, recv_wait, recv_wait_ct, link_wait, copy, round_last
