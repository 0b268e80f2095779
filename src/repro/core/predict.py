"""Closed-form completion-time prediction from a schedule.

A contention-free critical-path model: per-rank ready times are
propagated round by round through the schedule in the lowering's op
order (a rank issues its sends, then takes its receives, then waits for
its sends to drain), charging each rank its send overheads
back-to-back, each transfer its uncontended wire time, and each receive
its overhead plus copy cost — the executor's cost structure *minus*
link contention and arbitration.

Exactness: with ``contention=False``, on a wormhole-switched machine
with one message size for every source, the simulated completion time
equals the prediction (tests hold it to 1e-12 relative).  Two cases
fall outside that and are not modelled:

* **store-and-forward switching** — the model charges wormhole wire
  time, so it is off on a ``switching=store_and_forward`` machine (by
  up to 58% on ``paragon:10x10``);
* **per-source sizes** — two messages between one pair of ranks in one
  round can then overtake each other on the wire; the engines match
  them in arrival order, the model in schedule order, so the
  simulation can come out *below* the prediction.

With contention on, the model omits link waits, so it bounds the
simulation from below.

Uses:

* **fast what-if analysis** — predicting a sweep is orders of magnitude
  cheaper than simulating it (no event engine);
* **contention attribution** — ``simulated / predicted`` is a direct
  measure of how contention-bound an algorithm is (the naive flood
  scores highest, per the §2 claim).

Works on any machine; on seed-dependent machines (the T3D) the
prediction uses hop counts from the seed's mapping (seed 0 by default).
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.schedule import Schedule

__all__ = ["predict_schedule_time", "predict_broadcast_time"]


def predict_schedule_time(schedule: Schedule, seed: int = 0) -> float:
    """Predicted completion time of ``schedule`` in microseconds.

    Critical-path recurrence per round: a sender issues its sends
    back-to-back (each costing its software overhead), each message
    arrives at ``issue + wire(nbytes, hops)``, and the receiver, once
    its own sends are issued, processes its receives in schedule order,
    each costing ``max(arrival, receiver clock) + recv overhead +
    copy``.  Blocking-send semantics: a rank's next round starts only
    after its own sends have drained.
    """
    problem = schedule.problem
    machine = problem.machine
    params = machine.params
    mapping = machine.build_mapping(seed)
    ready: Dict[int, float] = {}

    def rank_ready(rank: int) -> float:
        return ready.get(rank, 0.0)

    for rnd in schedule.rounds:
        o_send = params.send_overhead(collective=rnd.collective, mpi=rnd.mpi)
        o_recv = params.recv_overhead(collective=rnd.collective, mpi=rnd.mpi)
        # Keyed by position in the round: one round may carry two
        # transfers between the same pair of ranks.
        arrivals: List[float] = []
        issue_clock: Dict[int, float] = {}
        # Phase 1: every rank issues its round sends back-to-back.
        for t in rnd:
            clock = issue_clock.get(t.src, rank_ready(t.src)) + o_send
            issue_clock[t.src] = clock
            nbytes = t.nbytes(problem)
            src_node = mapping.node_of(t.src)
            dst_node = mapping.node_of(t.dst)
            hops = machine.topology.distance(src_node, dst_node)
            wire = (
                params.route_setup + hops * params.t_hop + nbytes * params.t_byte
                if hops
                else 0.0
            )
            arrivals.append(clock + wire)
        # Phase 2: receivers drain their receives in schedule order,
        # each starting once its own round sends are issued.
        recv_clock: Dict[int, float] = {}
        send_drain: Dict[int, float] = {}
        for t, arrival in zip(rnd, arrivals):
            nbytes = t.nbytes(problem)
            start = max(
                arrival,
                recv_clock.get(
                    t.dst, issue_clock.get(t.dst, rank_ready(t.dst))
                ),
            )
            copy = params.copy_cost(nbytes, collective=rnd.collective)
            recv_clock[t.dst] = start + o_recv + copy
            send_drain[t.src] = max(
                send_drain.get(t.src, 0.0), arrival
            )
        # Phase 3: next-round ready times.
        for rank, clock in issue_clock.items():
            ready[rank] = max(rank_ready(rank), clock, send_drain.get(rank, 0.0))
        for rank, clock in recv_clock.items():
            ready[rank] = max(rank_ready(rank), clock)
    return max(ready.values(), default=0.0)


def predict_broadcast_time(
    problem, algorithm, seed: int = 0
) -> float:
    """Predicted time (us) for ``algorithm`` on ``problem`` (no engine run)."""
    from repro.core.algorithms import get_algorithm  # local: avoid cycle

    if isinstance(algorithm, str):
        algorithm = get_algorithm(algorithm)
    schedule = algorithm.build_schedule(problem)
    return predict_schedule_time(schedule, seed=seed)
