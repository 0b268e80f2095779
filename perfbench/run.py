"""Benchmark of the s-to-p broadcast reproduction, run from a checkout's root.

Usage::

    python3 perfbench/run.py --workload cold --seed 1 --seconds 20 --trace 0

Imports the program from ``./src`` (no build step: it is pure Python) and
its experiment configs from ``./configs``, sets the workload up
:data:`SETUPS` times and keeps the last set-up, runs jobs for ``--seconds``, checks
their outputs, and prints one JSON object as the last line of standard
output::

    {"correct": true, "attempted": <operations>, "failed": <operations>,
     "metrics": {"<name>": {"value": <number>, "unit": "<unit>"}, ...}}

An operation is a sweep point, or one rendered page for ``report``.
``--trace 0`` reports the end-to-end metrics: ``job_ms``, the mean time
of a job, and ``setup_s``, the median set-up time.  ``--trace 1`` wraps
the program's layer entry points (see ``layers.py``) and reports each
layer's self time and call count per operation instead.  The workloads
are described in ``workloads.py``.

The effective speed of a shared host drifts by a third within a minute,
so every timing is scaled to a reference host speed: a fixed pure-Python
computation (:func:`_reference_work`) is timed before and after each job
and each set-up, and a measured duration ``t`` is reported as
``t * REFERENCE_S / reference``, the time it would take on a host where
that computation takes :data:`REFERENCE_S`.

Scratch files live under ``.perfbench-work/`` in the checkout and are
removed on exit.  Exits 2 without a result when ``./src/repro`` or
``./configs`` is missing, 1 when an output check failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from typing import Any, Dict, List, Optional, Tuple

from layers import LAYERS, SpanRecorder, instrumented

#: How many times set-up runs; ``setup_s`` is the median.
SETUPS = 5
#: Duration of :func:`_reference_work` on the host the benchmark was
#: tuned on (2 vCPUs, x86-64, CPython 3.11).
REFERENCE_S = 0.006


def _reference_work() -> float:
    """Fixed interpreter work shaped like the simulator's bookkeeping.

    A tuple-keyed table of a few thousand small lists, sorted and walked:
    of the computations tried, the one whose time tracked the jobs' time
    most closely as the host's speed changed.
    """
    table: Dict[Tuple[int, int], List[Any]] = {}
    for i in range(6000):
        table[(i * 7919) % 10007, i & 63] = [i, i * 0.5, str(i & 255)]
    total = 0.0
    for key in sorted(table, key=lambda key: (key[1], key[0])):
        row = table[key]
        total += row[1] + len(row[2])
    return total


def _reference_s() -> float:
    """How long :func:`_reference_work` takes on this host right now.

    Garbage is collected first and the collector is off while it runs, so
    garbage the program left behind cannot slow the reference down and
    hide a regression.  Timed after every job, this also starts each job
    from a collected heap: a collection of one job's garbage is not
    charged to the next.
    """
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        _reference_work()
        return time.perf_counter() - start
    finally:
        gc.enable()


def _import_program(root: pathlib.Path) -> Optional[str]:
    """Put ``root/src`` first on the path and import it; error or ``None``."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return f"no program at {src / 'repro'}; run from a checkout's root"
    if not (root / "configs").is_dir():
        return f"no experiment configs at {root / 'configs'}"
    # The pure-Python kernel is the one this environment runs; never let
    # an installed JIT switch modes between commits.
    os.environ["REPRO_FASTPATH_JIT"] = "0"
    for name in ("REPRO_SWEEP_JOBS", "REPRO_CACHE_TMP_TTL_S"):
        os.environ.pop(name, None)
    sys.path.insert(0, str(src))
    import repro

    location = pathlib.Path(repro.__file__).resolve()
    if src.resolve() not in location.parents:
        return f"imported repro from {location}, not from {src}"
    return None


def measure(workload_cls: Any, seed: int, seconds: float, trace: bool,
            root: pathlib.Path, work_dir: pathlib.Path) -> Dict[str, Any]:
    """Set up, run the timed window, verify; returns the result object."""
    setup_s = []
    for _ in range(SETUPS):
        workload = workload_cls(seed, root, work_dir)
        before = _reference_s()
        start = time.perf_counter()
        workload.setup()
        elapsed = time.perf_counter() - start
        setup_s.append(elapsed * 2 * REFERENCE_S / (before + _reference_s()))

    # Set-up state (modules, configs, filled caches) leaves the collector's
    # view, so a full collection inside a job scans what the job made, as
    # in a fresh process, and not everything set-up left behind.
    gc.collect()
    gc.freeze()
    recorder = SpanRecorder() if trace else None
    latencies: List[float] = []
    references = [_reference_s()]
    points = failed = 0
    with instrumented(recorder) if recorder else nullcontext():
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            job = workload.next_job()
            workload.prepare(job)
            start = time.perf_counter()
            try:
                out = workload.run_job(job)
            except Exception as exc:  # a failed job is counted, not fatal
                latencies.append(time.perf_counter() - start)
                print(f"job failed: {exc!r}", file=sys.stderr)
                failed += workload.job_points(job)
            else:
                latencies.append(time.perf_counter() - start)
                failed += workload.check(job, out)
            points += workload.job_points(job)
            references.append(_reference_s())
    failed += workload.verify()

    scales = [
        2 * REFERENCE_S / (references[i] + references[i + 1])
        for i in range(len(latencies))
    ]
    scaled = [t * k for t, k in zip(latencies, scales)]
    if recorder is None:
        metrics = {
            # The mean, not the median: jobs cycle through a fixed list
            # of unequal jobs, and the median of such a mix jumps between
            # neighbouring jobs when a run ends part-way through a cycle.
            "job_ms": (statistics.fmean(scaled) * 1e3, "ms"),
            "setup_s": (statistics.median(setup_s), "s"),
        }
    else:
        # Layer times are scaled by the run's typical factor.
        per_point = statistics.median(scales) / points
        covered = sum(recorder.self_s.values())
        metrics = {}
        for layer in LAYERS:
            metrics[f"{layer}_us"] = (recorder.self_s[layer] * per_point * 1e6, "us")
            metrics[f"{layer}_calls"] = (recorder.calls[layer] / points, "count")
        metrics["untraced_us"] = ((sum(latencies) - covered) * per_point * 1e6, "us")
        metrics["sim_transfers"] = (workload.transfers / points, "count")
    return {
        "correct": failed == 0,
        "attempted": points,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = pathlib.Path.cwd()
    error = _import_program(root)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    scratch = root / ".perfbench-work"
    work_dir = scratch / f"{args.workload}-{os.getpid()}"
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), root, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
