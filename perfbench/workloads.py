"""The benchmark's three workloads: inputs, the timed job, output checks.

The traffic is the repository's own: the experiment configs committed
under ``configs/``.  Every declarative config is expanded on its quick
axes with :func:`repro.pipeline.runner.experiment_points` — the exact
points ``python -m repro report --quick`` evaluates, T3D machines fanned
out over the paper's five rank-mapping seeds — and the distinct points
are grouped into *units*: one problem and algorithm at all its seeds, the
batch the sweep executor evaluates together.  The 13 declarative configs
(Figures 3-13 and the two Section 5.2 claims) give 240 units and 424
points: structured distributions, ``s`` from 1 to 192, message sizes up
to 16 KiB, Paragon meshes from 2x2 to 16x16 and T3Ds of 32 and 128 nodes.

Unit costs span three orders of magnitude, so the units are packed into
jobs of equal size and near-equal estimated cost (:func:`weight`,
:func:`balanced_jobs`).  The job list is part of the workload, not of the
seed: a run serves the jobs round-robin, and the seed picks the job it
starts at.  A run shorter than the job cycle therefore measures a
seed-dependent part of the cycle, and balanced jobs keep that part's mean
close to the whole cycle's.

``cold``
    Every unit, twelve per job, each job in a fresh state: the machine
    and plan caches are cleared and the result cache is a new empty
    directory, as for a first ``report`` run.  Schedule build,
    validation, lowering, kernel replay and cache stores.
``traced``
    The units of weight up to :data:`TRACED_MAX_WEIGHT` (133 of the 240;
    the rest, T3D-128 runs at ``s >= 40`` and large-``s`` all-to-all runs
    among them, take seconds each when traced), six per job, as observed
    sweeps (``observe=True``): the event engine with a full trace and a
    per-point observation summary.
``report``
    ``python -m repro report <id> --quick`` for each of
    :data:`REPORT_IDS` — one config of every series kind plus builder
    experiments — against a result cache filled in set-up: config
    loading, cache reads with envelope verification, shape checks and
    HTML rendering.  A job is one page.

Sweep outputs are checked as they arrive (delivery, message counts) and a
sample of results spread over the window is recomputed afterwards on the
*other* engine; the two must agree bit for bit.  ``report`` pages must
match, byte for byte, the pages rendered in set-up and the pages of a
cache-free render, mostly on the event engine.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import pathlib
import random
import shutil
from typing import Any, Dict, List, Sequence, Tuple

from repro import (
    BroadcastResult,
    ResultCache,
    SweepExecutor,
    SweepPoint,
    machine_from_spec,
    run_broadcast,
)

#: Experiment configs, relative to the checkout's root.
CONFIG_DIR = "configs"
#: Units per job of the sweep workloads.
COLD_UNITS_PER_JOB = 12
TRACED_UNITS_PER_JOB = 6
#: Relative cost of one seed x source x processor of each algorithm on
#: the cold fast path (measured once on the tuning host; unlisted: 1).
#: Used only to balance jobs: a stale factor costs steadiness, not
#: correctness.
ALGORITHM_COST = {
    "PersAlltoAll": 11.0, "MPI_Alltoall": 8.0, "MPI_AllGather": 4.0,
    "Br_xy_dim": 2.1, "Br_Lin": 1.7, "Part_xy_source": 1.4,
    "Br_xy_source": 1.3,
}
#: Heaviest unit (see :func:`weight`) the traced workload runs.
TRACED_MAX_WEIGHT = 16384
#: The report workload's pages, one per job.  Series kinds: fig5 cells
#: over four machines, fig7 sweep, fig8 machines_by_s, fig10
#: percent_gain, fig12 dist_curves on the 128-node T3D, sec52-conditions
#: cells; ablation-mapping and extension-hypercube are builders.
REPORT_IDS = (
    "fig5", "fig7", "fig8", "fig10", "fig12", "sec52-conditions",
    "ablation-mapping", "extension-hypercube",
)
#: Report pages re-rendered on the default engine, not the event engine,
#: when verified: fig12's event-engine render takes eight seconds.  The
#: cold workload checks the two engines agree on its points.
VERIFY_FAST_IDS = ("fig12",)
#: Every SAMPLE_EVERY-th sweep result is kept; VERIFY_SAMPLES of them,
#: spread evenly over the window, are recomputed on the other engine.
SAMPLE_EVERY = 5
VERIFY_SAMPLES = 24

Unit = Tuple[SweepPoint, ...]
Job = List[SweepPoint]


def fresh_caches() -> None:
    """Forget memoized machines and lowered plans, as a new process would."""
    try:
        import repro.fastpath.plancache as plancache
    except ImportError:
        plancache = None
    for clear in (getattr(machine_from_spec, "cache_clear", None),
                  getattr(plancache, "clear", None)):
        if clear is not None:
            clear()


def config_units(root: pathlib.Path) -> List[Unit]:
    """The distinct units of every declarative config's quick grid."""
    from repro.pipeline.loader import load_config_dir
    from repro.pipeline.runner import experiment_points

    units: Dict[SweepPoint, Dict[SweepPoint, None]] = {}
    for config in load_config_dir(root / CONFIG_DIR).values():
        if config.kind != "declarative":
            continue
        for point in experiment_points(config, quick=True):
            seeds = units.setdefault(dataclasses.replace(point, seed=0), {})
            seeds[point] = None
    return [tuple(seeds) for seeds in units.values()]


def weight(unit: Unit) -> float:
    """Cost proxy of a unit: seeds x sources x processors x algorithm cost."""
    point = unit[0]
    return (len(unit) * len(point.sources) * machine_from_spec(point.machine).p
            * ALGORITHM_COST.get(point.algorithm, 1.0))


def balanced_jobs(units: Sequence[Unit], per_job: int) -> List[Job]:
    """Jobs of ``per_job`` units each, of near-equal total weight.

    Longest first: each unit, heaviest first, joins the lightest job that
    still has room.  The lightest units that do not fill a whole job are
    left out.  Job order is shuffled once, with a fixed generator.
    """
    ordered = sorted(units, key=lambda unit: (-weight(unit), unit[0].key()))
    count = len(ordered) // per_job
    jobs: List[List[Unit]] = [[] for _ in range(count)]
    loads = [0.0] * count
    for unit in ordered[:count * per_job]:
        i = min((i for i in range(count) if len(jobs[i]) < per_job),
                key=loads.__getitem__)
        jobs[i].append(unit)
        loads[i] += weight(unit)
    random.Random("jobs").shuffle(jobs)
    return [[point for unit in job for point in unit] for job in jobs]


def _reset_dir(path: pathlib.Path) -> pathlib.Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Workload:
    """A seeded job loop; :meth:`setup` is timed apart from the jobs."""

    name = ""
    #: Engine that recomputes sampled results in :meth:`verify`.
    reference_engine = "event"

    def __init__(self, seed: int, root: pathlib.Path,
                 work_dir: pathlib.Path) -> None:
        self.seed = seed
        self.root = root
        self.work_dir = work_dir
        self.samples: List[Tuple[SweepPoint, BroadcastResult]] = []
        self.transfers = 0
        self._seen = 0
        self._next = 0

    def setup(self) -> None:
        raise NotImplementedError

    def _cycle(self, jobs: Sequence[Any]) -> None:
        """Serve ``jobs`` round-robin from a seeded start."""
        self.jobs = list(jobs)
        self._next = random.Random(f"{self.name}/{self.seed}").randrange(
            len(self.jobs))

    def next_job(self) -> Any:
        job = self.jobs[self._next % len(self.jobs)]
        self._next += 1
        return job

    def prepare(self, job: Any) -> None:
        """Untimed work before a job starts."""

    def run_job(self, job: Any) -> Any:
        raise NotImplementedError

    def job_points(self, job: Any) -> int:
        return len(job)

    def check(self, job: Job, results: List[BroadcastResult]) -> int:
        """Failed points of one sweep job; samples results for verify."""
        failed = 0
        for point, result in zip(job, results):
            ok = (
                result.complete
                and result.elapsed_us > 0.0
                and result.num_transfers == result.metrics.total_messages
            )
            failed += not ok
            self.transfers += result.num_transfers
            if self._seen % SAMPLE_EVERY == 0:
                self.samples.append((point, result))
            self._seen += 1
        return failed + len(job) - len(results)

    def verify(self) -> int:
        """Recompute sampled points on the reference engine; mismatches."""
        failed = 0
        stride = max(1, len(self.samples) // VERIFY_SAMPLES)
        for point, got in self.samples[::stride]:
            want = run_broadcast(
                point.build_problem(),
                point.algorithm,
                seed=point.seed,
                contention=point.contention,
                engine=self.reference_engine,
            )
            failed += want.to_dict() != got.to_dict()
        return failed


class Cold(Workload):
    """Every unit of the configs, each job from a cold process state."""

    name = "cold"

    def setup(self) -> None:
        fresh_caches()
        self._cycle(balanced_jobs(config_units(self.root),
                                  COLD_UNITS_PER_JOB))
        self.caches = _reset_dir(self.work_dir / "cache")
        self.prepare(self.jobs[0])
        self.run_job(self.jobs[0])

    def prepare(self, job: Job) -> None:
        """Clear the in-process caches; give the job an empty result cache."""
        fresh_caches()
        self.cache = ResultCache(self.caches / f"job{self._next}")

    def run_job(self, job: Job) -> List[BroadcastResult]:
        return SweepExecutor(jobs=1, cache=self.cache, engine="auto").run(job)


class Traced(Workload):
    """Observed sweeps: event engine, full trace, observation summaries."""

    name = "traced"
    reference_engine = "fast"

    def setup(self) -> None:
        fresh_caches()
        units = [unit for unit in config_units(self.root)
                 if weight(unit) <= TRACED_MAX_WEIGHT]
        self._cycle(balanced_jobs(units, TRACED_UNITS_PER_JOB))
        self.executor = SweepExecutor(jobs=1, cache=None, observe=True)
        self.executor.run(self.jobs[0])

    def run_job(self, job: Job) -> List[BroadcastResult]:
        return self.executor.run(job)

    def check(self, job: Job, results: List[BroadcastResult]) -> int:
        observations = self.executor.last_observations or []
        missing = sum(
            1 for obs in observations
            if not (isinstance(obs, dict) and obs.get("summary"))
        )
        return super().check(job, results) + missing + len(job) - len(observations)


class Report(Workload):
    """``python -m repro report <id> --quick`` on a warm result cache."""

    name = "report"

    def setup(self) -> None:
        fresh_caches()
        self.cache_dir = _reset_dir(self.work_dir / "cache")
        self.out_dir = _reset_dir(self.work_dir / "html")
        reference = _reset_dir(self.work_dir / "reference")
        if self._report([*REPORT_IDS, "--cache-dir", str(self.cache_dir),
                         "--out", str(reference)]) != 0:
            raise RuntimeError("report set-up run failed its shape checks")
        self.pages = {
            exp_id: (reference / f"{exp_id}.html").read_bytes()
            for exp_id in REPORT_IDS
        }
        self._cycle(REPORT_IDS)

    def _report(self, argv: List[str]) -> int:
        from repro.__main__ import main

        configs = str(self.root / CONFIG_DIR)
        with contextlib.redirect_stdout(io.StringIO()):
            return main(["report", *argv, "--quick", "--configs", configs])

    def run_job(self, job: str) -> int:
        return self._report([job, "--cache-dir", str(self.cache_dir),
                             "--out", str(self.out_dir)])

    def job_points(self, job: str) -> int:
        return 1

    def check(self, job: str, status: int) -> int:
        page = (self.out_dir / f"{job}.html").read_bytes()
        return int(status != 0 or page != self.pages[job])

    def verify(self) -> int:
        """Re-render every page without the cache; mismatching pages.

        Pages are recomputed on the event engine, except those of
        :data:`VERIFY_FAST_IDS`, which stay on the default engine.
        """
        out = _reset_dir(self.work_dir / "verify")
        event_ids = [i for i in REPORT_IDS if i not in VERIFY_FAST_IDS]
        status = self._report([*event_ids, "--no-cache", "--engine", "event",
                               "--out", str(out)])
        status |= self._report([*VERIFY_FAST_IDS, "--no-cache",
                                "--out", str(out)])
        return int(status != 0) + sum(
            (out / f"{exp_id}.html").read_bytes() != page
            for exp_id, page in self.pages.items()
        )


WORKLOADS = {cls.name: cls for cls in (Cold, Traced, Report)}
