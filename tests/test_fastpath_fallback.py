"""Engine-selection coverage: auto-fallback and explicit-fast rejection.

``run_broadcast(engine="auto")`` must fall back to the event engine
whenever a run carries something the fast path cannot model — faults,
recovery — and must take the fast path on every other run, traced or
not.  An explicit ``engine="fast"`` on such a run must fail loudly with
:class:`~repro.errors.UnsupportedFastPathError` (these tests pin the
message, which names every blocker).  Traced and observed runs on the
fast path must record what the event engine records.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

import repro.fastpath
from repro.core.problem import BroadcastProblem
from repro.core.runner import ENGINES, run_broadcast
from repro.errors import (
    ConfigurationError,
    ReproError,
    UnsupportedFastPathError,
)
from repro.machines import machine_from_spec
from repro.obs.summary import summarize_trace
from repro.simulator.trace import Tracer
from repro.sweep import ResultCache, SweepExecutor, SweepSpec

FAULTS = "degrade:links=0.25,factor=4"
GOLDEN_REPORTS = Path(__file__).parent / "golden" / "experiments_quick.json"


def _problem():
    return BroadcastProblem(
        machine=machine_from_spec("paragon:4x4"),
        sources=(0, 5, 10),
        message_size=512,
    )


def _blob(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))


def _records(tracer):
    return [(r.time, r.kind, r.fields) for r in tracer.records]


def _points():
    return SweepSpec(
        machines=("paragon:4x4", "t3d:16"),
        distributions=("E",),
        s_values=(4,),
        message_sizes=(256,),
        algorithms=("Br_Lin", "2-Step"),
        seeds=(0,),
    ).points()


# ---------------------------------------------------------------------------
# Explicit engine="fast" on unsupported runs: loud, specific errors.


def test_fast_with_faults_raises_with_pinned_message():
    with pytest.raises(UnsupportedFastPathError) as excinfo:
        run_broadcast(_problem(), "Br_Lin", faults=FAULTS, engine="fast")
    assert str(excinfo.value) == (
        "engine='fast' does not support faults; "
        "use engine='auto' or engine='event'"
    )


def test_fast_with_recovery_raises():
    with pytest.raises(UnsupportedFastPathError, match="recovery"):
        run_broadcast(
            _problem(), "Br_Lin", faults=FAULTS, recover=True, engine="fast"
        )


def test_fast_error_names_every_blocker():
    """Faults and recovery are the only blockers; a tracer is not one."""
    with pytest.raises(UnsupportedFastPathError) as excinfo:
        run_broadcast(
            _problem(),
            "Br_Lin",
            faults=FAULTS,
            recover=True,
            tracer=Tracer(),
            engine="fast",
        )
    assert str(excinfo.value) == (
        "engine='fast' does not support faults, recovery; "
        "use engine='auto' or engine='event'"
    )


def test_unsupported_fast_path_error_is_a_repro_error():
    """Catchable both as a configuration problem and as the root type."""
    assert issubclass(UnsupportedFastPathError, ConfigurationError)
    assert issubclass(UnsupportedFastPathError, ReproError)


def test_unknown_engine_rejected():
    with pytest.raises(ConfigurationError, match="engine must be one of"):
        run_broadcast(_problem(), "Br_Lin", engine="warp")
    assert ENGINES == ("auto", "event", "fast")


# ---------------------------------------------------------------------------
# engine="auto": fast path on clean runs, event engine on blocked ones.


def _forbid_fast_path(monkeypatch):
    def _boom(*args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError("fast path must not run for this configuration")

    monkeypatch.setattr(repro.fastpath, "evaluate_problem", _boom)


def _spy_fast_path(monkeypatch):
    """Record the keyword arguments of every fast-path evaluation."""
    calls = []
    real = repro.fastpath.evaluate_problem

    def _spy(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(repro.fastpath, "evaluate_problem", _spy)
    return calls


def test_auto_uses_fast_path_on_clean_runs(monkeypatch):
    calls = _spy_fast_path(monkeypatch)
    result = run_broadcast(_problem(), "Br_Lin", seed=2, engine="auto")
    assert len(calls) == 1
    assert calls[0]["seed"] == 2
    assert result.debug["engine"] == "fast"
    assert result.debug["plan_cache"] in ("hit", "miss")


@pytest.mark.parametrize(
    "kwargs",
    [
        {"faults": FAULTS},
        {"faults": FAULTS, "recover": True},
        {"faults": FAULTS, "recover": True, "tracer": Tracer()},
    ],
    ids=["faults", "faults+recover", "all-blockers"],
)
def test_auto_falls_back_to_event_engine(monkeypatch, kwargs):
    _forbid_fast_path(monkeypatch)
    result = run_broadcast(_problem(), "Br_Lin", engine="auto", **kwargs)
    event = run_broadcast(_problem(), "Br_Lin", engine="event", **kwargs)
    assert _blob(result) == _blob(event)


@pytest.mark.parametrize("engine", ["auto", "fast"])
def test_traced_run_takes_the_fast_path(monkeypatch, engine):
    """A tracer no longer blocks the fast path: same records, same bits."""
    calls = _spy_fast_path(monkeypatch)
    fast_tracer = Tracer()
    fast = run_broadcast(_problem(), "Br_Lin", tracer=fast_tracer, engine=engine)
    assert len(calls) == 1 and calls[0]["tracer"] is fast_tracer
    assert fast.debug["engine"] == "fast"
    event_tracer = Tracer()
    event = run_broadcast(
        _problem(), "Br_Lin", tracer=event_tracer, engine="event"
    )
    assert len(calls) == 1
    assert _blob(fast) == _blob(event)
    assert _records(fast_tracer) == _records(event_tracer)
    topology = _problem().machine.topology
    assert summarize_trace(fast_tracer, topology=topology) == summarize_trace(
        event_tracer, topology=topology
    )


def test_explicit_event_engine_never_touches_fast_path(monkeypatch):
    _forbid_fast_path(monkeypatch)
    result = run_broadcast(_problem(), "Br_Lin", engine="event")
    assert result.complete


# ---------------------------------------------------------------------------
# Integration points: the same contract at the sweep and CLI layers.


def test_sweep_executor_rejects_unknown_engine():
    with pytest.raises(ConfigurationError, match="engine must be one of"):
        SweepExecutor(engine="warp")


def test_sweep_executor_observes_on_the_fast_path(monkeypatch, tmp_path):
    """observe=True with engine="fast": fast replays, event-equal output."""
    points = _points()
    calls = _spy_fast_path(monkeypatch)
    fast = SweepExecutor(
        observe=True, engine="fast", cache=ResultCache(tmp_path / "fast")
    )
    fast_results = fast.run(points)
    assert len(calls) == len(points)
    assert all(isinstance(call["tracer"], Tracer) for call in calls)
    event = SweepExecutor(
        observe=True, engine="event", cache=ResultCache(tmp_path / "event")
    )
    event_results = event.run(points)
    assert len(calls) == len(points)
    assert [_blob(r) for r in fast_results] == [_blob(r) for r in event_results]
    assert fast.last_observations == event.last_observations
    assert all(obs["summary"] for obs in fast.last_observations)
    # The stored <key>.obs.json summaries are byte-equal too.
    for point in points:
        name = f"{point.key()}.obs.json"
        [fast_obs] = (tmp_path / "fast").rglob(name)
        [event_obs] = (tmp_path / "event").rglob(name)
        assert fast_obs.read_bytes() == event_obs.read_bytes()


def test_observed_sweep_honours_event_engine(monkeypatch):
    _forbid_fast_path(monkeypatch)
    executor = SweepExecutor(observe=True, engine="event")
    results = executor.run(_points())
    assert all(r.complete for r in results)
    assert all(obs["summary"] for obs in executor.last_observations)


def _strip_report_output(text: str) -> str:
    """Report stdout without wall-clock progress and output-path lines."""
    return "\n".join(
        line for line in text.splitlines()
        if not line.startswith(("sweep:", "wrote "))
    )


def test_report_cli_observes_on_the_fast_path(monkeypatch, capsys, tmp_path):
    """``report --observe --engine fast`` renders what the event engine does."""
    from repro.pipeline.cli import main

    calls = _spy_fast_path(monkeypatch)
    outputs = {}
    for engine in ("fast", "event"):
        code = main([
            "--quick", "--no-cache", "--observe", "--engine", engine,
            "--out", str(tmp_path / engine), "fig7",
        ])
        assert code == 0
        outputs[engine] = _strip_report_output(capsys.readouterr().out)
        if engine == "fast":
            assert calls and all(call["tracer"] is not None for call in calls)
    assert "observed points:" in outputs["fast"]
    assert outputs["fast"] == outputs["event"]
    for page in ("fig7.html", "index.html"):
        assert (tmp_path / "fast" / page).read_bytes() == (
            tmp_path / "event" / page
        ).read_bytes()


def test_identity_t3d_measurements_honour_executor_engine(monkeypatch):
    """The mapping ablation's identity T3D is a sweep point like any other.

    Under an event-engine executor the quick mapping ablation never
    touches the fast path, and it still reproduces its recorded report.
    """
    from repro.bench.ablations import ablation_mapping

    _forbid_fast_path(monkeypatch)
    executor = SweepExecutor(engine="event")
    plan = ablation_mapping(True)
    result = plan.finish(executor.run(plan.points))
    assert executor.last_report.computed == executor.last_report.total > 0
    golden = json.loads(GOLDEN_REPORTS.read_text())["ablation-mapping"]
    digest = hashlib.sha256(result.report().encode()).hexdigest()
    assert digest == golden["sha256"]


def test_variant_machines_honour_executor_engine(monkeypatch):
    from repro.bench.runner import seed_points, seed_times
    from repro.machines import paragon
    from repro.machines.paragon import PARAGON_PARAMS

    machine = paragon(4, 4, params=PARAGON_PARAMS.with_overrides(t_hop=0.0))
    assert machine.spec == "paragon:4x4+t_hop=0.0"
    problem = BroadcastProblem(machine, (0, 5, 10), message_size=512)
    expected = run_broadcast(problem, "Br_Lin").elapsed_ms
    _forbid_fast_path(monkeypatch)
    executor = SweepExecutor(engine="event")
    items = [(problem, "Br_Lin")]
    assert seed_times(items, executor.run(seed_points(items))) == [expected]
    assert executor.last_report.computed == 1


def test_report_robustness_honours_engine(monkeypatch, capsys, tmp_path):
    """Robustness injects faults, so ``--engine fast`` is refused with
    run_broadcast's error, and ``--engine event`` never takes the fast
    path."""
    from repro.pipeline.cli import main

    argv = ["robustness", "--quick", "--no-cache", "--out", str(tmp_path)]
    assert main([*argv, "--engine", "fast"]) == 2
    assert "engine='fast' does not support faults" in capsys.readouterr().err
    _forbid_fast_path(monkeypatch)
    assert main([*argv, "--engine", "event"]) == 0
    assert "all shape checks passed" in capsys.readouterr().out
