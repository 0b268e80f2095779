"""Engine-selection coverage: auto-fallback and explicit-fast rejection.

``run_broadcast(engine="auto")`` must fall back to the event engine
whenever a run carries something the fast path cannot model — faults,
recovery, tracing — and must take the fast path on clean runs.  An
explicit ``engine="fast"`` on such a run must fail loudly with
:class:`~repro.errors.UnsupportedFastPathError` (these tests pin the
message, which names every blocker).
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
from repro.simulator.trace import Tracer
from repro.sweep import SweepExecutor

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


def test_fast_with_tracer_raises():
    with pytest.raises(UnsupportedFastPathError, match="tracing"):
        run_broadcast(_problem(), "Br_Lin", tracer=Tracer(), engine="fast")


def test_fast_error_names_every_blocker():
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
        "engine='fast' does not support faults, recovery, tracing; "
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


def test_auto_uses_fast_path_on_clean_runs(monkeypatch):
    calls = []
    real = repro.fastpath.evaluate_problem

    def _spy(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(repro.fastpath, "evaluate_problem", _spy)
    result = run_broadcast(_problem(), "Br_Lin", seed=2, engine="auto")
    assert len(calls) == 1
    assert calls[0]["seed"] == 2
    assert result.debug["engine"] == "fast"
    assert result.debug["kernel"] in ("jit", "python")
    assert result.debug["plan_cache"] in ("hit", "miss", "bypass")


@pytest.mark.parametrize(
    "kwargs",
    [
        {"faults": FAULTS},
        {"faults": FAULTS, "recover": True},
        {"tracer": Tracer()},
        {"faults": FAULTS, "recover": True, "tracer": Tracer()},
    ],
    ids=["faults", "faults+recover", "tracing", "all-blockers"],
)
def test_auto_falls_back_to_event_engine(monkeypatch, kwargs):
    _forbid_fast_path(monkeypatch)
    result = run_broadcast(_problem(), "Br_Lin", engine="auto", **kwargs)
    event = run_broadcast(_problem(), "Br_Lin", engine="event", **kwargs)
    assert _blob(result) == _blob(event)


def test_explicit_event_engine_never_touches_fast_path(monkeypatch):
    _forbid_fast_path(monkeypatch)
    result = run_broadcast(_problem(), "Br_Lin", engine="event")
    assert result.complete


# ---------------------------------------------------------------------------
# Integration points: the same contract at the sweep and CLI layers.


def test_sweep_executor_rejects_unknown_engine():
    with pytest.raises(ConfigurationError, match="engine must be one of"):
        SweepExecutor(engine="warp")


def test_sweep_executor_rejects_observe_with_fast():
    with pytest.raises(ConfigurationError, match="observe=True requires"):
        SweepExecutor(observe=True, engine="fast")


def test_report_cli_rejects_observe_with_fast(capsys, tmp_path):
    from repro.pipeline.cli import main

    code = main(
        ["--observe", "--engine", "fast", "--out", str(tmp_path), "fig1"]
    )
    assert code == 2
    assert "requires the event engine" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_unshippable_measurements_honour_executor_engine(monkeypatch):
    """Ad-hoc machines bypass the executor's pool, not its engine.

    The quick mapping ablation measures a custom identity-mapped T3D
    in-process; under an event-engine executor it must never touch the
    fast path, and it still reproduces its recorded report.
    """
    from repro.bench.ablations import ablation_mapping
    from repro.bench.runner import use_executor

    _forbid_fast_path(monkeypatch)
    with use_executor(SweepExecutor(engine="event")):
        result = ablation_mapping(True)
    golden = json.loads(GOLDEN_REPORTS.read_text())["ablation-mapping"]
    digest = hashlib.sha256(result.report().encode()).hexdigest()
    assert digest == golden["sha256"]


def test_run_batch_fallback_honours_executor_engine(monkeypatch):
    from repro.bench.runner import run_batch, use_executor
    from repro.machines import paragon
    from repro.machines.paragon import PARAGON_PARAMS

    machine = paragon(4, 4, params=PARAGON_PARAMS.with_overrides(t_hop=0.0))
    assert machine.spec is None  # not shippable: evaluated in-process
    problem = BroadcastProblem(machine, (0, 5, 10), message_size=512)
    _forbid_fast_path(monkeypatch)
    with use_executor(SweepExecutor(engine="event")):
        [result] = run_batch([(problem, "Br_Lin")])
    assert result.complete
