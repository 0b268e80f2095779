"""Per-layer host-time spans, recorded around the program's layer entry points.

With ``--trace 1`` the benchmark wraps the functions at each layer boundary
of the program (schedule build, validation, lowering, kernel replay,
result serialization, the on-disk result cache, the event engine, the
pipeline's checks and HTML rendering, ...) for the duration of the timed
window, so the traced run takes exactly the code path of the untraced one.
Each wrapper records a span; a span's *self* time is its duration minus
the time covered by the spans nested inside it, so self times add up to
the traced time without double counting.

An entry point that no longer exists (renamed by a refactor) is skipped
and named on standard error, so a layer that reads zero because its entry
point vanished can be told from one the workload never reaches; the
end-to-end metrics never depend on it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: ``(layer, module, owner, attribute)``: ``owner`` is a class name inside
#: ``module`` or ``None`` for a module-level function.  Functions are
#: patched where their caller looks them up, which for ``from x import f``
#: is the importing module.
ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("sweep_dispatch", "repro.sweep.executor", "SweepExecutor", "run"),
    ("point_key", "repro.sweep.spec", "SweepPoint", "key"),
    ("build", "repro.core.algorithms.base", "BroadcastAlgorithm", "build_schedule"),
    ("validate", "repro.core.schedule", "Schedule", "validate"),
    ("lowered", "repro.core.schedule", "Schedule", "lowered"),
    ("delivery_check", "repro.core.schedule", "Schedule", "holdings_after"),
    ("lower", "repro.fastpath.plancache", None, "lower_schedule"),
    ("rebind", "repro.fastpath.lowering", "FastPlan", "rebind_sizes"),
    ("bind", "repro.fastpath.plancache", None, "bind_plan"),
    ("replay", "repro.fastpath.plancache", None, "evaluate_plan"),
    ("event_engine", "repro.machines.machine", "Machine", "run"),
    ("trace_summary", "repro.obs.summary", None, "summarize_trace"),
    ("serialize", "repro.core.runner", "BroadcastResult", "to_dict"),
    ("deserialize", "repro.core.runner", "BroadcastResult", "from_dict"),
    ("cache_load", "repro.sweep.cache", "ResultCache", "load"),
    ("cache_store", "repro.sweep.cache", "ResultCache", "store"),
    ("envelope", "repro.sweep.cache", None, "open_envelope"),
    ("envelope", "repro.sweep.cache", None, "seal_envelope"),
    ("config_load", "repro.pipeline.loader", None, "load_config_text"),
    ("experiment", "repro.pipeline.cli", None, "run_experiment"),
    ("checks", "repro.pipeline.runner", None, "evaluate_check"),
    ("html_render", "repro.pipeline.cli", None, "render_experiment_html"),
    ("html_render", "repro.pipeline.cli", None, "render_index_html"),
    ("heatmap", "repro.pipeline.report", None, "_link_heatmap"),
)

#: Every layer name, in :data:`ENTRY_POINTS` order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(name for name, *_ in ENTRY_POINTS))


class SpanRecorder:
    """Accumulates self time and call counts per layer."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {name: 0.0 for name in LAYERS}
        self.calls: Dict[str, int] = {name: 0 for name in LAYERS}
        #: Child-time accumulators of the open spans, innermost last.
        self._stack: List[float] = []

    def call(self, layer: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a ``layer`` span."""
        self._stack.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            children = self._stack.pop()
            self.self_s[layer] += elapsed - children
            self.calls[layer] += 1
            if self._stack:
                self._stack[-1] += elapsed


def _wrap(recorder: SpanRecorder, layer: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        return recorder.call(layer, fn, args, kwargs)

    return traced


def _subclasses(cls: type) -> List[type]:
    """``cls`` and all its subclasses, each once."""
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return list(dict.fromkeys(out))


@contextmanager
def instrumented(recorder: SpanRecorder) -> Iterator[None]:
    """Patch every entry point to record into ``recorder``; undo on exit.

    A method is patched on the class that defines it and on every
    subclass that overrides it (each algorithm defines its own
    ``build_schedule``).
    """
    undo: List[Tuple[Any, str, Any]] = []
    try:
        for layer, module_name, owner, attr in ENTRY_POINTS:
            where = ".".join(filter(None, (module_name, owner, attr)))
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                print(f"layer {layer}: no entry point {where}", file=sys.stderr)
                continue
            if owner is None:
                fn = module.__dict__.get(attr)
                if callable(fn):
                    undo.append((module, attr, fn))
                    setattr(module, attr, _wrap(recorder, layer, fn))
                else:
                    print(f"layer {layer}: no entry point {where}",
                          file=sys.stderr)
                continue
            base = module.__dict__.get(owner)
            if not isinstance(base, type) or not any(
                attr in cls.__dict__ for cls in _subclasses(base)
            ):
                print(f"layer {layer}: no entry point {where}", file=sys.stderr)
                continue
            for cls in _subclasses(base):
                raw = cls.__dict__.get(attr)
                if raw is None:
                    continue
                undo.append((cls, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(cls, attr,
                            classmethod(_wrap(recorder, layer, raw.__func__)))
                else:
                    setattr(cls, attr, _wrap(recorder, layer, raw))
        yield
    finally:
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)
