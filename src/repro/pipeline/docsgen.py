"""EXPERIMENTS.md and RESULTS.txt, rendered from one full-grid run.

Each config's ``[doc]`` block is the prose of its EXPERIMENTS.md
section or table row, and RESULTS.txt is the run's text reports.  Both
regenerate exactly with::

    python -m repro report docs            # rewrite both in place
    python -m repro report docs --check    # CI: diff against committed

**Placeholders.**  Every measured number in the prose is a placeholder:
``{expr:fmt}`` is ``expr``, in the check language
(:mod:`repro.pipeline.checks`: ``at``, ``curve``, ``xs`` bound to
series 0 of the experiment's results, a builder's included), formatted
with the format spec ``fmt`` (the text after the last colon, possibly
empty); ``{N:expr:fmt}`` binds series ``N``.  A number renders with the
prose's minus sign, ``−``.  Literal braces are doubled.

**Verdicts.**  An experiment is ``partial`` exactly when its ``[doc]
deviation`` expression (series 0) holds on its results, else
``reproduced`` (:func:`verdict`, also the report index's column).  The
summary's pass, check and partial counts come from the results too.

Placeholders and deviations compile only when the docs render:
``report docs`` runs :func:`compile_doc` on every config before it runs
a point.  The connective tissue — preamble, table scaffolding, and the
operational appendix (fault grammar, recovery, cache notes) — is string
constants here, which state no measured number.

>>> from repro.bench.types import Series
>>> _fill("{at('Br_Lin', 8):.2f} ms, {-xs[0]:+d}, {{braces}}", "demo",
...       [Series("t", "s", [4, 8], {"Br_Lin": [1.0, 2.5]})])
'2.50 ms, −4, {braces}'
"""

from __future__ import annotations

import re
from typing import List, Sequence, Tuple

from repro.bench.types import FigureResult, Series
from repro.errors import ConfigurationError
from repro.pipeline.checks import compile_expr, evaluate_expr
from repro.pipeline.schema import ExperimentConfig

__all__ = [
    "compile_doc",
    "render_doc",
    "render_experiments_md",
    "render_results_txt",
    "verdict",
]

#: ``(config, its full-grid result)`` pairs, in config filename order.
Entries = Sequence[Tuple[ExperimentConfig, FigureResult]]

_TITLE = "# EXPERIMENTS — paper vs. measured, figure by figure"

_BANNER = (
    "<!-- generated by `python -m repro report docs` from configs/*.toml "
    "— do not hand-edit.\n     Edit the [doc] blocks in configs/ (or this "
    "generator's scaffolding) and regenerate. -->"
)

_PREAMBLE = """Environment: the simulated Paragon/T3D of this package (see DESIGN.md §2
for the substitution rationale).  Absolute times are simulator
milliseconds, **not** calibrated to the 1996 hardware; the reproduction
targets *shape* — orderings, rough factors, crossovers.  Every number
below is computed from one full-grid run, which regenerates with:

```bash
python -m repro report docs         # full grids → all tables, this file, RESULTS.txt
python -m repro report all          # same grids → reports/html/
pytest benchmarks/ --benchmark-only # same experiments as bench targets
```

Verdict legend: **partial** while the deviation from the paper that a
section documents still holds in the results, **reproduced** otherwise;
the summary counts the shape checks that pass."""

_ABLATIONS_HEAD = """## Ablations (design-choice evidence, DESIGN.md §5)

| ablation | removed ingredient | effect |
|---|---|---|"""

_EXTENSIONS_HEAD = """## Extension studies (beyond the paper)

| study | finding |
|---|---|"""

_APPENDIX = """### Fault-spec grammar

A schedule is one or more faults joined by `;`.  Each fault is
`kind:params[@T]` where `T` is the onset time — `500us`, `2ms`, or a
bare microsecond count (default `0`, i.e. from the start):

| spec | meaning |
|---|---|
| `link:A-B[@T]` | the bidirectional wire between nodes `A` and `B` dies at `T`.  Endpoints are node ids (`link:5-6`) or mesh coordinates (`link:(2,3)-(2,4)`) |
| `node:N[@T]` | node `N` dies at `T`: its injection/ejection and every adjacent wire go down; messages addressed to it raise `PeerFailedError` at the sender, messages routed *through* it detour |
| `degrade:links=F,factor=K[@T]` | a seeded fraction `F` (0 < F ≤ 1) of wire links carry `K`× per-byte cost from `T` |

Determinism: the degraded subset is drawn with
`random.Random(f"{canonical_spec}#{seed}")`, detour routes are BFS in
sorted-neighbour order, and the canonicalised spec participates in the
sweep cache key — so `--faults` runs reproduce bit-identically serial,
parallel (`--jobs N`), and from a warm cache.

Degraded operation: a send into a dead node raises a typed
`PeerFailedError` (the bundled schedules catch it and keep going); a
transfer with no surviving route is *lost*, and the run returns a
result with `delivery < 1.0` plus the deadlock diagnostic naming the
injected faults, instead of crashing.  Retransmission with backoff
lives in one place: the reliable transport the recovery pass below
runs on.

### Recovery & chaos

`run_broadcast(..., faults=..., recover=True)` — CLI `--recover` — runs
the recovery protocol after a faulty primary run:

1. **Failure detection** rides the reliable transport
   (`repro.mpsim.ReliableComm`): sequence-numbered envelopes,
   ACKs, retransmit with exponential backoff, and a timeout budget
   per transfer; an exhausted budget marks the peer failed
   (`PeerFailedError`) instead of hanging.
2. **Gossip**: the surviving connected component folds per-source
   delivery bitmaps to its lowest rank (one combining round on the
   surviving topology) and broadcasts the union back, so every live
   rank knows who holds — and who is missing — each message.
3. **Re-serve**: for each missing `(rank, message)`, the lowest-ranked
   surviving holder re-sends it over fault-detoured routes; all
   members walk the serve plan in one global deterministic order, so
   the phase cannot deadlock.

```bash
python -m repro --machine paragon:8x8 --faults 'node:63@0us' --recover
```

The result gains `recovered` (did every *achievable* delivery land —
messages on dead ranks or in severed components are unrecoverable and
not counted against it), `recovery_rounds`, and `recovery_time_us`.
Fault-free runs carry none of these keys.  A monotone link-kill
schedule that leaves the mesh connected loses nothing in the first
place (detours exist at request time), so recovery there is a free
no-op (`0 rounds`).

The chaos harness (`python -m repro chaos`) stress-tests the whole
stack with seeded random schedules (1–4 faults drawn over links,
nodes, and degradations, onset 0–300 µs) across an algorithm ×
distribution grid, asserting per trial:

* no crash and no un-diagnosed deadlock (`allow_partial` semantics);
* delivery stays in [0, 1];
* recovery never reduces delivery and is always reported on
  recovering runs;
* **full recovery** — delivery 1.0 and `recovered=True` — whenever the
  schedule kills no node and leaves the fabric connected;
* bit-identical replay (first trial is run twice and fingerprinted).

Failing schedules are *shrunk* (greedy single-fault removal preserving
the violated invariant) before reporting, and every trial is
replayable from the seed alone: `--trials N --seed S` runs trials
`0..N-1`, `--seed S --trial K` replays exactly one.  CI's
`chaos-smoke` job runs 25 trials at a fixed seed and uploads the JSON
report (with shrunk schedules) on failure.

---

## Re-running sweeps: the executor and its cache

All grid-based experiments above evaluate their points through the
sweep executor (`repro.sweep`).  Four operational notes:

- **Parallelism.** `python -m repro report --jobs 4 <id>` fans cold
  grid points over worker processes.
  Fan-out is safe because the simulator is deterministic — the
  differential tests (`tests/test_sweep_differential.py`) pin serial
  and parallel runs to bit-identical `elapsed_us`, transfer counts and
  metric tables, so any table in this file regenerates identically at
  any `--jobs` value.
- **Caching.** Results are memoized under `~/.cache/repro/sweep`
  (override with `--cache-dir`, bypass with `--no-cache`, clear by
  deleting the directory), and each report page's link heatmap is kept
  beside its point.  The key hashes the complete configuration and a
  fingerprint of the code (a sha256 over every module of `src/repro`),
  so any source edit, recalibrated machine parameters included,
  re-keys every point instead of letting a warm cache serve results of
  the old code.  A warm cache serves a figure without simulating,
  which is the intended workflow when editing the prose in `configs/`:
  `report docs` renders EXPERIMENTS.md from the results, so run it once
  cold, then iterate on the prose against the warm cache.
- **Seed protocol unchanged.** The executor preserves the measurement
  protocol used throughout: stable-rank machines (Paragon, hypercube)
  run seed 0 once; T3D points run seeds 0–4 and average the best 4,
  exactly as before — the per-seed runs are simply now individual,
  cacheable grid points.
- **Engine.** Every figure and table in this file is a *clean* run (no
  faults, no recovery), so under the default `--engine auto` all of
  them — Figures 1–13, the §5/§5.2 studies, the ablations and the
  extension studies — evaluate on the vectorized fast path
  (`repro.fastpath`).  Traced runs
  (`--observe`, `--trace-json`, the report pages' link heatmaps) stay
  on the fast path too; only the robustness study and chaos campaigns
  (fault injection and recovery) run on the generator event engine.
  The choice is invisible in the output: both engines are
  bit-identical (pinned by `tests/test_fastpath_differential.py` and
  the golden fixtures), and cache entries are shared across engines,
  so tables regenerated with `--engine event` reuse a cache warmed by
  `auto` and vice versa.

## Performance regression protocol

Simulator wall-clock is itself a guarded quantity: the figures above
are only cheap to regenerate because the event loop stays fast.
`python -m repro.perf` runs the pinned microbenchmark suite (the
`route/…`, `schedule/…`, `pingpong/…`, `run/…`, `fastpath/…` and
`traced/…` tiers that `repro.perf.suite` describes) and writes
`BENCH_simcore.json`; `--compare
benchmarks/perf_baseline.json` gates against the committed baseline,
calibration-normalized so a slower host does not masquerade as a
slower simulator (each benchmark carries its own machine-speed proxy
measured at the same instant).  The CI `perf-smoke` job runs the quick
subset on every push with a 25 % tolerance and one noise-filtering
retry.  The optimization work the baseline reflects — memoized link
routes, O(1) communicator views, fused send events, inlined event
scheduling — is proven behavior-preserving by
`tests/test_simcore_differential.py`, which pins 49 machine × algorithm
× distribution points to sha256 hashes of their complete result JSON
captured from the pre-optimization simulator."""

#: The ``[doc]`` fields that may hold placeholders.
_PROSE_FIELDS = ("section", "body", "removed", "effect", "finding")

#: Doubled braces, a placeholder, or a lone brace (an error).
_TOKEN = re.compile(r"\{\{|\}\}|\{[^{}]*\}|[{}]")


def _placeholders(text: str, context: str) -> List[Tuple[str, int, str, str]]:
    """Every placeholder of ``text`` as ``(source, series, expr, fmt)``."""
    found = []
    for match in _TOKEN.finditer(text):
        token = match.group()
        if token in ("{{", "}}"):
            continue
        head, colon, fmt = token[1:-1].rpartition(":")
        if len(token) == 1 or not colon:
            raise ConfigurationError(
                f"{context}: {token!r} at offset {match.start()} is neither "
                "{expr:fmt}, {N:expr:fmt} nor a doubled literal brace"
            )
        series, _, expr = head.partition(":")
        if not series.strip().isdigit():
            series, expr = "0", head
        found.append((token, int(series), expr.strip(), fmt))
    return found


def compile_doc(config: ExperimentConfig) -> None:
    """Compile every placeholder and the deviation of ``config``'s ``[doc]``.

    Raises :class:`~repro.errors.ConfigurationError` naming the file, the
    field and the placeholder when one is malformed or leaves the check
    language.  ``report docs`` calls this for every config before it
    runs any point, so a typo costs no sweep.
    """
    doc, where = _doc(config), config.path or config.id
    for field in _PROSE_FIELDS:
        context = f"{where}: [doc].{field}"
        for token, _series, expr, _fmt in _placeholders(
            getattr(doc, field), context
        ):
            compile_expr(expr, context=f"{context} {token}")
    if doc.deviation is not None:
        compile_expr(doc.deviation, context=f"{where}: [doc].deviation")


def _fill(text: str, context: str, series: Sequence[Series]) -> str:
    """``text`` with each placeholder replaced by its formatted value."""
    values = {}
    for token, index, expr, fmt in _placeholders(text, context):
        value = evaluate_expr(expr, series, index, context=f"{context} {token}")
        try:
            values[token] = format(value, fmt)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"{context} {token}: cannot format {value!r}: {exc}"
            ) from None
        if isinstance(value, (int, float)):
            values[token] = values[token].replace("-", "−")
    return _TOKEN.sub(lambda m: values.get(m.group(), m.group()[0]), text)


def verdict(config: ExperimentConfig, result: FigureResult) -> str:
    """``"partial"`` when ``config``'s deviation holds on ``result``, else
    ``"reproduced"``."""
    doc = config.doc
    if doc is None or doc.deviation is None:
        return "reproduced"
    held = evaluate_expr(
        doc.deviation, result.series,
        context=f"{config.path or config.id}: [doc].deviation",
    )
    return "partial" if held else "reproduced"


def _doc(config: ExperimentConfig):
    if config.doc is None:
        raise ConfigurationError(
            f"{config.path or config.id}: missing [doc] block"
        )
    return config.doc


def _summary(entries: Entries) -> str:
    results = [result for _, result in entries]
    n, total = len(results), sum(len(r.checks) for r in results)
    passed = sum(c.passed for r in results for c in r.checks)
    if passed == total:
        head = f"{n}/{n} experiments pass all {total} automated shape checks"
    else:
        ok = sum(r.all_passed for r in results)
        head = (f"{ok}/{n} experiments pass all their shape checks; "
                f"{passed} of {total} automated shape checks pass")
    groups = [config.group for config, _ in entries]
    partial = sum(verdict(c, r) == "partial" for c, r in entries)
    return (
        f"Summary: **{head}**\n"
        f"({groups.count('figures')} figures, {groups.count('text')} §5 "
        f"text claims, {groups.count('ablations')} ablations, "
        f"{groups.count('extensions')} extension studies, "
        f"{groups.count('robustness')}\nrobustness study; full tables in "
        f"`RESULTS.txt`); {partial} experiments carry\ndocumented secondary "
        "deviations."
    )


def render_doc(config: ExperimentConfig, result: FigureResult) -> str:
    """``config``'s part of EXPERIMENTS.md, filled from ``result``.

    A ``figures``/``text`` config renders its section with the computed
    verdict line, the robustness study its section, an ablation or an
    extension its summary-table row.
    """
    where = config.path or config.id

    def prose(field: str) -> str:
        text = getattr(_doc(config), field)
        return _fill(text, f"{where}: [doc].{field}", result.series)

    if config.group == "ablations":
        return f"| {prose('section')} | {prose('removed')} | {prose('effect')} |"
    if config.group == "extensions":
        return f"| {prose('section')} | {prose('finding')} |"
    text = f"## {prose('section')}\n\n{prose('body').strip()}"
    if config.group == "robustness":
        return text
    return f"{text}\n**Verdict: {verdict(config, result)}.**"


def render_experiments_md(entries: Entries) -> str:
    """The complete EXPERIMENTS.md text for ``entries`` (filename order)."""

    def docs(*groups: str) -> List[str]:
        return [render_doc(c, r) for c, r in entries if c.group in groups]

    return "\n\n".join([
        _TITLE, _BANNER, _PREAMBLE, _summary(entries), "---",
        *docs("figures", "text"),
        "---\n\n" + "\n".join([_ABLATIONS_HEAD, *docs("ablations")]),
        "\n".join([_EXTENSIONS_HEAD, *docs("extensions")]),
        *docs("robustness"),
        _APPENDIX,
    ]) + "\n"


def render_results_txt(results: Sequence[FigureResult]) -> str:
    """RESULTS.txt: every experiment's full text report, concatenated.

    Deterministic by construction — the wall-clock lines the old
    hand-captured transcript carried are gone, so a regenerated file
    diffs clean against the committed one whenever the measured tables
    themselves are unchanged.
    """
    blocks = [result.report() for result in results]
    failed = [r.figure for r in results if not r.all_passed]
    if failed:
        tail = f"shape checks FAILED for: {', '.join(failed)}"
    else:
        tail = f"all shape checks passed ({len(results)} experiment(s))"
    return "\n\n".join([*blocks, tail]) + "\n"
