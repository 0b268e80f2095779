"""Self-contained HTML reports for the experiment pipeline.

One :func:`render_experiment_html` page per experiment — SVG line
charts, the aligned text tables, shape-check badges, an obs
link-heatmap for a representative point, and the exact CLI commands
that reproduce the page (including a Chrome-trace export) — plus a
:func:`render_index_html` landing page over all experiments.

Pages are *self-contained by construction*: one inline ``<style>``
block, inline SVG, no ``<script>`` at all, and no external URL in any
``src``/``href`` (``tools/check_report_html.py`` enforces this in CI).
Charts follow the repo's chart conventions: a fixed categorical palette
assigned in slot order (never cycled), 2px lines with >= 8px markers,
one y-axis, a recessive horizontal grid, a legend whenever two or more
curves share a plot, and native SVG ``<title>`` tooltips so hovering a
marker names its exact value without any JavaScript.

>>> from repro.bench.types import FigureResult, Series, Check
>>> result = FigureResult("Demo", "two curves", series=[Series(
...     "t", "s", [1, 2], {"a": [1.0, 2.0], "b": [2.0, 3.0]})],
...     checks=[Check("a below b", True)])
>>> html = render_experiment_html(None, result)
>>> "<script" in html
False
>>> html.count("<polyline") == 2
True
"""

from __future__ import annotations

import html as _html
import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.types import FigureResult, Series
from repro.pipeline.docsgen import verdict
from repro.sweep import ResultCache, SweepPoint

__all__ = [
    "render_experiment_html",
    "render_index_html",
    "render_series_svg",
    "representative_point",
    "PALETTE_LIGHT",
    "PALETTE_DARK",
]

#: Categorical palette, fixed slot order (identity follows the slot,
#: never the rank; >8 curves fall back to the table-only view).
PALETTE_LIGHT = (
    "#2a78d6", "#eb6834", "#1baf7a", "#eda100",
    "#e87ba4", "#008300", "#4a3aa7", "#e34948",
)
PALETTE_DARK = (
    "#3987e5", "#d95926", "#199e70", "#c98500",
    "#d55181", "#008300", "#9085e9", "#e66767",
)

_W, _H = 680, 340
_ML, _MR, _MT, _MB = 64, 20, 18, 40
_LABEL_GUTTER = 130  # extra right margin when curves are direct-labeled


def _esc(text: object) -> str:
    return _html.escape(str(text), quote=True)


def _css() -> str:
    """The single inline stylesheet (light + dark via CSS variables)."""
    light = "".join(
        f"--s{i + 1}:{hex_};" for i, hex_ in enumerate(PALETTE_LIGHT)
    )
    dark = "".join(
        f"--s{i + 1}:{hex_};" for i, hex_ in enumerate(PALETTE_DARK)
    )
    series_rules = "".join(
        f".c{i + 1}{{stroke:var(--s{i + 1})}}"
        f".f{i + 1}{{fill:var(--s{i + 1})}}"
        f".sw{i + 1}{{background:var(--s{i + 1})}}"
        for i in range(len(PALETTE_LIGHT))
    )
    return f"""
:root {{ color-scheme: light dark; }}
body {{
  {light}
  --page:#f9f9f7; --surface:#fcfcfb; --ink:#0b0b0b; --ink2:#52514e;
  --muted:#898781; --grid:#e1e0d9; --axis:#c3c2b7;
  --good:#0ca30c; --bad:#d03b3b; --badge-ink:#ffffff;
  --ring:rgba(11,11,11,0.10);
  margin:0; padding:2rem 1rem; background:var(--page); color:var(--ink);
  font:15px/1.5 system-ui,-apple-system,"Segoe UI",sans-serif;
}}
@media (prefers-color-scheme: dark) {{
  body {{
    {dark}
    --page:#0d0d0d; --surface:#1a1a19; --ink:#ffffff; --ink2:#c3c2b7;
    --muted:#898781; --grid:#2c2c2a; --axis:#383835;
    --ring:rgba(255,255,255,0.10);
  }}
}}
main {{ max-width: 960px; margin: 0 auto; }}
h1 {{ font-size: 1.5rem; margin: 0 0 .25rem; }}
h2 {{ font-size: 1.1rem; margin: 2rem 0 .5rem; }}
p.sub {{ color: var(--ink2); margin: 0 0 1rem; }}
.card {{
  background: var(--surface); border: 1px solid var(--ring);
  border-radius: 8px; padding: 1rem; margin: .75rem 0;
}}
svg.chart {{ display:block; width:100%; height:auto; }}
svg.chart .gridline {{ stroke: var(--grid); stroke-width: 1; }}
svg.chart .axisline {{ stroke: var(--axis); stroke-width: 1; }}
svg.chart .curve {{ fill: none; stroke-width: 2; }}
svg.chart .marker {{ stroke: var(--surface); stroke-width: 1; }}
svg.chart text {{ fill: var(--muted); font-size: 11px; }}
svg.chart text.dlabel {{ fill: var(--ink2); font-size: 12px; }}
svg.chart text.axtitle {{ fill: var(--ink2); font-size: 12px; }}
{series_rules}
.legend {{ margin:.5rem 0 0; color:var(--ink2); font-size:.85rem; }}
.legend span.item {{ margin-right: 1rem; white-space: nowrap; }}
.legend i {{
  display:inline-block; width:12px; height:12px; border-radius:3px;
  margin-right:.35rem; vertical-align:-1px;
}}
pre {{
  background: var(--surface); border: 1px solid var(--ring);
  border-radius: 6px; padding: .75rem; overflow-x: auto;
  font-size: .8rem; line-height: 1.4;
}}
.badge {{
  display:inline-block; padding:.05rem .5rem; border-radius:99px;
  font-size:.75rem; font-weight:600; color:var(--badge-ink);
}}
.badge.pass {{ background: var(--good); }}
.badge.fail {{ background: var(--bad); }}
.badge.meta {{ background: var(--muted); }}
ul.checks {{ list-style:none; padding:0; }}
ul.checks li {{ margin:.35rem 0; }}
ul.checks .detail {{ color: var(--muted); font-size:.85rem; }}
table {{ border-collapse: collapse; width:100%; }}
th, td {{
  text-align:left; padding:.4rem .6rem;
  border-bottom:1px solid var(--grid); font-size:.9rem;
}}
th {{ color:var(--ink2); font-weight:600; }}
td.num {{ font-variant-numeric: tabular-nums; }}
a {{ color: var(--s1); }}
footer {{ color:var(--muted); font-size:.8rem; margin-top:2rem; }}
"""


def _is_numeric(xs: Sequence) -> bool:
    return all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in xs
    )


def _x_positions(xs: Sequence) -> Tuple[List[float], str]:
    """Map x-values to [0, 1] positions; returns (positions, scale name).

    Numeric positive axes spanning a >= 50x ratio get a log scale
    (message-size and source-count sweeps); other numeric axes are
    linear; everything else is evenly spaced ("categorical").
    """
    n = len(xs)
    if n == 1:
        return [0.5], "categorical"
    if _is_numeric(xs) and all(x > 0 for x in xs):
        lo, hi = min(xs), max(xs)
        if lo > 0 and hi / lo >= 50:
            llo, lhi = math.log10(lo), math.log10(hi)
            return [(math.log10(x) - llo) / (lhi - llo) for x in xs], "log"
    if _is_numeric(xs):
        lo, hi = min(xs), max(xs)
        if hi > lo:
            return [(x - lo) / (hi - lo) for x in xs], "linear"
    return [i / (n - 1) for i in range(n)], "categorical"


def _nice_step(raw: float) -> float:
    """Round ``raw`` up to a 1/2/5 x 10^k tick step."""
    if raw <= 0:
        return 1.0
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            return mult * mag
    return 10.0 * mag


def _y_ticks(lo: float, hi: float) -> List[float]:
    """~5 nice ticks covering [lo, hi] (always includes 0 if in range)."""
    if hi <= lo:
        hi = lo + 1.0
    step = _nice_step((hi - lo) / 4.0)
    first = math.floor(lo / step)
    last = math.ceil(hi / step)
    return [round(t * step, 10) for t in range(first, last + 1)]


def _fmt_tick(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return f"{value:g}"


def render_series_svg(series: Series) -> Optional[str]:
    """One series as an inline SVG line chart, or ``None``.

    Returns ``None`` when the plot cannot follow the palette rules
    (more curves than fixed slots, or nothing to draw) — the caller
    then shows the text table alone, which is always present anyway.
    Markers carry native ``<title>`` tooltips; curves with at most four
    members are also direct-labeled at their right edge.
    """
    names = list(series.curves)
    xs = list(series.x_values)
    if not names or not xs or len(names) > len(PALETTE_LIGHT):
        return None
    direct = len(names) <= 4
    mr = _MR + (_LABEL_GUTTER if direct else 0)
    px, scale = _x_positions(xs)
    values = [v for name in names for v in series.curves[name]]
    y_lo = min(0.0, min(values))
    y_hi = max(values)
    ticks = _y_ticks(y_lo, y_hi)
    y_lo, y_hi = ticks[0], ticks[-1]
    plot_w = _W - _ML - mr
    plot_h = _H - _MT - _MB

    def sx(pos: float) -> float:
        return _ML + pos * plot_w

    def sy(value: float) -> float:
        return _MT + (1.0 - (value - y_lo) / (y_hi - y_lo)) * plot_h

    out: List[str] = [
        f'<svg class="chart" viewBox="0 0 {_W} {_H}" role="img" '
        f'aria-label="{_esc(series.title)}" '
        f'xmlns="http://www.w3.org/2000/svg">'
    ]
    # Recessive grid: horizontal hairlines at the y ticks only.
    for t in ticks:
        y = sy(t)
        cls = "axisline" if t == 0 else "gridline"
        out.append(
            f'<line class="{cls}" x1="{_ML}" y1="{y:.1f}" '
            f'x2="{_W - mr}" y2="{y:.1f}"/>'
        )
        out.append(
            f'<text x="{_ML - 6}" y="{y + 4:.1f}" '
            f'text-anchor="end">{_esc(_fmt_tick(t))}</text>'
        )
    # X tick labels on the baseline (thinned to at most 10).
    stride = max(1, (len(xs) + 9) // 10)
    for i in range(0, len(xs), stride):
        out.append(
            f'<text x="{sx(px[i]):.1f}" y="{_H - _MB + 16}" '
            f'text-anchor="middle">{_esc(xs[i])}</text>'
        )
    out.append(
        f'<text class="axtitle" x="{_ML + plot_w / 2:.1f}" y="{_H - 6}" '
        f'text-anchor="middle">{_esc(series.x_label)}'
        f'{" (log scale)" if scale == "log" else ""}</text>'
    )
    out.append(
        f'<text class="axtitle" x="14" y="{_MT + plot_h / 2:.1f}" '
        f'text-anchor="middle" '
        f'transform="rotate(-90 14 {_MT + plot_h / 2:.1f})">'
        f"{_esc(series.y_label)}</text>"
    )
    for slot, name in enumerate(names, start=1):
        ys = series.curves[name]
        points = " ".join(
            f"{sx(px[i]):.1f},{sy(ys[i]):.1f}" for i in range(len(xs))
        )
        out.append(f'<polyline class="curve c{slot}" points="{points}"/>')
        for i in range(len(xs)):
            tip = (
                f"{name} — {series.x_label} {xs[i]}: "
                f"{ys[i]:.3f} {series.y_label}"
            )
            out.append(
                f'<circle class="marker f{slot}" cx="{sx(px[i]):.1f}" '
                f'cy="{sy(ys[i]):.1f}" r="4"><title>{_esc(tip)}</title>'
                "</circle>"
            )
        if direct:
            out.append(
                f'<text class="dlabel" x="{_W - mr + 8}" '
                f'y="{sy(ys[-1]) + 4:.1f}">{_esc(name)}</text>'
            )
    out.append("</svg>")
    return "".join(out)


def _legend(names: Sequence[str]) -> str:
    """A swatch legend row (identity never rides on color alone)."""
    if len(names) < 2:
        return ""
    items = "".join(
        f'<span class="item"><i class="sw{slot}"></i>{_esc(name)}</span>'
        for slot, name in enumerate(names, start=1)
    )
    return f'<p class="legend">{items}</p>'


def representative_point(config) -> Optional[Dict[str, object]]:
    """One concrete (machine, dist, s, L, algorithm) of an experiment.

    Used for the report's link-heatmap and its Chrome-trace recipe: the
    cell at the middle x of the first series' full grid on its first
    curve (in a gain series, measured with the variant).  Series with a
    searched placement are passed over, since the single-run command
    (``python -m repro ... --trace-json``) addresses distributions only;
    ``None`` for builder configs and when no series is left.
    """
    if config is None or config.kind != "declarative":
        return None
    for series in config.series:
        if series.placement is not None:
            continue
        xs, _names, rows = series.grid()
        cell = rows[len(xs) // 2][0]
        return {
            "machine": cell["machine"],
            "dist": cell["distribution"],
            "s": cell["s"],
            "L": cell["message_size"],
            "algorithm": cell["algorithm"] or series.variant,
        }
    return None


def _link_heatmap(
    point: Dict[str, object], cache: Optional[ResultCache] = None
) -> Optional[str]:
    """ASCII link heatmap for the representative point.

    The heatmap is keyed by the point's :class:`~repro.sweep.SweepPoint`
    (seed 0, contention on, the page's distribution as provenance) and
    kept in ``cache`` as its ``heatmap`` sibling, so a warm render reads
    the stored text and simulates nothing.  On a miss, or with no cache
    (``--no-cache``), a traced run on the default engine (the fast path,
    which records the event engine's ``xfer`` records) draws it, and the
    text is stored for the next render.  A point the program rejects
    drops the heatmap from the page; any other failure is a bug and
    propagates.
    """
    import repro
    from repro.errors import ReproError
    from repro.machines import machine_from_spec
    from repro.obs import link_usage, render_link_heatmap
    from repro.simulator.trace import Tracer

    try:
        machine = machine_from_spec(str(point["machine"]))
        sources = repro.get_distribution(str(point["dist"])).generate(
            machine, int(point["s"])
        )
        problem = repro.BroadcastProblem(
            machine, sources, message_size=int(point["L"])
        )
        traced = SweepPoint.from_problem(
            problem, str(point["algorithm"]), distribution=str(point["dist"])
        )
        key = traced.key()
        if cache is not None:
            text = cache.load_sibling(traced, key, "heatmap")
            if text is not None:
                return text
        tracer = Tracer(kinds=("xfer",))
        repro.run_broadcast(
            problem, str(point["algorithm"]), seed=0, tracer=tracer
        )
        usage = link_usage(tracer.records, topology=machine.topology)
        text = render_link_heatmap(usage, topology=machine.topology, k=10)
    except ReproError:  # pragma: no cover - no committed point raises
        return None
    if cache is not None:
        cache.store_sibling(traced, key, "heatmap", text)
    return text


def _reproduce_block(
    config, result: FigureResult, point: Optional[Dict[str, object]]
) -> str:
    """The commands that rebuild this page and its ``point``'s trace."""
    name = config.id if config is not None else result.figure
    lines = [f"python -m repro report {name}   # this page + the text tables"]
    if point is not None:
        lines.append(
            "python -m repro"
            f" --machine {point['machine']} --dist {point['dist']}"
            f" --s {point['s']} --L {point['L']}"
            f" --algorithm {point['algorithm']}"
            f" --trace-json {name}.trace.json"
            "   # roll-up, heatmap, Chrome trace (chrome://tracing)"
        )
    return "<pre>" + _esc("\n".join(lines)) + "</pre>"


def _page(title: str, body: str) -> str:
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        '<meta name="viewport" content="width=device-width, initial-scale=1">\n'
        f"<title>{_esc(title)}</title>\n"
        f"<style>{_css()}</style>\n"
        f"</head><body><main>\n{body}\n"
        "<footer>generated by <code>python -m repro report</code> — "
        "self-contained, no scripts, no external resources.</footer>\n"
        "</main></body></html>\n"
    )


def render_experiment_html(
    config,
    result: FigureResult,
    *,
    quick: bool = False,
    cache: Optional[ResultCache] = None,
) -> str:
    """The complete report page for one experiment's measured result.

    ``cache`` serves and keeps the page's link heatmap (see
    :func:`_link_heatmap`); the page's bytes do not depend on it.
    """
    passed = sum(1 for c in result.checks if c.passed)
    total = len(result.checks)
    check_cls = "pass" if passed == total else "fail"
    group = config.group if config is not None else "figures"
    parts: List[str] = [
        f"<h1>{_esc(result.figure)}</h1>",
        f'<p class="sub">{_esc(result.description)}</p>',
        "<p>"
        f'<span class="badge meta">{_esc(group)}</span> '
        f'<span class="badge meta">{"quick" if quick else "full"} grid</span> '
        f'<span class="badge {check_cls}">checks {passed}/{total}</span>'
        "</p>",
    ]
    for series in result.series:
        svg = render_series_svg(series)
        parts.append(f"<h2>{_esc(series.title)}</h2>")
        parts.append('<div class="card">')
        if svg is not None:
            parts.append(svg)
            parts.append(_legend(list(series.curves)))
        else:
            parts.append(
                '<p class="sub">(table view — more curves than fixed '
                "palette slots)</p>"
            )
        parts.append("</div>")
        parts.append(
            "<details><summary>data table</summary>"
            f"<pre>{_esc(series.to_table())}</pre></details>"
        )
    if result.checks:
        parts.append("<h2>Shape checks</h2>")
        items = []
        for check in result.checks:
            badge = (
                '<span class="badge pass">✓ PASS</span>'
                if check.passed
                else '<span class="badge fail">✗ FAIL</span>'
            )
            detail = (
                f' <span class="detail">({_esc(check.detail)})</span>'
                if check.detail
                else ""
            )
            items.append(f"<li>{badge} {_esc(check.description)}{detail}</li>")
        parts.append('<ul class="checks">' + "".join(items) + "</ul>")
    if result.notes:
        parts.append("<h2>Notes</h2>")
        for note in result.notes:
            parts.append(f"<pre>{_esc(note)}</pre>")
    point = representative_point(config)
    if point is not None:
        heatmap = _link_heatmap(point, cache)
        if heatmap:
            parts.append("<h2>Link utilization (representative point)</h2>")
            parts.append(
                f'<p class="sub">{_esc(point["algorithm"])} on '
                f'{_esc(point["machine"])}, {_esc(point["dist"])} '
                f"distribution, s = {point['s']}, L = {point['L']} B "
                "(traced run)</p>"
            )
            parts.append(f"<pre>{_esc(heatmap)}</pre>")
    parts.append("<h2>Reproduce</h2>")
    parts.append(_reproduce_block(config, result, point))
    return _page(f"{result.figure} — {result.description}", "\n".join(parts))


def render_index_html(
    entries: Sequence[Tuple[object, FigureResult]], *, quick: bool = False
) -> str:
    """The landing page: one row per experiment, linking its report.

    Each row's verdict is :func:`~repro.pipeline.docsgen.verdict` of the
    config on the results at hand, quick or full.
    """
    total_checks = sum(len(r.checks) for _, r in entries)
    passed_checks = sum(
        1 for _, r in entries for c in r.checks if c.passed
    )
    ok = sum(1 for _, r in entries if r.all_passed)
    rows: List[str] = []
    for config, result in entries:
        name = config.id if config is not None else result.figure
        status = verdict(config, result) if config is not None else "reproduced"
        passed = sum(1 for c in result.checks if c.passed)
        cls = "pass" if result.all_passed else "fail"
        rows.append(
            "<tr>"
            f'<td><a href="{_esc(name)}.html">{_esc(name)}</a></td>'
            f"<td>{_esc(result.figure)}: {_esc(result.description)}</td>"
            f"<td>{_esc(config.group if config is not None else '')}</td>"
            f'<td class="num"><span class="badge {cls}">'
            f"{passed}/{len(result.checks)}</span></td>"
            f"<td>{_esc(status)}</td>"
            "</tr>"
        )
    body = "\n".join(
        [
            "<h1>Scalable S-to-P Broadcasting — reproduction report</h1>",
            '<p class="sub">Every experiment regenerated from its '
            "<code>configs/*.toml</code> description "
            f'({"quick" if quick else "full"} grids).</p>',
            "<p>"
            f'<span class="badge {"pass" if ok == len(entries) else "fail"}">'
            f"{ok}/{len(entries)} experiments pass</span> "
            f'<span class="badge meta">{passed_checks}/{total_checks} '
            "shape checks</span>"
            "</p>",
            "<table><thead><tr><th>id</th><th>experiment</th><th>group</th>"
            "<th>checks</th><th>verdict</th></tr></thead><tbody>",
            "\n".join(rows),
            "</tbody></table>",
        ]
    )
    return _page("S-to-P broadcasting — reproduction report", body)
