#!/usr/bin/env python3
"""CI gate: EXPERIMENTS.md and RESULTS.txt agree with ``configs/``.

Three checks, all cheap (no experiment is run):

1. the committed EXPERIMENTS.md is byte-identical to what
   ``repro.pipeline.docsgen`` regenerates from the configs — the file
   is a build artifact, so any hand edit (or any config edit without a
   regeneration) fails here;
2. the summary counters the file claims (``25/25 experiments``, ``74
   automated shape checks``) match the loaded configs;
3. the committed RESULTS.txt has one ``=== title: description ===``
   block per config, in config order, whose ``[PASS]``/``[FAIL]`` line
   count equals the config's declared check count.

The full byte-level RESULTS.txt regeneration needs actual experiment
runs; the docs CI job makes it right after this tool, with
``python -m repro report docs --check`` (full grids, cold cache).

Run:  python tools/check_experiments.py [repo-root]
"""

from __future__ import annotations

import pathlib
import re
import sys

SUMMARY_RE = re.compile(
    r"\*\*(\d+)/(\d+) experiments pass all (\d+) automated shape checks\*\*"
)
HEADER_RE = re.compile(r"^=== (.+) ===$", re.MULTILINE)


def check_experiments_md(root: pathlib.Path, configs) -> list:
    """Problems with the committed EXPERIMENTS.md (empty = clean)."""
    from repro.pipeline.docsgen import render_experiments_md, summary_counts

    problems = []
    path = root / "EXPERIMENTS.md"
    committed = path.read_text(encoding="utf-8")
    regenerated = render_experiments_md(configs)
    if committed != regenerated:
        problems.append(
            "EXPERIMENTS.md is not the regenerated artifact — run "
            "`python -m repro report docs --skip-results`"
        )
    counts = summary_counts(configs)
    match = SUMMARY_RE.search(committed)
    if match is None:
        problems.append("EXPERIMENTS.md: summary line not found")
    else:
        claimed = tuple(int(g) for g in match.groups())
        actual = (counts["experiments"], counts["experiments"], counts["checks"])
        if claimed != actual:
            problems.append(
                f"EXPERIMENTS.md summary claims {claimed[0]}/{claimed[1]} "
                f"experiments / {claimed[2]} checks; configs define "
                f"{actual[0]} experiments / {actual[2]} checks"
            )
    return problems


def check_results_txt(root: pathlib.Path, configs) -> list:
    """Structural problems with the committed RESULTS.txt."""
    problems = []
    text = (root / "RESULTS.txt").read_text(encoding="utf-8")
    headers = HEADER_RE.findall(text)
    expected = [f"{c.title}: {c.description}" for c in configs]
    if headers != expected:
        missing = [h for h in expected if h not in headers]
        extra = [h for h in headers if h not in expected]
        problems.append(
            "RESULTS.txt blocks do not match configs in order"
            + (f"; missing: {missing}" if missing else "")
            + (f"; unexpected: {extra}" if extra else "")
        )
        return problems
    blocks = HEADER_RE.split(text)[2::2]  # text after each header
    for config, block in zip(configs, blocks):
        marks = len(re.findall(r"^  \[(?:PASS|FAIL)\]", block, re.MULTILINE))
        if marks != config.num_checks:
            problems.append(
                f"RESULTS.txt block {config.id!r} shows {marks} shape "
                f"checks; config declares {config.num_checks}"
            )
    return problems


def main(argv: list | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = pathlib.Path(argv[0]) if argv else pathlib.Path(__file__).parents[1]
    sys.path.insert(0, str(root / "src"))
    from repro.pipeline.loader import load_config_dir

    configs = list(load_config_dir(root / "configs").values())
    problems = check_experiments_md(root, configs)
    problems += check_results_txt(root, configs)
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1
    counts = sum(c.num_checks for c in configs)
    print(
        f"EXPERIMENTS.md + RESULTS.txt agree with configs/ "
        f"({len(configs)} experiments, {counts} checks)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
