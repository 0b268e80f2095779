"""Every declarative config expands into its recorded set of sweep points.

``tests/golden/experiment_grids.json`` holds, for each declarative
``configs/*.toml`` experiment and each grid mode (``quick``, ``full``),
the number of points :func:`~repro.pipeline.runner.experiment_points`
returns and the sha256 of their identities: each point's
:meth:`~repro.sweep.spec.SweepPoint.payload` without ``code`` (the
source fingerprint, which every edit changes) as canonical JSON, one
line per point, lines sorted.  Sorting makes the digest independent of
point order; the set of points is what the result cache keys and the
benchmark's sweep traffic are made of.

The quick report digests (``tests/golden/experiments_quick.json``) pin
what the points measure; this file pins which points a config asks for,
in both modes, without simulating any of them.  Recompute an entry with
``grid_digest(load_config_dir()[id], quick)``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.pipeline.loader import load_config_dir
from repro.pipeline.runner import experiment_points

GOLDEN_PATH = Path(__file__).parent / "golden" / "experiment_grids.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())
CONFIGS = load_config_dir()
DECLARATIVE = sorted(
    id_ for id_, config in CONFIGS.items() if config.kind == "declarative"
)


def grid_digest(config, quick: bool) -> dict:
    """``{"points": N, "sha256": ...}`` of the config's grid in one mode."""
    lines = []
    for point in experiment_points(config, quick=quick):
        payload = point.payload()
        del payload["code"]
        lines.append(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    blob = "\n".join(sorted(lines)).encode("utf-8")
    return {"points": len(lines), "sha256": hashlib.sha256(blob).hexdigest()}


@pytest.mark.parametrize("mode", ["quick", "full"])
@pytest.mark.parametrize("experiment_id", DECLARATIVE)
def test_grid_matches_golden(experiment_id, mode):
    got = grid_digest(CONFIGS[experiment_id], quick=mode == "quick")
    assert got == GOLDEN[experiment_id][mode]


def test_golden_covers_every_declarative_config():
    assert sorted(GOLDEN) == DECLARATIVE
    assert len(DECLARATIVE) == 13
