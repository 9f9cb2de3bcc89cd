"""The campaign benchmark's hooks into the program still resolve.

``perfbench/layers.py::install()`` wraps program attributes it looks up
by name (``skeleton.solve_prepared``, ``classify.CycleTimePlan.verdict``,
``batch.overlap_period`` ...) and ``perfbench/rep.py`` imports public
names; renaming any of them breaks every traced benchmark run.  This
runs both in a fresh interpreter, with the benchmark's own import path.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

_PROBE = """
import layers

layers.install()

import repro.engine.skeleton as skeleton
from repro import compute_period
from repro.campaign import (
    CampaignSpec,
    ResultStore,
    export_campaign_json,
    instance_digest,
    run_campaign,
    run_campaign_workers,
)
from repro.telemetry import TELEMETRY, write_trace

assert skeleton.solve_prepared_many.__wrapped__
print("ok")
"""


def test_layers_install_and_rep_imports_resolve():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), str(REPO / "perfbench")]
    )
    out = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True, text=True, env=env, cwd=REPO,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"
