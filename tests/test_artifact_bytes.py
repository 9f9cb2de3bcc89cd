"""Pinned artifact bytes: campaign exports and reports are frozen.

The golden spec's JSON export, CSV export and JSON report are pinned as
SHA-256 literals, for a period-only and a multi-objective spec, each
complete and partial (``allow_partial`` with rows missing).  The
literals were computed with the stdlib's indent encoder, so they check
the writer of :func:`repro.utils.canonical_json` against the old bytes,
not only against itself.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignSpec,
    ResultStore,
    export_campaign_csv,
    export_campaign_json,
    export_campaign_report,
    run_campaign,
)

from .test_golden_digests import SPEC

SPECS = {
    "period": SPEC,
    "multi": {**SPEC, "objectives": ["period", "latency", "reliability"],
              "replications": SPEC["replications"][2:]},
}

#: Points drained before a partial export (``None``: all of them).
DRAINED = {"full": None, "partial": 5}

WRITERS = {
    "json": export_campaign_json,
    "csv": export_campaign_csv,
    "report": export_campaign_report,
}

PINNED = {
    ("period", "full", "json"):
        "77caeadf2cc31e15aed7e87dd6de1fffbc3ca80748470ceef6c53474cd2f63b6",
    ("period", "full", "csv"):
        "12502fb31096cdc0ac2889ed6f8b4b831fce357d4a4d800cfa0b6d0acaeaa5bc",
    ("period", "full", "report"):
        "c7f0d1914dd43902c9c093af4f63d6f98a3fdb9a076eccc50ed4bd730d21bdce",
    ("period", "partial", "json"):
        "3ed2ee01b5fa54d3061c30dac73e99f7803f1d3065f3c66cf0f3e7e4d8133834",
    ("period", "partial", "csv"):
        "4076db0e69cdecd6e4bbd3bb2c954a72e9a4d659d0a389ce04e0ec861cbe88c6",
    ("period", "partial", "report"):
        "3b2b3d9ead0aa6e3f98c2f99473f24d540a4130d18ac632c44b1368cfa171e3c",
    ("multi", "full", "json"):
        "b32d04c609dd9159b803dece8fd6ede3b3d1dc97b5adaaa587e9d4b561e232d4",
    ("multi", "full", "csv"):
        "558f605fbf013858578f01f089138f5d14a2b5eb8c9174feb6c601989e27cdfd",
    ("multi", "full", "report"):
        "33548c8ce6eeacf27cc42f318c625e50e9cde9447df0c7f44ae7be67a21fd174",
    ("multi", "partial", "json"):
        "2696c41b3a176f0608a01bce296a0941ae9eb6a25eb96f5ccf45059783d44ff9",
    ("multi", "partial", "csv"):
        "04e5d4a675bb6ec1afc7286c4657191db98c0b118288e9356fad386b1708546e",
    ("multi", "partial", "report"):
        "8b07f47c939e1f88cc888368f7a02121d699303a97f775418bd7ae0a0a743be0",
}


@pytest.fixture(scope="module")
def artifacts():
    """Every ``(spec, drain, writer)`` artifact text of :data:`PINNED`."""
    texts = {}
    for name, data in SPECS.items():
        spec = CampaignSpec.from_dict(data)
        for drain, max_points in DRAINED.items():
            with ResultStore(":memory:") as store:
                report = run_campaign(spec, store, max_points=max_points)
                assert report.complete == (max_points is None)
                for kind, writer in WRITERS.items():
                    texts[name, drain, kind] = writer(
                        spec, store, allow_partial=max_points is not None)
    return texts


@pytest.mark.parametrize("key", list(PINNED), ids="-".join)
def test_artifact_bytes_are_pinned(artifacts, key):
    digest = hashlib.sha256(artifacts[key].encode("utf-8")).hexdigest()
    assert digest == PINNED[key]


#: Reads a spec, drains it and writes both exports into ``argv[2]``.
_LOCALE_RUN = """
import sys
from repro.campaign import (CampaignSpec, ResultStore, export_campaign_csv,
                            export_campaign_json, run_campaign)
spec = CampaignSpec.from_file(sys.argv[1])
with ResultStore(sys.argv[2] + "/store.sqlite") as store:
    run_campaign(spec, store)
    export_campaign_json(spec, store, sys.argv[2] + "/export.json")
    export_campaign_csv(spec, store, sys.argv[2] + "/export.csv")
"""

#: An ASCII locale without Python's UTF-8 mode or locale coercion.
_ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


def test_spec_and_exports_are_utf8_whatever_the_locale(tmp_path):
    """A UTF-8 spec with a non-ASCII label loads, drains and exports to
    the same bytes under an ASCII locale as in UTF-8 mode: the label is
    part of every point's seed key, so a misread would move seeds."""
    import os
    import subprocess
    import sys

    import repro

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "name": "locale", "draws": 2, "models": ["overlap", "strict"],
        "applications": [{"label": "équilibré", "synthetic": {
            "n_stages": 3, "shape": "balanced", "scale": 10.0}}],
        "platforms": [{"label": "unifórme", "n_procs": 6}],
        "replications": [{"label": "balls", "policy": "balls"}],
    }, ensure_ascii=False), encoding="utf-8")
    src = str(Path(repro.__file__).resolve().parents[1])
    outputs = {}
    for name, env in (("ascii", _ASCII_LOCALE), ("utf8", {"PYTHONUTF8": "1"})):
        out = tmp_path / name
        out.mkdir()
        subprocess.run(
            [sys.executable, "-c", _LOCALE_RUN, str(spec_path), str(out)],
            env={**os.environ, "PYTHONPATH": src, **env}, check=True,
            capture_output=True)
        outputs[name] = [(out / f).read_bytes()
                         for f in ("export.json", "export.csv")]
    assert outputs["ascii"] == outputs["utf8"]
    csv_bytes = outputs["utf8"][1]
    assert "unifórme".encode("utf-8") in csv_bytes
    assert "équilibré".encode("utf-8") in csv_bytes
