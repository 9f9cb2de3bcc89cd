#!/usr/bin/env python
"""Import-layering checker: a campaign loads only the campaign path.

Every ``repro-workflow campaign run/status/export`` and every perfbench
repetition starts a fresh interpreter, so whatever ``import
repro.campaign`` drags in is paid on every call.  This tool fails the
build when the campaign path grows back an import of code it never
runs, or when a lazy re-export (``repro._lazy``) stops resolving:

* :func:`check_layering` imports ``repro.campaign``, then drains a
  4-draw copy of the ``mixed`` perfbench spec into a temporary store,
  resumes it, reads its status and exports it (JSON and CSV).  None of
  :data:`FORBIDDEN` may be loaded at the end, no ``repro`` module may
  be first imported after ``import repro.campaign`` (so no import
  cost hides inside a drain), and ``numpy.random`` may not be loaded
  before the first point is materialized;
* :func:`check_surface` resolves every ``__all__`` name of every
  public package (``tools/check_api.py``'s ``PUBLIC_MODULES``) by
  attribute access and checks that ``dir()`` lists it.

It imports ``repro`` from wherever the interpreter finds it, so CI runs
it against the installed package.  Run it in a fresh interpreter::

    python tools/check_imports.py              (installed package)
    PYTHONPATH=src python tools/check_imports.py
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
import tempfile
from pathlib import Path

from check_api import PUBLIC_MODULES

REPO = Path(__file__).resolve().parent.parent
MIXED_SPEC = REPO / "perfbench" / "specs" / "mixed.json"

#: Modules a campaign never runs: search, simulation, the extensions,
#: the Table-2 harness, reports, sync and the engine's process pool.
FORBIDDEN = (
    "repro.search",
    "repro.simulation",
    "repro.extensions",
    "repro.experiments.runner",
    "repro.experiments.table2",
    "repro.campaign.report",
    "repro.campaign.sync",
    "concurrent.futures.process",
)


def _repro_modules() -> set[str]:
    return {name for name in sys.modules
            if name == "repro" or name.startswith("repro.")}


def check_layering(spec_path: Path = MIXED_SPEC) -> list[str]:
    """Problems of the campaign path's import graph (empty = clean).

    Must run first in a fresh interpreter: it judges what is loaded.
    """
    import repro.campaign as campaign

    problems: list[str] = []
    loaded = _repro_modules()
    spec = campaign.CampaignSpec.from_file(spec_path)
    spec = dataclasses.replace(spec, draws=4)
    with tempfile.TemporaryDirectory() as tmp:
        with campaign.ResultStore(Path(tmp) / "store.sqlite") as store:
            if "numpy.random" in sys.modules:
                problems.append("numpy.random is loaded before any point "
                                "is materialized")
            campaign.run_campaign(spec, store)
            resumed = campaign.run_campaign(spec, store)
            if resumed.evaluated:
                problems.append(f"the resume evaluated {resumed.evaluated} "
                                "points")
            campaign.campaign_status(spec, store)
            campaign.export_campaign_json(spec, store)
            campaign.export_campaign_csv(spec, store)
    late = sorted(_repro_modules() - loaded)
    if late:
        problems.append("first imported during the drain, resume, status "
                        f"or export: {', '.join(late)}")
    problems.extend(f"{name} is loaded on the campaign path"
                    for name in FORBIDDEN if name in sys.modules)
    return problems


def check_surface() -> list[str]:
    """Problems resolving public ``__all__`` names (empty = clean)."""
    problems: list[str] = []
    for module_name in PUBLIC_MODULES:
        module = importlib.import_module(module_name)
        listed = set(dir(module))
        for name in module.__all__:
            if not hasattr(module, name):
                problems.append(f"{module_name}.{name} does not resolve")
            if name not in listed:
                problems.append(f"dir({module_name}) does not list {name}")
    return problems


def main() -> int:
    problems = check_layering()
    import repro

    print(f"check_imports: repro from {repro.__file__}")
    problems += check_surface()
    for line in problems:
        print(f"  {line}", file=sys.stderr)
    if problems:
        print(f"check_imports: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print("check_imports: OK (campaign path clean, public names resolve)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
