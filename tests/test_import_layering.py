"""The campaign path imports only the campaign path.

``import repro.campaign`` must not load search, simulation, the
extensions, the Table-2 harness, reports, sync or the engine's process
pool, and a drain, resume, status or export must first-import no
``repro`` module (``tools/check_imports.py``).  Lazy re-exports
(``repro._lazy``) must resolve every public ``__all__`` name and list
it in ``dir()``.  Both run in a fresh interpreter: what an earlier test
imported would hide a regression.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

_LAYERING = """
import check_imports

problems = check_imports.check_layering()
assert not problems, problems
print("ok")
"""

_SURFACE = """
import sys

import repro

lazy = ("repro.search", "repro.objectives.pareto", "repro.campaign.report")
assert not [name for name in lazy if name in sys.modules], sys.modules
missing = set(repro.__all__) - set(dir(repro))
assert not missing, missing
# a subpackage nothing has imported yet is still an attribute
assert "repro.simulation" not in sys.modules
assert callable(repro.simulation.simulate)
try:
    repro.no_such_module
except AttributeError:
    pass
else:
    raise AssertionError("repro.no_such_module resolved")

import check_imports

problems = check_imports.check_surface()
assert not problems, problems
namespace = {}
exec("from repro import *", namespace)
assert set(repro.__all__) <= set(namespace)
assert repro.search.portfolio_search is repro.portfolio_search
print("ok")
"""


def _run(code: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(REPO / "src"), str(REPO / "tools")])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, cwd=REPO)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


def test_campaign_drain_resume_export_load_only_the_campaign_path():
    _run(_LAYERING)


def test_lazy_reexports_resolve_every_public_name():
    _run(_SURFACE)
