"""The slice digest writer against ``instance_digest``, its oracle.

Every stored result is addressed by a SHA-256 over its point's canonical
JSON.  :func:`repro.campaign.store.instance_digest` writes that JSON one
point at a time, and most of its time goes to ``repr`` of the
platform's floats.  The drain's derived digests go through the slice
writer instead (:func:`repro.campaign.store._instance_digests`), which
renders a slice's floats in a few numpy passes.  This benchmark checks
two deterministic contracts, both gated by ``run_all.py``:

* ``identical``: every digest of the ``mixed`` and ``shared_strict``
  perfbench specs and of the golden spec (``tests/
  test_golden_digests.py``), at root seeds 1 and 2, with the period-only
  and a multi-objective digest payload, equals ``instance_digest``'s;
* ``float_text_identical``: 10**7 seeded float bit patterns render to
  ``repr``'s text.  Half are raw 64-bit patterns (every exponent, NaN
  and infinities dropped); half keep a random sign and significand with
  an exponent inside the numpy path's domain.

It also reports, ungated, microseconds per point of both writers on a
500-point ``shared_strict`` slice (best of 5, interleaved).

Run standalone (asserts the contracts)::

    PYTHONPATH=src python benchmarks/bench_digest.py

or under pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_digest.py \
        -o python_files='bench_*.py' -o python_functions='bench_*'
"""

from __future__ import annotations

import dataclasses
import importlib.util
import time
from pathlib import Path

import numpy as np

from repro.campaign import CampaignSpec
from repro.campaign import store as store_module
from repro.campaign.executor import _digests_of
from repro.campaign.store import _instance_digests, instance_digest

try:  # pytest package context vs standalone `python benchmarks/...`
    from .conftest import report
except ImportError:  # pragma: no cover - standalone fallback
    from conftest import report

ROOT = Path(__file__).resolve().parents[1]
SPECS = ROOT / "perfbench" / "specs"
SEEDS = (1, 2)
#: Float bit patterns checked against ``repr``, in batches.
FLOATS = 10 ** 7
BATCH = 200_000
#: Points of the timed ``shared_strict`` slice.
SLICE = 500


def _golden_spec() -> CampaignSpec:
    path = ROOT / "tests" / "test_golden_digests.py"
    loader = importlib.util.spec_from_file_location("_golden_digests", path)
    assert loader is not None and loader.loader is not None
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return CampaignSpec.from_dict(module.SPEC)


def _specs() -> dict[str, CampaignSpec]:
    return {"mixed": CampaignSpec.from_file(SPECS / "mixed.json"),
            "shared_strict": CampaignSpec.from_file(SPECS / "shared_strict.json"),
            "golden": _golden_spec()}


def _digests_identical() -> tuple[bool, int]:
    """Whether every spec point's slice digest equals the oracle's, and
    how many digests were compared."""
    compared = 0
    for spec in _specs().values():
        for seed in SEEDS:
            points = dataclasses.replace(spec, root_seed=seed).expand()
            for objectives in (("period",), ("period", "latency")):
                derived = _digests_of(points, objectives)
                oracle = [instance_digest(pt.instance(), pt.model,
                                          objectives=objectives)
                          for pt in points]
                if derived != oracle:
                    return False, compared
                compared += len(points)
    return True, compared


_SEP = ("", ",", "],[")


def _float_texts_identical() -> bool:
    rng = np.random.default_rng(20090302)
    rows = store_module._Rows(BATCH)
    lo, hi = 1075 + store_module._Q_MIN, 1075 + store_module._Q_MAX
    for start in range(0, FLOATS, BATCH):
        bits = rng.integers(0, 2 ** 64, BATCH, dtype=np.uint64)
        if start % (2 * BATCH):
            exponent = rng.integers(lo, hi, BATCH, endpoint=True).astype(np.uint64)
            bits = (bits & np.uint64(0x800FFFFFFFFFFFFF)) | (exponent << np.uint64(52))
        x = bits.view(np.float64)
        x = x[np.isfinite(x)]
        seps = rng.integers(0, 3, x.size).astype(np.intp)
        text, _ = store_module._float_texts(x, seps, rows)
        expected = "".join([repr(v) + _SEP[s]
                            for v, s in zip(x.tolist(), seps.tolist())])
        if text != expected.encode():
            return False
    return True


def _timings() -> tuple[float, float]:
    """Best-of-5 microseconds per point: ``instance_digest`` and the
    slice writer on the first :data:`SLICE` ``shared_strict`` points."""
    spec = _specs()["shared_strict"]
    points = dataclasses.replace(spec, root_seed=SEEDS[0]).expand()[:SLICE]
    insts = [pt.instance() for pt in points]
    models = [pt.model for pt in points]
    oracle, writer = [], []
    for _ in range(5):
        t0 = time.perf_counter()
        for inst, model in zip(insts, models):
            instance_digest(inst, model)
        t1 = time.perf_counter()
        _instance_digests(insts, models)
        t2 = time.perf_counter()
        oracle.append(t1 - t0)
        writer.append(t2 - t1)
    return min(oracle) / SLICE * 1e6, min(writer) / SLICE * 1e6


def run_comparison() -> dict:
    identical, compared = _digests_identical()
    oracle_us, slice_us = _timings()
    return {
        "identical": identical,
        "digests_compared": compared,
        "float_text_identical": _float_texts_identical(),
        "floats_compared": FLOATS,
        "oracle_us_per_point": round(oracle_us, 2),
        "slice_us_per_point": round(slice_us, 2),
        "speedup": round(oracle_us / slice_us, 2),
    }


def _check(stats: dict) -> None:
    assert stats["identical"], "a slice digest differs from instance_digest"
    assert stats["float_text_identical"], "a float's text differs from repr"


def bench_digest_slice(benchmark):
    stats = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    _check(stats)
    report(benchmark, "Slice digest writer vs instance_digest",
           [("digests identical", "all", stats["digests_compared"]),
            ("floats identical", "all", stats["floats_compared"]),
            ("us per point", "oracle / slice",
             f"{stats['oracle_us_per_point']} / {stats['slice_us_per_point']}")])


def main() -> int:
    stats = run_comparison()
    for key, value in stats.items():
        print(f"{key:22s} {value}")
    _check(stats)
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
