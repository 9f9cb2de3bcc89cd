"""Telemetry determinism across execution plans + wall-clock attribution.

PR 8's acceptance contract: the instrumentation layer observes without
perturbing.  One small multi-group campaign is drained three ways —
serial (twice) and ``run_campaign(n_jobs=2)`` (a 2-process lease
fabric) — all with tracing enabled, and the benchmark asserts:

* **counter determinism** — two serial runs produce *identical* full
  counter snapshots (every counter, not just the contract tier);
* **partition invariance** — the contract-tier counters
  (``engine.points[.*]``, ``engine.paths``, ``store.puts``,
  ``store.quarantines``) are identical across serial and the 2-worker
  fabric;
* **no store rescans** — none of the three drains calls
  ``ResultStore.digests()`` (``store.scans`` stays 0): the claim loop
  walks its work list with a cursor instead;
* **no perturbation** — the campaign JSON export of the traced fabric
  run is byte-identical to the traced serial run's;
* **disabled no-op** — draining the same spec with telemetry disabled
  adds zero counters and zero spans to the collector;
* **lossless Chrome export** — ``merged_from_chrome(chrome_trace(m))``
  reconstructs the merged fabric trace exactly;
* **span coverage** — the merged fabric trace attributes at least
  :data:`MIN_COVERAGE` of the root ``campaign`` span's wall-clock to
  named child phases.

The per-phase attribution table (where the wall-clock actually went)
is recorded in the stats — visible in ``BENCH_8.json`` — but its times
are never gated; only the structural facts above are contracts.

Run standalone (asserts everything)::

    PYTHONPATH=src python benchmarks/bench_telemetry.py

or under pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_telemetry.py \
        -o python_files='bench_*.py' -o python_functions='bench_*'
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from repro.campaign import (
    CampaignSpec,
    ResultStore,
    export_campaign_json,
    run_campaign,
)
from repro.telemetry import (
    TELEMETRY,
    attribution,
    chrome_trace,
    contract_counters,
    merge_traces,
    merged_from_chrome,
    trace_files,
)

try:  # pytest package context vs standalone `python benchmarks/...`
    from .conftest import report
except ImportError:  # pragma: no cover - standalone fallback
    from conftest import report

#: Minimum fraction of the root span the named phases must cover.
MIN_COVERAGE = 0.95

#: Small but multi-group: 2 models x 2 applications x 2 replication
#: policies x 2 draws = 12 distinct digests over ~10 topology groups,
#: touching both the tpn and polynomial engine paths.
SPEC = {
    "name": "telemetry-bench",
    "draws": 2,
    "models": ["overlap", "strict"],
    "applications": [
        {"synthetic": {"n_stages": 3, "shape": "balanced", "scale": 8.0}},
        {"workload": "audio-pipeline"},
    ],
    "platforms": [{"n_procs": 8}],
    "replications": [
        {"policy": "balls"},
        {"fixed": [1, 2, 3], "assignment": "blocks"},
    ],
    "max_paths": 200,
}


def _traced_serial(tmp: Path, tag: str) -> tuple[dict, str]:
    """One traced serial drain into a fresh store; merged trace + export."""
    spec = CampaignSpec.from_dict(SPEC)
    with ResultStore(tmp / f"{tag}.sqlite") as store:
        run_campaign(spec, store, trace_dir=tmp / f"trace-{tag}")
        export = export_campaign_json(spec, store)
    return merge_traces(trace_files(tmp / f"trace-{tag}")), export


def run_comparison() -> dict:
    spec = CampaignSpec.from_dict(SPEC)
    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = Path(tmpdir)

        serial_a, export_serial = _traced_serial(tmp, "serial-a")
        serial_b, _ = _traced_serial(tmp, "serial-b")

        with ResultStore(tmp / "fabric.sqlite") as store:
            run_campaign(spec, store, n_jobs=2, trace_dir=tmp / "trace-fabric")
            export_fabric = export_campaign_json(spec, store)
        fabric = merge_traces(trace_files(tmp / "trace-fabric"))

        # Disabled no-op: a drain without tracing must add zero counter
        # entries and zero spans to the (disabled) collector.
        TELEMETRY.disable()
        before_counters = TELEMETRY.counter_snapshot()
        before_spans = len(TELEMETRY.spans)
        with ResultStore(tmp / "dark.sqlite") as store:
            run_campaign(spec, store)
        disabled_noop = (TELEMETRY.counter_snapshot() == before_counters
                         and len(TELEMETRY.spans) == before_spans)

    contract_serial = contract_counters(serial_a["counters"])
    chrome = json.loads(json.dumps(chrome_trace(fabric), sort_keys=True))
    attrib = attribution(fabric)
    traces = (serial_a, serial_b, fabric)
    return {
        "n_points": contract_serial.get("engine.points", 0),
        "counters_identical": serial_a["counters"] == serial_b["counters"],
        "contract_invariant": (
            contract_serial == contract_counters(fabric["counters"])
        ),
        "exports_identical": export_serial == export_fabric,
        "disabled_noop": disabled_noop,
        "store_scans": sum(t["counters"].get("store.scans", 0)
                           for t in traces),
        "chrome_roundtrip": merged_from_chrome(chrome) == fabric,
        "engine_points": contract_serial.get("engine.points", 0),
        "skeleton_builds": serial_a["counters"].get(
            "engine.skeleton_builds", 0),
        # structural Howard preparations of the serial drain: one per
        # one-off skeleton plus one per Theorem-1 pattern shape
        "howard_prepares": serial_a["counters"].get("howard.prepares", 0),
        "contract_counters": contract_serial,
        "coverage": attrib["coverage"],
        "coverage_floor": MIN_COVERAGE,
        "attribution_root": attrib["root"],
        "attribution_phases": {
            p["name"]: {"count": p["count"], "total_s": p["total"]}
            for p in attrib["phases"]
        },
        "workers": fabric["workers"],
    }


def _check(stats: dict) -> None:
    assert stats["counters_identical"], \
        "two serial traced runs disagreed on counters"
    assert stats["contract_invariant"], \
        "contract counters depend on the partitioning"
    assert stats["exports_identical"], \
        "tracing perturbed the campaign export bytes"
    assert stats["disabled_noop"], \
        "disabled telemetry still collected counters or spans"
    assert stats["store_scans"] == 0, \
        f"campaign drains rescanned the store {stats['store_scans']} times"
    assert stats["chrome_roundtrip"], \
        "Chrome export round-trip lost information"
    assert stats["coverage"] >= stats["coverage_floor"], (
        f"named spans cover only {100 * stats['coverage']:.1f}% of the "
        f"fabric campaign (floor {100 * stats['coverage_floor']:.0f}%)"
    )


def bench_telemetry_campaign(benchmark):
    stats = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    _check(stats)
    report(benchmark, "Telemetry determinism (serial vs fabric)",
           [("serial counters identical", "yes", stats["counters_identical"]),
            ("contract tier invariant", "yes", stats["contract_invariant"]),
            ("exports byte-identical", "yes", stats["exports_identical"]),
            ("disabled no-op", "yes", stats["disabled_noop"]),
            ("store scans", "0", stats["store_scans"]),
            ("Howard prepares (serial)", "gated", stats["howard_prepares"]),
            ("chrome round-trip", "exact", stats["chrome_roundtrip"]),
            ("span coverage", f">= {MIN_COVERAGE:.0%}",
             f"{stats['coverage']:.1%}")])


def main() -> int:
    stats = run_comparison()
    print(f"campaign: {stats['n_points']} points, "
          f"workers {stats['workers']}")
    print(f"counters identical (serial x2)   : "
          f"{stats['counters_identical']}")
    print(f"contract tier partition-invariant: "
          f"{stats['contract_invariant']}")
    print(f"exports byte-identical           : {stats['exports_identical']}")
    print(f"disabled telemetry no-op         : {stats['disabled_noop']}")
    print(f"store scans during drains        : {stats['store_scans']}")
    print(f"Howard prepares (serial drain)   : {stats['howard_prepares']}")
    print(f"chrome round-trip exact          : {stats['chrome_roundtrip']}")
    print(f"span coverage of '{stats['attribution_root']}'    : "
          f"{stats['coverage']:.1%} (floor {MIN_COVERAGE:.0%})")
    for name, phase in stats["attribution_phases"].items():
        print(f"  {name:<14} x{phase['count']:<4} {phase['total_s']:.4f}s")
    _check(stats)
    print("all telemetry contracts hold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
