"""Run the required benchmarks; write and compare BENCH_<pr>.json.

The perf trajectory of this repo lives in its benchmarks, but until
PR 4 their numbers evaporated with the CI logs.  This harness runs each
required benchmark's comparison function, collects the stats dicts
(speedup ratios, policy-round counts, cache counters, identity flags),
and serializes everything to one JSON artifact.  Since PR 5 the reports
are **committed** (``BENCH_4.json``, ``BENCH_5.json``, ...) so the
trajectory accumulates in-repo, and ``--compare PREV.json`` turns the
previous report into a regression gate.

Since PR 6 every gated contract is deterministic (identity flags,
policy-round ratios, skeleton-build counts, seeded search periods):
BENCH_4/5.json record the old wall-clock speedup floors failing on CI
hardware with no code defect, so wall-clock numbers are still
*recorded* in the artifacts — the perf trajectory stays visible — but
never gated.  The exit code is non-zero only if a deterministic
contract fails, or, under ``--compare``, if one that held in the
previous report regressed (:data:`CONTRACTS`).

Usage::

    PYTHONPATH=src python benchmarks/run_all.py \\
        [--output bench-report.json] [--compare BENCH_30.json]

The report goes to ``bench-report.json`` unless ``--output`` names
another file; ``--output`` naming the ``--compare`` file is refused, so
a check never overwrites the baseline it gates against.  A report
becomes a committed baseline only by copying it to ``BENCH_<pr>.json``
on purpose.
"""

from __future__ import annotations

import argparse
import json
import platform as _platform
import sys
from pathlib import Path

#: Schema version of the emitted JSON.
SCHEMA = 2

#: The PR this harness currently reports for.
PR = 30

#: Cross-report deterministic contracts: ``--compare`` fails when the
#: current value is worse than the previous report's.  Direction
#: ``"<="`` means lower-or-equal is required (counts, seeded periods),
#: ``">="`` higher-or-equal (boolean flags — an improvement from False
#: to True never regresses).  Metrics missing on either side are
#: skipped, so reports from different PRs stay comparable.
CONTRACTS = [
    ("howard_many_identity", "identical", ">="),
    ("howard_many", "identical", ">="),
    ("howard_many", "round_ratio", ">="),
    ("howard_many", "rounds_lockstep_outer", "<="),
    ("howard_seed_sweep", "identical", ">="),
    ("howard_seed_sweep", "uncertified", "<="),
    ("howard_slab_sweep", "identical", ">="),
    ("howard_slab_sweep", "peak_mib_256", "<="),
    ("howard_scalar", "identical", ">="),
    ("howard_scalar", "rounds", "<="),
    ("engine_batch", "identical", ">="),
    ("engine_batch", "skeleton_builds", "<="),
    ("engine_batch", "relabelled_identical", ">="),
    ("engine_batch", "relabelled_builds", "<="),
    ("engine_batch", "poly_patterns_solved", "<="),
    ("engine_batch", "poly_identical", ">="),
    ("engine_batch", "poly_group_identical", ">="),
    ("campaign_ordering", "identical", ">="),
    ("campaign_ordering", "campaign_builds", "<="),
    ("portfolio_vs_single_start", "wins", ">="),
    ("portfolio_vs_single_start", "portfolio_period", "<="),
    ("portfolio_three_way", "racing_never_worse", ">="),
    ("portfolio_three_way", "racing_beats_fair_on_rugged", ">="),
    ("telemetry_campaign", "counters_identical", ">="),
    ("telemetry_campaign", "contract_invariant", ">="),
    ("telemetry_campaign", "exports_identical", ">="),
    ("telemetry_campaign", "disabled_noop", ">="),
    ("telemetry_campaign", "chrome_roundtrip", ">="),
    ("telemetry_campaign", "engine_points", "<="),
    ("telemetry_campaign", "skeleton_builds", "<="),
    ("telemetry_campaign", "store_scans", "<="),
    ("telemetry_campaign", "howard_prepares", "<="),
    ("faults_chaos", "disabled_noop", ">="),
    ("faults_chaos", "exports_identical", ">="),
    ("faults_chaos", "retry_deterministic", ">="),
    ("faults_chaos", "spill_heal_identical", ">="),
    ("faults_chaos", "heal_idempotent", ">="),
    ("faults_chaos", "zero_lost", ">="),
    ("faults_chaos", "zero_duplicated", ">="),
    ("faults_chaos", "chaos_identical", ">="),
    ("pareto_portfolio", "identical", ">="),
    ("pareto_portfolio", "fronts_valid", ">="),
    ("pareto_portfolio", "strategies_diverse", ">="),
    ("lease_statements", "renew_updates", "<="),
    ("lease_statements", "release_deletes", "<="),
    ("lease_statements", "claim_probes", "<="),
    ("lease_statements", "lease_statements", "<="),
    ("digest_slice", "identical", ">="),
    ("digest_slice", "float_text_identical", ">="),
]

#: Benchmarks deliberately removed together with the feature they
#: measured: ``--compare`` does not report them as disappeared.
RETIRED = {
    "warm_start_rounds": "Howard warm starts were removed in 3.0.0",
}


def _jsonable(obj):
    """Best-effort conversion of benchmark stats to plain JSON data."""
    import numpy as np

    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if hasattr(obj, "__dict__"):
        return {k: _jsonable(v) for k, v in vars(obj).items()}
    return repr(obj)


def _run(name: str, fn, check) -> dict:
    """Run one benchmark comparison; capture stats and verdict."""
    entry: dict = {"name": name}
    try:
        stats = fn()
        entry["stats"] = _jsonable(stats)
        try:
            check(stats)
            entry["passed"] = True
        except AssertionError as exc:
            entry["passed"] = False
            entry["error"] = str(exc)
    except Exception as exc:  # noqa: BLE001 - recorded, not raised
        entry["passed"] = False
        entry["error"] = f"{type(exc).__name__}: {exc}"
    return entry


def collect() -> dict:
    """Run every required benchmark and assemble the report."""
    import bench_campaign
    import bench_digest
    import bench_engine_batch
    import bench_faults
    import bench_howard_many
    import bench_howard_scalar
    import bench_lease
    import bench_pareto
    import bench_portfolio
    import bench_telemetry

    benchmarks = [
        # (name, stats function, assertion, deterministic?)
        (
            "howard_many",
            bench_howard_many.run_comparison,
            lambda s: [
                _assert(s["identical"], "group results diverged"),
                _assert(s["rounds_scalar"] == s["rounds_lockstep"],
                        "lockstep trajectory diverged"),
                _assert(s["round_ratio"] >= bench_howard_many.MIN_ROUND_RATIO,
                        f"round ratio {s['round_ratio']:.1f} below the "
                        f"deterministic "
                        f"{bench_howard_many.MIN_ROUND_RATIO:g} floor"),
            ],
            True,
        ),
        (
            "howard_many_identity",
            bench_howard_many.check_identity,
            lambda s: _assert(s["identical"], "bit-identity broke"),
            True,
        ),
        (
            "howard_seed_sweep",
            bench_howard_many.seed_sweep,
            lambda s: _assert(s["identical"],
                              "lockstep rows diverged from the cold solve"),
            True,
        ),
        (
            "howard_slab_sweep",
            bench_howard_many.slab_sweep,
            bench_howard_many._check_slab_sweep,
            True,
        ),
        (
            "howard_scalar",
            bench_howard_scalar.run_sweep,
            lambda s: _assert(s["identical"],
                              "list and numpy improvement steps diverged"),
            True,
        ),
        (
            "engine_batch",
            bench_engine_batch.run_comparison,
            lambda s: [
                _assert(s["identical"], "batched results diverged"),
                _assert(s["skeleton_builds"] == 1,
                        f"{s['skeleton_builds']} skeleton builds for one "
                        f"shared topology (expected exactly 1)"),
                _assert(s["relabelled_identical"],
                        "random-assignment results diverged"),
                _assert(s["relabelled_builds"] == s["count_vectors"],
                        f"{s['relabelled_builds']} skeleton builds for "
                        f"{s['count_vectors']} count vectors"),
                _assert(s["poly_identical"], "Theorem-1 periods diverged"),
                _assert(s["poly_group_identical"],
                        "Theorem-1 group results diverged"),
            ],
            True,
        ),
        (
            "campaign_ordering",
            bench_campaign.run_comparison,
            lambda s: [
                _assert(s["identical"], "values diverged between layouts"),
                _assert(s["campaign_builds"] < s["chunked_builds"],
                        "ordering did not cut skeleton builds"),
            ],
            True,
        ),
        (
            "portfolio_vs_single_start",
            bench_portfolio.run_comparison,
            lambda s: _assert(s["wins"], "portfolio lost to single start"),
            True,
        ),
        (
            "portfolio_three_way",
            bench_portfolio.run_three_way,
            lambda s: [
                _assert(s["rugged_seeds_are_rugged"],
                        "RUGGED_SEEDS drifted"),
                _assert(s["racing_never_worse"],
                        "racing lost to fair-share at equal budget"),
                _assert(s["racing_beats_fair_on_rugged"],
                        "racing did not strictly beat fair-share on a "
                        "rugged seed"),
            ],
            True,
        ),
        (
            "telemetry_campaign",
            bench_telemetry.run_comparison,
            bench_telemetry._check,
            True,
        ),
        (
            "faults_chaos",
            bench_faults.run_comparison,
            bench_faults._check,
            True,
        ),
        (
            "pareto_portfolio",
            bench_pareto.run_comparison,
            bench_pareto._check,
            True,
        ),
        (
            "lease_statements",
            bench_lease.run_comparison,
            bench_lease._check,
            True,
        ),
        (
            "digest_slice",
            bench_digest.run_comparison,
            bench_digest._check,
            True,
        ),
    ]

    report = {
        "schema": SCHEMA,
        "pr": PR,
        "python": sys.version.split()[0],
        "machine": _platform.machine(),
        "benchmarks": {},
        "deterministic_failures": [],
    }
    for name, fn, check, deterministic in benchmarks:
        entry = _run(name, fn, check)
        entry["deterministic"] = deterministic
        report["benchmarks"][name] = entry
        if deterministic and not entry["passed"]:
            report["deterministic_failures"].append(name)
    return report


def _assert(cond: bool, message: str) -> None:
    # Explicit raise, not `assert`: the contract gates must survive -O.
    if not cond:
        raise AssertionError(message)


def compare_reports(prev: dict, curr: dict) -> list[str]:
    """Deterministic regressions of ``curr`` against a previous report.

    Two classes of failure, both restricted to deterministic contracts
    (wall-clock ratios are recorded in the artifacts but never gated):

    * a deterministic benchmark that **passed** in the previous report
      now fails or has disappeared (unless listed in :data:`RETIRED`);
    * a :data:`CONTRACTS` metric moved in the regressing direction
      (more policy rounds, a worse seeded search period, a True flag
      turned False).
    """
    errors: list[str] = []
    for name, entry in prev.get("benchmarks", {}).items():
        if not entry.get("deterministic") or not entry.get("passed") \
                or name in RETIRED:
            continue
        cur = curr.get("benchmarks", {}).get(name)
        if cur is None:
            errors.append(f"{name}: deterministic benchmark disappeared "
                          f"from the report")
        elif not cur.get("passed"):
            errors.append(f"{name}: passed in the previous report, now "
                          f"fails ({cur.get('error')})")
    for name, key, direction in CONTRACTS:
        prev_stats = prev.get("benchmarks", {}).get(name, {}).get("stats", {})
        curr_stats = curr.get("benchmarks", {}).get(name, {}).get("stats", {})
        if key not in prev_stats or key not in curr_stats:
            continue
        p, c = prev_stats[key], curr_stats[key]
        ok = c <= p if direction == "<=" else c >= p
        if not ok:
            errors.append(f"{name}.{key}: regressed from {p!r} to {c!r} "
                          f"(required {direction} previous)")
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="bench-report.json",
                        help="path of the JSON artifact (default: %(default)s); "
                             "must not be the --compare file")
    parser.add_argument("--compare", default=None, metavar="PREV",
                        help="previous report (e.g. BENCH_4.json); exit "
                             "non-zero if a deterministic contract that "
                             "held there regressed")
    args = parser.parse_args(argv)
    if args.compare is not None \
            and Path(args.output).resolve() == Path(args.compare).resolve():
        parser.exit(2, f"run_all.py: --output {args.output} is the --compare "
                       f"file; pass another --output so the baseline is "
                       f"not overwritten\n")

    report = collect()
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    Path(args.output).write_text(text)

    for name, entry in report["benchmarks"].items():
        status = "ok" if entry["passed"] else f"FAIL ({entry.get('error')})"
        kind = "deterministic" if entry["deterministic"] else "wall-clock"
        print(f"{name:28s} [{kind:13s}] {status}")
    print(f"wrote {args.output}")

    failed = bool(report["deterministic_failures"])
    if report["deterministic_failures"]:
        print("deterministic failures:",
              ", ".join(report["deterministic_failures"]))

    if args.compare is not None:
        prev = json.loads(Path(args.compare).read_text())
        regressions = compare_reports(prev, report)
        for err in regressions:
            print(f"REGRESSION vs {args.compare}: {err}")
        if not regressions:
            print(f"no deterministic regressions vs {args.compare} "
                  f"(pr {prev.get('pr')} -> {report['pr']})")
        failed = failed or bool(regressions)

    return 1 if failed else 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    raise SystemExit(main())
