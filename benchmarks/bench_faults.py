"""Fault plane & degradation ladder: chaos completes exactly, disarmed is free.

PR 9's acceptance contract, in two halves:

* **Disarmed is free** — with the fault plane disarmed, a traced
  campaign drain adds **zero** fault-plane telemetry entries
  (``faults.*``, ``retry.*``, ``journal.*``, ``fabric.spilled*``) and
  every PR-8 byte-identity contract holds unchanged: the export of an
  instrumented fabric run equals the undisturbed serial export.
* **Chaos completes exactly** — a 3-worker campaign under a seeded
  chaos schedule (a SIGKILL at a protocol barrier + store commits
  failing past the retry budget + a lease-clock jump), followed by
  ``heal`` of the spill journal and clean resumes, finishes with zero
  lost and zero duplicated results and a **byte-identical export**
  versus an undisturbed serial run.  The forced spill→heal path is
  additionally pinned on its own: a worker whose every commit fails
  spills the whole campaign to its journal, heal replays it exactly,
  and a second heal merges nothing (idempotent).

Retry schedules are themselves a deterministic contract: the delay
sequence for an operation key is a pure function of ``(key, policy)``.

Run standalone (asserts everything)::

    PYTHONPATH=src python benchmarks/bench_faults.py

The chaos-soak CI job runs the same schedules as a matrix::

    PYTHONPATH=src python benchmarks/bench_faults.py \
        --soak --schedules 3 --offset 0 --artifacts chaos-artifacts/

On a soak failure the per-schedule artifacts directory (worker traces +
the spill journal + the replayable fault plans as JSON) is left in
place for CI to upload.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import sys
import tempfile
import zlib
from pathlib import Path

from repro.campaign import (
    CampaignSpec,
    ResultStore,
    export_campaign_json,
    run_campaign,
)
from repro.faults import FAULTS, FaultEvent, FaultPlan, RetryPolicy, heal, pause
from repro.telemetry import TELEMETRY, merge_traces, trace_files
from repro.utils import canonical_json

try:  # pytest package context vs standalone `python benchmarks/...`
    from .conftest import report
except ImportError:  # pragma: no cover - standalone fallback
    from conftest import report

#: Counter prefixes the fault plane and degradation ladder own: none of
#: these may appear in a trace of a fault-disabled run.
FAULT_COUNTER_PREFIXES = ("faults.", "retry.", "journal.", "fabric.spilled")

#: Same multi-group shape as bench_telemetry: 2 models x 2 applications
#: x 2 replication policies x 2 draws = 12 distinct digests.
SPEC = {
    "name": "faults-bench",
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

#: Lease TTL for chaos runs (short: dead workers' claims free quickly).
_TTL = 0.4

_KILL_SITES = (
    "worker.after-claim",
    "worker.pre-release",
    "worker.after-release",
)


def chaos_plans(schedule: int) -> dict[int, FaultPlan]:
    """The seeded 3-worker chaos schedule for one soak index.

    Worker 0 is SIGKILLed at a protocol barrier, worker 1's store
    commits keep failing past the retry budget (forcing the spill
    path whenever it wins a claim), and worker 2's clock jumps past
    the TTL mid-run (exercising the renewal-loss guard and the
    stale-lease watchdog).  crc32-seeded: schedule N is the same
    schedule forever, replayable from its JSON form.
    """
    rng = random.Random(zlib.crc32(f"chaos-soak-{schedule}".encode()))
    return {
        0: FaultPlan.single(rng.choice(_KILL_SITES), "sigkill", at=1),
        1: FaultPlan(
            events=(FaultEvent("store.commit", "operational", at=1, repeat=50),)
        ),
        2: FaultPlan.single(
            "lease.clock", "clock-jump", at=rng.randint(2, 5), param=30.0
        ),
    }


def _reference(tmp: Path) -> tuple[set[str], str]:
    """The undisturbed serial run every chaos run must reproduce."""
    spec = CampaignSpec.from_dict(SPEC)
    with ResultStore(tmp / "reference.sqlite") as store:
        run_campaign(spec, store)
        return set(store.digests()), export_campaign_json(spec, store)


def _drain(spec, path, max_resumes: int = 8) -> None:
    """Clean resumes until complete (waiting out crashed workers' TTLs)."""
    for _ in range(max_resumes):
        pause(_TTL)
        with ResultStore(path) as store:
            if run_campaign(spec, store, n_jobs=2, lease_ttl=_TTL).complete:
                return


def run_chaos_schedule(schedule: int, workdir: Path,
                       ref: tuple[set[str], str]) -> dict:
    """One seeded 3-worker chaos run + heal + resume; verdict flags."""
    spec = CampaignSpec.from_dict(SPEC)
    plans = chaos_plans(schedule)
    store_path = workdir / "chaos.sqlite"
    journal = workdir / "journal"
    (workdir / "plans.json").write_text(canonical_json(
        {str(w): plan.to_dict() for w, plan in plans.items()}, indent=2,
    ) + "\n")

    with ResultStore(store_path) as store:
        first = run_campaign(
            spec, store, n_jobs=3, lease_ttl=_TTL,
            claim_batch=4, commit_every=4,
            fault_plans=plans, spill_dir=journal,
            trace_dir=workdir / "traces",
        )
        healed = heal(store, journal)
    _drain(spec, store_path)

    ref_digests, ref_export = ref
    with ResultStore(store_path) as store:
        digests = set(store.digests())
        stats = {
            "schedule": schedule,
            "crashed_workers": list(first.crashed),
            "healed_from_journal": healed.merged,
            "heal_clean": healed.clean,
            "zero_lost": digests == ref_digests,
            "zero_duplicated": len(store) == len(ref_digests),
            "chaos_identical":
                export_campaign_json(spec, store) == ref_export,
        }
    return stats


def _forced_spill_heal(tmp: Path, ref: tuple[set[str], str]) -> dict:
    """Every commit fails: the whole campaign spills, then heals exactly."""
    spec = CampaignSpec.from_dict(SPEC)
    store_path = tmp / "sick.sqlite"
    journal = tmp / "sick-journal"
    sick = FaultPlan(
        events=(FaultEvent("store.commit", "operational", at=1, repeat=200),)
    )
    ref_digests, ref_export = ref
    with ResultStore(store_path) as store:
        run_campaign(spec, store, fault_plans={0: sick}, spill_dir=journal)
        spilled_everything = len(store) == 0
        first = heal(store, journal)
        second = heal(store, journal)
        return {
            "spilled_everything": spilled_everything,
            "heal_merged": first.merged,
            "spill_heal_identical": (
                first.clean
                and first.merged == len(ref_digests)
                and export_campaign_json(spec, store) == ref_export
            ),
            "heal_idempotent": second.clean and second.merged == 0,
        }


def _disabled_noop(tmp: Path, ref: tuple[set[str], str]) -> dict:
    """Disarmed plane: no fault-plane counters, PR-8 contracts intact."""
    spec = CampaignSpec.from_dict(SPEC)
    with ResultStore(tmp / "dark.sqlite") as store:
        run_campaign(spec, store, n_jobs=2, trace_dir=tmp / "dark-traces")
        export = export_campaign_json(spec, store)
    merged = merge_traces(trace_files(tmp / "dark-traces"))
    leaked = sorted(
        name for name in merged["counters"]
        if name.startswith(FAULT_COUNTER_PREFIXES)
    )
    # The parent-side plane must still be disarmed, and the singleton
    # collector empty (faults count only through enabled telemetry).
    return {
        "disabled_noop": not leaked and not FAULTS.enabled,
        "leaked_counters": leaked,
        "exports_identical": export == ref[1],
    }


def run_comparison() -> dict:
    TELEMETRY.disable()
    FAULTS.disarm()
    policy = RetryPolicy(attempts=5, base_delay=0.05, max_delay=0.4,
                         budget=2.0, jitter_seed=9)
    retry_deterministic = (
        policy.delays("store.commit:x") == policy.delays("store.commit:x")
        and policy.delays("store.commit:x") != policy.delays("lease.begin:y")
    )
    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = Path(tmpdir)
        ref = _reference(tmp)
        noop = _disabled_noop(tmp, ref)
        spill = _forced_spill_heal(tmp, ref)
        chaos_dir = tmp / "chaos-0"
        chaos_dir.mkdir()
        chaos = run_chaos_schedule(0, chaos_dir, ref)
    return {
        "n_points": len(ref[0]),
        "retry_deterministic": retry_deterministic,
        **noop,
        **spill,
        **chaos,
    }


def _check(stats: dict) -> None:
    assert stats["disabled_noop"], (
        f"fault-disabled run leaked counters: {stats['leaked_counters']}"
    )
    assert stats["exports_identical"], \
        "fault-disabled fabric export drifted from the serial reference"
    assert stats["retry_deterministic"], \
        "retry delay schedules are not a pure function of the key"
    assert stats["spilled_everything"], \
        "a store with failing commits still accepted rows"
    assert stats["spill_heal_identical"], \
        "spill -> heal did not reproduce the reference store exactly"
    assert stats["heal_idempotent"], "a second heal was not a no-op"
    assert stats["zero_lost"], "chaos run lost results"
    assert stats["zero_duplicated"], "chaos run duplicated results"
    assert stats["chaos_identical"], \
        "chaos-run export is not byte-identical to the serial reference"


def bench_faults_chaos(benchmark):
    stats = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    _check(stats)
    report(benchmark, "Fault plane (disarmed no-op / spill+heal / chaos)",
           [("disarmed adds no counters", "yes", stats["disabled_noop"]),
            ("retry schedules deterministic", "yes",
             stats["retry_deterministic"]),
            ("spill -> heal exact", "yes", stats["spill_heal_identical"]),
            ("heal idempotent", "yes", stats["heal_idempotent"]),
            ("chaos zero lost / duplicated", "yes",
             stats["zero_lost"] and stats["zero_duplicated"]),
            ("chaos export byte-identical", "yes",
             stats["chaos_identical"])])


def _soak(schedules: int, offset: int, artifacts: str | None) -> int:
    """The chaos-soak CI entry: N seeded schedules, artifacts on failure."""
    failures = 0
    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = Path(tmpdir)
        ref = _reference(tmp)
        for schedule in range(offset, offset + schedules):
            workdir = tmp / f"schedule-{schedule}"
            workdir.mkdir()
            try:
                stats = run_chaos_schedule(schedule, workdir, ref)
                ok = (stats["zero_lost"] and stats["zero_duplicated"]
                      and stats["chaos_identical"] and stats["heal_clean"])
            except Exception as exc:  # noqa: BLE001 - recorded per schedule
                stats = {"schedule": schedule, "error": repr(exc)}
                ok = False
            status = "ok" if ok else "FAIL"
            print(f"schedule {schedule:3d}: {status}  "
                  f"{json.dumps(stats, sort_keys=True)}")
            if not ok:
                failures += 1
                if artifacts is not None:
                    dest = Path(artifacts) / f"schedule-{schedule}"
                    dest.parent.mkdir(parents=True, exist_ok=True)
                    shutil.copytree(workdir, dest, dirs_exist_ok=True)
                    print(f"  artifacts -> {dest}")
    if failures:
        print(f"chaos soak FAILED: {failures}/{schedules} schedule(s)")
        return 1
    print(f"chaos soak OK: {schedules} schedule(s), zero lost, "
          "zero duplicated, exports byte-identical")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--soak", action="store_true",
                        help="run seeded chaos schedules (the CI soak job)")
    parser.add_argument("--schedules", type=int, default=3,
                        help="number of soak schedules (default %(default)s)")
    parser.add_argument("--offset", type=int, default=0,
                        help="first schedule index (CI matrix sharding)")
    parser.add_argument("--artifacts", default=None,
                        help="directory for failing schedules' traces, "
                             "spill journals and fault plans")
    args = parser.parse_args(argv)
    if args.soak:
        return _soak(args.schedules, args.offset, args.artifacts)

    stats = run_comparison()
    print(f"campaign: {stats['n_points']} points")
    print(f"disarmed plane adds no counters  : {stats['disabled_noop']}")
    print(f"disabled exports byte-identical  : {stats['exports_identical']}")
    print(f"retry schedules deterministic    : "
          f"{stats['retry_deterministic']}")
    print(f"forced spill journaled everything: "
          f"{stats['spilled_everything']} "
          f"({stats['heal_merged']} healed)")
    print(f"spill -> heal exact              : "
          f"{stats['spill_heal_identical']}")
    print(f"heal idempotent                  : {stats['heal_idempotent']}")
    print(f"chaos crashed workers            : {stats['crashed_workers']}")
    print(f"chaos zero lost / duplicated     : "
          f"{stats['zero_lost']} / {stats['zero_duplicated']}")
    print(f"chaos export byte-identical      : {stats['chaos_identical']}")
    _check(stats)
    print("all fault-plane contracts hold")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    raise SystemExit(main())
