"""Lease statements of one standalone campaign drain.

A fabric worker coordinates through the store's ``leases`` table: it
claims a window of digests, renews the window's rest before each commit
slice and releases each slice after committing it.  Each of those is
one transaction holding the store's write lock, so its length is paid
on the critical path by every other worker.  This benchmark drains the
``mixed`` perfbench spec at root seed 1 (1 280 points) through one
standalone worker (:func:`repro.campaign.run_campaign_worker`, which
holds real leases), traces every SQL statement on its connection and
asserts the lease protocol's per-call bound:

* one ``UPDATE`` on ``leases`` per ``renew`` call;
* one ``DELETE`` on ``leases`` per ``release`` call;
* two reads (``results`` and ``leases``) per claim of up to
  :data:`~repro.campaign.store._IN_CHUNK` candidates.

A per-digest loop issued 5 760 ``UPDATE``s, 1 280 ``DELETE``s and
1 280 claim reads here.  The counts are deterministic (one worker, one
spec, a fixed claim window) and ``run_all.py`` gates them with ``<=``.

Run standalone (asserts the bound)::

    PYTHONPATH=src python benchmarks/bench_lease.py

or under pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_lease.py \
        -o python_files='bench_*.py' -o python_functions='bench_*'
"""

from __future__ import annotations

import dataclasses
import math
import tempfile
from pathlib import Path
from typing import Any

from repro.campaign import (
    CampaignSpec,
    LeaseManager,
    ResultStore,
    run_campaign_worker,
)
from repro.campaign.store import _IN_CHUNK

try:  # pytest package context vs standalone `python benchmarks/...`
    from .conftest import report
except ImportError:  # pragma: no cover - standalone fallback
    from conftest import report

SPEC = Path(__file__).resolve().parents[1] / "perfbench" / "specs" / "mixed.json"
SEED = 1


def run_comparison() -> dict:
    """Drain the spec through one worker; count each lease call's
    statements by kind."""
    spec = dataclasses.replace(CampaignSpec.from_file(SPEC), root_seed=SEED)
    originals = {name: getattr(LeaseManager, name)
                 for name in ("claim", "renew", "release")}
    statements: list[str] = []
    calls: list[tuple[str, int, list[str]]] = []

    def counting(name: str) -> Any:
        method = originals[name]

        def counted(self: LeaseManager, digests: Any, *args: Any,
                    **kwargs: Any) -> Any:
            first = len(statements)
            try:
                return method(self, digests, *args, **kwargs)
            finally:
                calls.append((name, len(digests), statements[first:]))
        return counted

    try:
        for name in originals:
            setattr(LeaseManager, name, counting(name))
        with tempfile.TemporaryDirectory() as tmp:
            with ResultStore(Path(tmp) / "store.sqlite") as store:
                store.connection.set_trace_callback(
                    lambda sql: statements.append(" ".join(sql.split())))
                stored = run_campaign_worker(spec, store, "bench")
                store.connection.set_trace_callback(None)
    finally:
        for name, method in originals.items():
            setattr(LeaseManager, name, method)

    def issued(name: str, verb: str) -> int:
        return sum(1 for call, _, sql in calls if call == name
                   for s in sql if s.startswith(verb))

    def n_calls(name: str) -> int:
        return sum(1 for call, _, _ in calls if call == name)

    return {
        "points": spec.n_points,
        "stored": stored,
        "claim_calls": n_calls("claim"),
        "claim_chunks": sum(math.ceil(n / _IN_CHUNK)
                            for call, n, _ in calls if call == "claim"),
        "renew_calls": n_calls("renew"),
        "release_calls": n_calls("release"),
        "renew_updates": issued("renew", "UPDATE"),
        "release_deletes": issued("release", "DELETE"),
        "claim_probes": issued("claim", "SELECT"),
        "lease_statements": sum(
            1 for _, _, sql in calls for s in sql
            if not s.startswith(("BEGIN", "COMMIT", "ROLLBACK"))),
    }


def _check(stats: dict) -> None:
    assert stats["stored"] == stats["points"], (
        f"stored {stats['stored']} of {stats['points']} points")
    assert stats["renew_updates"] <= stats["renew_calls"], (
        f"{stats['renew_updates']} lease UPDATEs for "
        f"{stats['renew_calls']} renew calls")
    assert stats["release_deletes"] <= stats["release_calls"], (
        f"{stats['release_deletes']} lease DELETEs for "
        f"{stats['release_calls']} release calls")
    assert stats["claim_probes"] <= 2 * stats["claim_chunks"], (
        f"{stats['claim_probes']} claim reads for "
        f"{stats['claim_chunks']} candidate chunks")


def bench_lease_statements(benchmark):
    stats = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    _check(stats)
    report(benchmark, "Lease statements of a standalone drain",
           [("UPDATEs", "1 per renew",
             f"{stats['renew_updates']} / {stats['renew_calls']}"),
            ("DELETEs", "1 per release",
             f"{stats['release_deletes']} / {stats['release_calls']}"),
            ("claim reads", "2 per chunk",
             f"{stats['claim_probes']} / {stats['claim_chunks']}")])


def main() -> int:
    stats = run_comparison()
    for key, value in stats.items():
        print(f"{key:18s} {value}")
    _check(stats)
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
