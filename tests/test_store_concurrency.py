"""Multi-process stress tests for the WAL store and the claim protocol.

The fabric's first acceptance contract: N independent OS processes
hammering one shared store file lose no writes, never double-claim a
digest, and leave the store byte-identical to a serial run — the worker
count is invisible in every artifact.
"""

from __future__ import annotations

import multiprocessing as mp

import pytest

from repro.campaign import (
    CampaignSpec,
    ResultStore,
    export_campaign_json,
    export_campaign_report,
    run_campaign,
    run_campaign_worker,
)

SPEC_DICT = {
    "name": "fabric-test",
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

#: Distinct digests the raw-writer stress hammers (shared keyspace, so
#: every digest is written by several processes concurrently).
_STRESS_KEYSPACE = 40


@pytest.fixture()
def spec():
    return CampaignSpec.from_dict(SPEC_DICT)


def _stress_payload(index: int) -> dict:
    """The (unique, valid) payload of stress digest ``index``.

    A pure function of the digest, mirroring the content-addressing
    contract: racing writers of one digest write identical bytes.
    """
    return {
        "schema": 1, "model": "overlap", "method": "stress",
        "period": float(index + 1), "mct": float(index + 1),
        "critical": True, "gap": 0.0, "m": 1, "n_stages": 1,
        "n_procs": 1, "replication": [1],
    }


def _stress_writer(store_path: str, worker: int, rounds: int) -> None:
    """Write the whole keyspace, interleaving commit batching styles."""
    with ResultStore(store_path) as store:
        for r in range(rounds):
            for i in range(_STRESS_KEYSPACE):
                # Rotate the starting point per worker so writers collide
                # on different digests at any given moment.
                idx = (i + worker * 7) % _STRESS_KEYSPACE
                store.put(f"stress-{idx:04d}", _stress_payload(idx),
                          commit=(idx % 3 == 0))
            store.commit()


def _claimer(store_path: str, worker: int, digests: list[str]) -> None:
    """Claim everything claimable, logging each claim into claim_log."""
    from repro.campaign import LeaseManager

    with ResultStore(store_path) as store:
        lease = LeaseManager(store, f"claimer-{worker}", ttl=3600.0)
        while True:
            claimed = lease.claim(digests, limit=3)
            if not claimed:
                return
            for digest in claimed:
                store.connection.execute(
                    "INSERT INTO claim_log (digest, worker) VALUES (?, ?)",
                    (digest, worker),
                )
            store.commit()


class TestConcurrentWriters:
    def test_no_lost_or_duplicated_writes(self, tmp_path):
        """8 processes × 3 rounds over one 40-digest keyspace: the store
        ends with exactly the keyspace, every payload byte-exact."""
        path = str(tmp_path / "stress.sqlite")
        ResultStore(path).close()  # create before the race
        procs = [
            mp.Process(target=_stress_writer, args=(path, w, 3))
            for w in range(8)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join()
        assert all(p.exitcode == 0 for p in procs)

        from repro.utils import canonical_json

        with ResultStore(path) as store:
            assert len(store) == _STRESS_KEYSPACE
            expected = {
                f"stress-{i:04d}": canonical_json(_stress_payload(i))
                for i in range(_STRESS_KEYSPACE)
            }
            assert dict(store.items_text()) == expected

    def test_no_digest_claimed_twice(self, tmp_path):
        """4 racing claimers partition 30 digests exactly once each."""
        path = str(tmp_path / "claims.sqlite")
        digests = [f"claim-{i:04d}" for i in range(30)]
        with ResultStore(path) as store:
            store.connection.execute(
                "CREATE TABLE claim_log (digest TEXT, worker INTEGER)"
            )
            store.commit()
        procs = [
            mp.Process(target=_claimer, args=(path, w, digests))
            for w in range(4)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join()
        assert all(p.exitcode == 0 for p in procs)
        with ResultStore(path) as store:
            log = store.connection.execute(
                "SELECT digest, COUNT(*) FROM claim_log GROUP BY digest"
            ).fetchall()
        assert sorted(d for d, _ in log) == digests
        assert all(count == 1 for _, count in log)  # never double-claimed


class TestFabricByteIdentity:
    def test_exports_independent_of_worker_count(self, spec, tmp_path):
        """One lease worker, three worker processes and the serial
        executor all produce the same bytes — the acceptance criterion
        of the fabric."""
        serial_path = tmp_path / "serial.sqlite"
        with ResultStore(serial_path) as store:
            run_campaign(spec, store)
            ref_json = export_campaign_json(spec, store)
            ref_report = export_campaign_report(spec, store)

        with ResultStore(tmp_path / "solo.sqlite") as store:
            assert run_campaign_worker(spec, store, "solo") == spec.n_points
            assert export_campaign_json(spec, store) == ref_json
            assert export_campaign_report(spec, store) == ref_report
        with ResultStore(tmp_path / "fabric3.sqlite") as store:
            rep = run_campaign(spec, store, n_jobs=3)
            assert rep.complete and not rep.crashed
            assert rep.evaluated == rep.total
            assert export_campaign_json(spec, store) == ref_json
            assert export_campaign_report(spec, store) == ref_report

    def test_fabric_resumes_over_partial_store(self, spec, tmp_path):
        """A fabric drain over a half-finished serial store reuses every
        stored point and computes only the rest."""
        path = tmp_path / "partial.sqlite"
        with ResultStore(path) as store:
            first = run_campaign(spec, store, max_points=5)
            assert not first.complete
            rep = run_campaign(spec, store, n_jobs=2)
        assert rep.complete
        assert rep.hits == 5
        assert rep.evaluated == rep.total - 5

    def test_leases_drained_after_clean_run(self, spec, tmp_path):
        """A clean fabric run leaves no lease rows behind."""
        with ResultStore(tmp_path / "clean.sqlite") as store:
            rep = run_campaign(spec, store, n_jobs=2)
            assert rep.complete
            rows = store.connection.execute(
                "SELECT COUNT(*) FROM leases"
            ).fetchone()[0]
        assert rows == 0
