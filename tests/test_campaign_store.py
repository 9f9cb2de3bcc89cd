"""Tests for the content-addressed result store.

Round-trips, digest stability/sensitivity, record reconstruction
equality, and corruption recovery.
"""

from __future__ import annotations

import json
import math
import random
import sqlite3

import pytest

from repro.campaign import (
    RESULT_SCHEMA_VERSION,
    CampaignSpec,
    ResultStore,
    campaign_status,
    export_campaign_json,
    instance_digest,
    payload_from_result,
    record_from_payload,
    run_campaign,
)
from repro.core.instance import Instance
from repro.core.mapping import Mapping
from repro.core.throughput import compute_period
from repro.errors import StoreCorruptionError, StoreLeaseError
from repro.experiments import TABLE2_CONFIGS, run_family, run_table2
from repro.experiments.examples_paper import example_a
from repro.experiments.runner import _draw_instance, family_seeds

from .conftest import collecting


class TestDigest:
    def test_stable_across_calls(self):
        assert instance_digest(example_a(), "overlap") == \
               instance_digest(example_a(), "overlap")

    def test_sensitive_to_model_and_schema(self):
        inst = example_a()
        d = instance_digest(inst, "overlap")
        assert d != instance_digest(inst, "strict")
        assert d != instance_digest(inst, "overlap", schema=2)

    def test_sensitive_to_instance_content(self):
        inst = example_a()
        other = Instance(
            inst.application, inst.platform,
            Mapping([tuple(reversed(s)) if len(s) > 1 else s
                     for s in inst.mapping.assignments]),
        )
        assert instance_digest(inst, "overlap") != \
               instance_digest(other, "overlap")

    def test_known_format(self):
        digest = instance_digest(example_a(), "overlap")
        assert len(digest) == 64
        assert int(digest, 16) >= 0


class TestRoundTrip:
    def test_put_get(self, tmp_path):
        path = tmp_path / "s.sqlite"
        inst = example_a()
        result = compute_period(inst, "overlap")
        payload = payload_from_result(inst, result)
        digest = instance_digest(inst, "overlap")
        with ResultStore(path) as store:
            assert store.get(digest) is None
            assert store.put(digest, payload)
            assert digest in store
            assert len(store) == 1
        # floats survive the file round trip bit-exactly
        with ResultStore(path) as store:
            loaded = store.get(digest)
            assert loaded == payload
            assert loaded["period"] == result.period

    def test_put_never_overwrites(self):
        store = ResultStore(":memory:")
        assert store.put("d", {"schema": 1, "period": 1.0})
        assert not store.put("d", {"schema": 1, "period": 2.0})
        assert store.get("d")["period"] == 1.0

    def test_stats_counters(self):
        store = ResultStore(":memory:")
        with collecting() as tel:
            assert store.get("missing") is None
            store.put("d", {"schema": 1})
            store.put("d", {"schema": 1})  # already present: not counted
            assert store.get("d") == {"schema": 1}
        assert tel.counters["store.puts"] == 1

    def test_items_sorted_by_digest(self):
        store = ResultStore(":memory:")
        store.put("bb", {"schema": 1})
        store.put("aa", {"schema": 1})
        assert [d for d, _ in store.items()] == ["aa", "bb"]


class TestBatchedReads:
    """``_stored``, ``_payload_texts`` and ``_payloads`` answer like
    per-digest ``in``, ``payload_text`` and ``get``, one query per slice
    of digests."""

    @pytest.fixture
    def store(self):
        store = ResultStore(":memory:")
        for i in range(0, 3000, 2):
            store.put(f"d{i:05d}", {"schema": 1, "i": i}, commit=False)
        store.commit()
        return store

    @staticmethod
    def _probe() -> list[str]:
        # 2 500 digests: stored, unstored, and repeats of both
        rng = random.Random(7)
        digests = [f"d{i:05d}" for i in range(2000)]
        digests += rng.choices(digests, k=400) + [f"x{i}" for i in range(100)]
        rng.shuffle(digests)
        assert len(digests) == 2500
        return digests

    def test_stored_equals_membership(self, store):
        digests = self._probe()
        stored = store._stored(digests)
        assert [d in stored for d in digests] == [d in store for d in digests]
        assert any(d in stored for d in digests)
        assert not all(d in stored for d in digests)
        assert store._stored(iter(digests)) == stored
        assert store._stored([]) == set()

    def test_payload_texts_equal_get(self, store):
        digests = self._probe()
        texts = list(store._payload_texts(digests))
        assert [None if t is None else json.loads(t) for t in texts] == \
            [store.get(d) for d in digests]
        assert texts == [store.payload_text(d) for d in digests]
        assert list(store._payload_texts([])) == []
        # the parsed reader: one json.loads per slice, same payloads
        assert list(store._payloads(digests)) == \
            [store.get(d) for d in digests]
        assert list(store._payloads([])) == []

    def test_payloads_raise_on_a_malformed_text(self, store):
        # two objects in one text would shift every later payload of
        # the slice's joined parse by one
        store.put_text("bad", '{"schema": 1}, {"schema": 1}')
        with pytest.raises(ValueError):
            list(store._payloads(["d00000", "bad", "d00002"]))

    def test_finished_campaign_reads_one_query_per_slice(self, tmp_path):
        spec = CampaignSpec.from_dict({
            "name": "batched-reads", "draws": 600, "models": ["overlap"],
            "applications": [{"synthetic": {"n_stages": 3}}],
            "platforms": [{"n_procs": 8}],
            "replications": [{"fixed": [1, 2, 1], "assignment": "blocks"}],
        })
        store = ResultStore(tmp_path / "s.sqlite")
        assert run_campaign(spec, store).evaluated == 600
        selects: list[str] = []
        store.connection.set_trace_callback(
            lambda sql: selects.append(sql)
            if sql.startswith("SELECT") and " FROM results " in sql else None)
        bound = math.ceil(600 / 500) + 4
        resumed = run_campaign(spec, store)
        assert (resumed.evaluated, resumed.hits) == (0, 600)
        assert len(selects) <= bound
        for step in (lambda: campaign_status(spec, store),
                     lambda: export_campaign_json(spec, store)):
            selects.clear()
            step()
            assert 0 < len(selects) <= bound
        store.close()


class TestRecordReconstruction:
    def test_records_identical_with_and_without_store(self, tmp_path):
        config = TABLE2_CONFIGS[4]
        plain = run_family(config, "strict", count=6, n_jobs=1)
        with ResultStore(tmp_path / "s.sqlite") as store:
            with collecting() as tel:
                first = run_family(config, "strict", count=6, n_jobs=1,
                                   store=store)
            assert tel.counters["store.puts"] == 6
            with collecting() as tel:
                again = run_family(config, "strict", count=6, n_jobs=1,
                                   store=store)
            # All hits the second time: nothing evaluated, nothing put.
            assert "store.puts" not in tel.counters
            assert "engine.points" not in tel.counters
        assert first == plain
        assert again == plain
        serial = dict(ResultStore(tmp_path / "s.sqlite").items_text())
        # Forked lease workers: the same records and payload bytes, and
        # a complete rerun evaluates nothing in any process.
        with ResultStore(tmp_path / "jobs.sqlite") as store:
            with collecting() as tel:
                jobs = run_family(config, "strict", count=6, n_jobs=2,
                                  store=store)
            assert [s.name for s in tel.spans].count("worker") == 2
            with collecting() as tel:
                again = run_family(config, "strict", count=6, n_jobs=2,
                                   store=store)
            assert "engine.points" not in tel.counters
            assert "worker" not in [s.name for s in tel.spans]
            assert dict(store.items_text()) == serial
        assert jobs == plain
        assert again == plain

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_table2_identical_with_and_without_store(self, tmp_path, n_jobs):
        plain = run_table2(scale=0.01, n_jobs=n_jobs)
        with ResultStore(tmp_path / "s.sqlite") as store:
            assert run_table2(scale=0.01, n_jobs=n_jobs, store=store) == plain
            assert len(store) == sum(row.total for row in plain)
            assert run_table2(scale=0.01, n_jobs=n_jobs, store=store) == plain

    def test_payload_to_record_fields(self):
        config = TABLE2_CONFIGS[4]
        seed = family_seeds(config, "strict", 1)[0]
        inst = _draw_instance(config, seed, 3000)
        result = compute_period(inst, "strict", max_rows=3001)
        payload = payload_from_result(inst, result)
        record = record_from_payload(config.name, "strict", seed, payload)
        assert record.period == result.period
        assert record.mct == result.mct
        assert record.replication == inst.replication_counts
        assert record.seed == seed


class TestCorruptionRecovery:
    def test_garbage_file_raises(self, tmp_path):
        path = tmp_path / "bad.sqlite"
        path.write_bytes(b"this is not a database at all")
        with pytest.raises(StoreCorruptionError):
            ResultStore(path)

    def test_recover_from_garbage_starts_empty(self, tmp_path):
        path = tmp_path / "bad.sqlite"
        path.write_bytes(b"garbage" * 100)
        store, salvaged = ResultStore.recover(path)
        assert salvaged == 0
        assert len(store) == 0
        assert (tmp_path / "bad.sqlite.corrupt").exists()
        store.put("d", {"schema": 1})
        store.close()
        # the fresh file is a healthy store
        assert len(ResultStore(path)) == 1

    def test_recover_salvages_valid_rows(self, tmp_path):
        path = tmp_path / "s.sqlite"
        inst = example_a()
        payload = payload_from_result(inst, compute_period(inst, "overlap"))
        digest = instance_digest(inst, "overlap")
        store = ResultStore(path)
        store.put(digest, payload)
        store.close()
        # inject rows recovery must drop: broken JSON and a stale schema
        conn = sqlite3.connect(path)
        conn.execute("INSERT INTO results VALUES ('bad', '{not json')")
        conn.execute(
            "INSERT INTO results VALUES ('old', ?)",
            (f'{{"schema": {RESULT_SCHEMA_VERSION + 1}}}',),
        )
        conn.commit()
        conn.close()
        recovered, salvaged = ResultStore.recover(path)
        assert salvaged == 1
        assert recovered.get(digest) == payload
        assert "bad" not in recovered
        assert "old" not in recovered
        recovered.close()

    def test_truncated_file_detected_or_recovered(self, tmp_path):
        path = tmp_path / "s.sqlite"
        store = ResultStore(path)
        for i in range(50):
            store.put(f"digest-{i:03}", {"schema": 1, "i": i})
        store.close()
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        try:
            ResultStore(path)
            detected = False
        except StoreCorruptionError:
            detected = True
        assert detected
        recovered, salvaged = ResultStore.recover(path)
        assert 0 <= salvaged <= 50
        recovered.put("fresh", {"schema": 1})
        assert "fresh" in recovered
        recovered.close()


class TestLeaseAwareRecovery:
    """Regression: recover() must not clobber an active worker's rows.

    A worker holding live leases is (as far as the file can tell) about
    to commit results; replacing the file underneath it would lose them.
    Recovery therefore refuses while unexpired leases exist, and works
    again once they expire — or immediately under ``force=True``.
    """

    def _store_with_lease(self, path, *, at: float, ttl: float = 30.0):
        from repro.campaign import LeaseManager

        store = ResultStore(path)
        store.put("done-row", {"schema": 1, "model": "overlap",
                               "method": "x", "period": 1.0, "mct": 1.0,
                               "critical": True, "gap": 0.0, "m": 1,
                               "n_stages": 1, "n_procs": 1,
                               "replication": [1]})
        mgr = LeaseManager(store, "live-worker", ttl=ttl, clock=lambda: at)
        assert mgr.claim(["pending-row"]) == ["pending-row"]
        store.close()

    def test_recover_refuses_while_leases_are_active(self, tmp_path):
        path = tmp_path / "s.sqlite"
        self._store_with_lease(path, at=0.0)
        with pytest.raises(StoreLeaseError, match="live-worker"):
            ResultStore.recover(path, clock=lambda: 10.0)
        # Refusal is non-destructive: the file is intact and untouched.
        assert not (tmp_path / "s.sqlite.corrupt").exists()
        with ResultStore(path) as store:
            assert "done-row" in store

    def test_recover_proceeds_once_leases_expire(self, tmp_path):
        path = tmp_path / "s.sqlite"
        self._store_with_lease(path, at=0.0, ttl=30.0)
        recovered, salvaged = ResultStore.recover(path, clock=lambda: 60.0)
        assert salvaged == 1
        assert "done-row" in recovered
        recovered.close()

    def test_force_overrides_active_leases(self, tmp_path):
        path = tmp_path / "s.sqlite"
        self._store_with_lease(path, at=0.0)
        recovered, salvaged = ResultStore.recover(
            path, force=True, clock=lambda: 10.0)
        assert salvaged == 1
        recovered.close()
