"""Property tests for store push/pull/merge (repro.campaign.sync).

Hypothesis-driven pins of the sync algebra: merge is idempotent and
(on conflict-free inputs) commutative, push-then-pull converges, and
invalid or conflicting payloads are detected, quarantined at the
destination, and reported — never silently merged into ``results``.
"""

from __future__ import annotations

import multiprocessing as mp
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import (
    DirectoryRemote,
    ResultStore,
    merge_stores,
    open_remote,
    payload_error,
    pull,
    push,
)
from repro.errors import SyncConflictError, ValidationError
from repro.faults import FAULTS, FaultPlan
from repro.telemetry import TELEMETRY
from repro.utils import canonical_json


def _payload_text(period: float) -> str:
    """A valid stored payload whose bytes are a function of ``period``."""
    return canonical_json({
        "schema": 1, "model": "overlap", "method": "sync-test",
        "period": period, "mct": period, "critical": True, "gap": 0.0,
        "m": 1, "n_stages": 1, "n_procs": 1, "replication": [1],
    })


def _fill(store: ResultStore, rows: dict[str, float]) -> None:
    for digest, period in rows.items():
        store.put_text(digest, _payload_text(period))


_digests = st.text(alphabet="0123456789abcdef", min_size=6, max_size=6)
_periods = st.floats(min_value=0.5, max_value=100.0, allow_nan=False,
                     allow_infinity=False)


@st.composite
def two_overlapping_stores(draw):
    """Two digest->period maps drawn from one shared pool.

    Shared digests carry identical payloads (the conflict-free regime —
    exactly what honest partial campaigns of one spec produce, since
    evaluation is deterministic).
    """
    pool = draw(st.dictionaries(_digests, _periods, max_size=8))
    keys = sorted(pool)
    subset = st.sets(st.sampled_from(keys), max_size=len(keys)) if keys \
        else st.just(set())
    a = {k: pool[k] for k in draw(subset)}
    b = {k: pool[k] for k in draw(subset)}
    return a, b


class TestMergeAlgebra:
    @settings(max_examples=30, deadline=None)
    @given(two_overlapping_stores())
    def test_merge_idempotent(self, stores):
        a_rows, b_rows = stores
        with ResultStore(":memory:") as a, ResultStore(":memory:") as b:
            _fill(a, a_rows)
            _fill(b, b_rows)
            first = merge_stores(b, a)
            after_once = dict(b.items_text())
            second = merge_stores(b, a)
            assert first.clean and second.clean
            assert second.merged == 0
            assert second.skipped == second.examined == len(a_rows)
            assert dict(b.items_text()) == after_once

    @settings(max_examples=30, deadline=None)
    @given(two_overlapping_stores())
    def test_merge_commutative_without_conflicts(self, stores):
        a_rows, b_rows = stores
        with ResultStore(":memory:") as ab_a, ResultStore(":memory:") as ab_b:
            _fill(ab_a, a_rows)
            _fill(ab_b, b_rows)
            merge_stores(ab_b, ab_a)          # A -> B
            forward = dict(ab_b.items_text())
        with ResultStore(":memory:") as ba_a, ResultStore(":memory:") as ba_b:
            _fill(ba_a, a_rows)
            _fill(ba_b, b_rows)
            merge_stores(ba_a, ba_b)          # B -> A
            backward = dict(ba_a.items_text())
        union = {d: _payload_text(p)
                 for d, p in {**a_rows, **b_rows}.items()}
        assert forward == backward == union

    @settings(max_examples=30, deadline=None)
    @given(two_overlapping_stores())
    def test_push_then_pull_converges(self, stores):
        a_rows, b_rows = stores
        with tempfile.TemporaryDirectory() as tmp, \
                ResultStore(":memory:") as a, ResultStore(":memory:") as b:
            remote = str(Path(tmp) / "remote") + "/"
            _fill(a, a_rows)
            _fill(b, b_rows)
            assert push(a, remote).clean
            assert push(b, remote).clean
            assert pull(a, remote).clean
            assert pull(b, remote).clean
            union = {d: _payload_text(p)
                     for d, p in {**a_rows, **b_rows}.items()}
            assert dict(a.items_text()) == union
            assert dict(b.items_text()) == union
            assert dict(open_remote(remote).items_text()) == union


class TestCorruptionAndConflicts:
    @settings(max_examples=25, deadline=None)
    @given(st.dictionaries(_digests, _periods, min_size=1, max_size=6),
           st.sampled_from(["{not json", '{"schema": 999}', '["a list"]',
                            '{"schema": 1}']))
    def test_invalid_payloads_quarantined_not_merged(self, rows, bad_text):
        assert payload_error(bad_text) is not None  # strategy sanity
        bad_digest = "bad" + "0" * 3
        with ResultStore(":memory:") as src, ResultStore(":memory:") as dst:
            _fill(src, rows)
            src.put_text(bad_digest, bad_text)
            report = merge_stores(dst, src)
            assert not report.clean
            assert [d for d, _ in report.quarantined] == [bad_digest]
            assert report.merged == len(rows)
            # Never in results; parked in quarantine with its reason.
            assert bad_digest not in dst
            (digest, origin, text, reason), = dst.quarantined()
            assert (digest, text) == (bad_digest, bad_text)
            assert reason == payload_error(bad_text)

    def test_conflict_keeps_destination_and_quarantines_incoming(self):
        with ResultStore(":memory:") as src, ResultStore(":memory:") as dst:
            src.put_text("d1", _payload_text(1.0))
            dst.put_text("d1", _payload_text(2.0))  # different valid bytes
            report = merge_stores(dst, src)
            assert report.conflicts == ["d1"]
            assert not report.clean
            assert dst.payload_text("d1") == _payload_text(2.0)  # kept
            (digest, _, text, reason), = dst.quarantined()
            assert (digest, text) == ("d1", _payload_text(1.0))
            assert "conflict" in reason

    def test_strict_mode_raises_on_conflict(self):
        with ResultStore(":memory:") as src, ResultStore(":memory:") as dst:
            src.put_text("d1", _payload_text(1.0))
            dst.put_text("d1", _payload_text(2.0))
            with pytest.raises(SyncConflictError):
                merge_stores(dst, src, strict=True)
            # The report's forensics happened before the raise.
            assert dst.quarantined()

    def test_invalid_destination_copy_is_repaired(self):
        with ResultStore(":memory:") as src, ResultStore(":memory:") as dst:
            src.put_text("d1", _payload_text(1.0))
            dst.put_text("d1", "{broken")
            report = merge_stores(dst, src)
            assert report.repaired == 1 and not report.conflicts
            assert dst.payload_text("d1") == _payload_text(1.0)
            (digest, _, text, _), = dst.quarantined()  # old copy kept aside
            assert (digest, text) == ("d1", "{broken")

    def test_directory_remote_quarantines_invalid_push(self):
        with tempfile.TemporaryDirectory() as tmp, \
                ResultStore(":memory:") as src:
            src.put_text("good01", _payload_text(1.0))
            src.put_text("bad001", "{nope")
            remote_path = str(Path(tmp) / "remote") + "/"
            report = push(src, remote_path)
            assert report.merged == 1
            assert [d for d, _ in report.quarantined] == ["bad001"]
            remote = DirectoryRemote(Path(tmp) / "remote")
            assert dict(remote.items_text()) == {"good01": _payload_text(1.0)}
            (digest, _, text, _), = remote.quarantined()
            assert (digest, text) == ("bad001", "{nope")


def _big_payload(i: int) -> str:
    """A ~128 KB payload text unique to ``i`` (the writer race needs
    writes long enough to overlap)."""
    return f"{i:08d}" * 16384


def _collision_writer(root: str, barrier, n: int) -> None:
    barrier.wait()
    remote = DirectoryRemote(root)
    failures = 0
    for i in range(n):
        try:
            remote.put_text(f"c{i:05d}", _big_payload(i))
        except OSError:
            failures += 1
    raise SystemExit(min(failures, 100))


class TestConcurrentObjectWriters:
    def test_two_writers_of_the_same_digests_never_collide(self, tmp_path):
        """Two processes racing to put the same 256 objects both finish
        without an OSError: each renames its own temp file into place."""
        n = 256
        root = str(tmp_path / "remote")
        barrier = mp.Barrier(2)
        procs = [mp.Process(target=_collision_writer, args=(root, barrier, n))
                 for _ in range(2)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join()
        assert [proc.exitcode for proc in procs] == [0, 0]  # = OSErrors seen
        assert dict(DirectoryRemote(root).items_text()) == {
            f"c{i:05d}": _big_payload(i) for i in range(n)
        }
        assert not sorted(Path(root).rglob("*.tmp"))


class TestRetriedMerge:
    def test_a_retried_push_counts_each_row_once(self, tmp_path):
        """A push cut short at its fourth row and retried lands every
        row once: one report and one set of counters for the call, and
        no row the first pass landed comes back as skipped."""
        store = ResultStore(":memory:")
        _fill(store, {f"r{i}": float(i + 1) for i in range(5)})
        TELEMETRY.enable("sync-retry")
        FAULTS.arm(FaultPlan.single("sync.merge-row", "operational", at=4))
        try:
            report = push(store, str(tmp_path / "remote") + "/")
            counters = TELEMETRY.counter_snapshot()
        finally:
            FAULTS.disarm()
            TELEMETRY.disable()
        assert (report.examined, report.merged, report.skipped) == (5, 5, 0)
        assert report.clean
        assert counters["sync.merged"] == 5
        assert counters["sync.skipped"] == 0
        assert counters["retry.attempts"] == 1
        assert dict(DirectoryRemote(tmp_path / "remote").items_text()) == \
            dict(store.items_text())


class TestFileBackedSourceQuarantine:
    """An origin label is the source store's *path*: quarantine entries
    into a directory remote must not build file names from it."""

    def test_invalid_row_is_quarantined(self, tmp_path):
        with ResultStore(tmp_path / "src.sqlite") as src:
            src.put_text("good01", _payload_text(1.0))
            src.put_text("bad001", "{nope")
            report = push(src, str(tmp_path / "remote") + "/")
        assert report.merged == 1
        assert [d for d, _ in report.quarantined] == ["bad001"]
        (digest, origin, text, reason), = DirectoryRemote(
            tmp_path / "remote").quarantined()
        assert (digest, origin, text) == (
            "bad001", str(tmp_path / "src.sqlite"), "{nope")
        assert reason == payload_error("{nope")

    def test_conflict_is_quarantined(self, tmp_path):
        remote = DirectoryRemote(tmp_path / "remote")
        remote.put_text("d1", _payload_text(2.0))
        with ResultStore(tmp_path / "src.sqlite") as src:
            src.put_text("d1", _payload_text(1.0))
            report = push(src, str(tmp_path / "remote") + "/")
        assert report.conflicts == ["d1"]
        assert remote.get_text("d1") == _payload_text(2.0)
        (digest, origin, text, reason), = remote.quarantined()
        assert (digest, origin, text) == (
            "d1", str(tmp_path / "src.sqlite"), _payload_text(1.0))
        assert "conflict" in reason

    def test_invalid_remote_copy_is_repaired(self, tmp_path):
        remote = DirectoryRemote(tmp_path / "remote")
        remote.put_text("d1", "{broken")
        with ResultStore(tmp_path / "src.sqlite") as src:
            src.put_text("d1", _payload_text(1.0))
            report = push(src, str(tmp_path / "remote") + "/")
        assert report.repaired == 1 and report.clean
        assert remote.get_text("d1") == _payload_text(1.0)
        (digest, origin, text, _), = remote.quarantined()
        assert (digest, origin, text) == ("d1", str(tmp_path / "remote"),
                                          "{broken")

    def test_quarantined_rows_sort_by_digest_then_origin(self, tmp_path):
        remote = DirectoryRemote(tmp_path / "remote")
        for digest, origin in [("b", "/x/a"), ("a", "/y"), ("b", "/x")]:
            remote.quarantine(digest, origin, "{", "r")
        assert [row[:2] for row in remote.quarantined()] == [
            ("a", "/y"), ("b", "/x"), ("b", "/x/a")]


class TestMalformedDigests:
    ESCAPING = "aa/../../../../../outside/escaped"

    def test_push_quarantines_a_digest_that_is_not_a_file_name(
            self, tmp_path):
        with ResultStore(":memory:") as src:
            src.put_text("good01", _payload_text(1.0))
            src.put_text(self.ESCAPING, _payload_text(2.0))
            report = push(src, str(tmp_path / "sub" / "remote") + "/")
        assert report.merged == 1
        assert [d for d, _ in report.quarantined] == [self.ESCAPING]
        assert "file-name token" in report.quarantined[0][1]
        assert not (tmp_path / "outside").exists()
        remote = DirectoryRemote(tmp_path / "sub" / "remote")
        assert dict(remote.items_text()) == {"good01": _payload_text(1.0)}
        (digest, _, text, _), = remote.quarantined()
        assert (digest, text) == (self.ESCAPING, _payload_text(2.0))

    @pytest.mark.parametrize("digest", ["", ".", "..", "a/b", "a.b", "a b"])
    def test_object_tree_builds_no_path_from_it(self, tmp_path, digest):
        from repro.faults import SpillJournal

        with pytest.raises(ValidationError):
            DirectoryRemote(tmp_path / "remote").put_text(digest, "{}")
        with pytest.raises(ValidationError):
            SpillJournal(tmp_path / "journal").spill(digest, "{}")
        assert not sorted(tmp_path.iterdir())

    def test_store_to_store_merge_is_unchanged(self):
        with ResultStore(":memory:") as src, ResultStore(":memory:") as dst:
            src.put_text(self.ESCAPING, _payload_text(1.0))
            report = merge_stores(dst, src)
            assert report.merged == 1 and report.clean
            assert dst.payload_text(self.ESCAPING) == _payload_text(1.0)

    @pytest.mark.parametrize("digest", ["d1", "good01", "done-row",
                                        "a_b", "0" * 64])
    def test_repo_digests_stay_valid(self, tmp_path, digest):
        remote = DirectoryRemote(tmp_path / "remote")
        assert remote.put_text(digest, "{}")
        assert remote.get_text(digest) == "{}"


class TestOpenRemote:
    def test_nonexistent_ambiguous_target_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            open_remote(tmp_path / "neither-dir-nor-store")

    def test_suffix_creates_store_trailing_slash_creates_directory(
            self, tmp_path):
        assert not isinstance(open_remote(tmp_path / "new.sqlite"),
                              DirectoryRemote)
        assert isinstance(open_remote(str(tmp_path / "objects") + "/"),
                          DirectoryRemote)
