"""Spill-journal → heal properties: idempotent, commutative, convergent.

Hypothesis property tests over the degradation ladder's bottom rung.
The journal is the sync layer's directory-remote object tree and heal
is a plain `sync.pull` of it, so these pin the merge algebra as
seen through the journal: healing twice changes nothing, heal commutes
with concurrent direct commits (content addressing leaves nothing
order-dependent), an interrupted heal converges on retry, and a spill
entry torn by the very fault that forced the spill is quarantined
instead of merged.  All runs are derandomized — the examples are part
of the repo's deterministic test surface.
"""

from __future__ import annotations

import hashlib
import sqlite3
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaign import ResultStore
from repro.faults import FAULTS, FaultPlan, RetryPolicy, SpillJournal, heal
from repro.telemetry import TELEMETRY
from repro.utils import canonical_json

_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(autouse=True)
def _clean_planes():
    FAULTS.disarm()
    TELEMETRY.disable()
    yield
    FAULTS.disarm()
    TELEMETRY.disable()


def _payload(i: int) -> tuple[str, str]:
    """A (digest, canonical payload text) pair that passes validation."""
    text = canonical_json({
        "schema": 1,
        "model": "overlap",
        "method": "binary-search",
        "period": float(i) + 0.5,
        "mct": float(i),
        "critical": 0.25,
        "gap": 0.0,
        "m": 3,
        "n_stages": 3,
        "n_procs": 8,
        "replication": [1, 1, 1],
    })
    return hashlib.sha256(text.encode("utf-8")).hexdigest(), text


#: Non-empty sets of distinct payload indices (small: each index costs a
#: store round-trip per heal pass).
_INDICES = st.sets(st.integers(min_value=0, max_value=40), min_size=1,
                   max_size=8)


class TestHealProperties:
    @_SETTINGS
    @given(indices=_INDICES)
    def test_heal_is_idempotent(self, indices):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            journal = SpillJournal(tmp / "journal")
            for i in sorted(indices):
                digest, text = _payload(i)
                assert journal.spill(digest, text)
                assert not journal.spill(digest, text)  # first spill wins
            assert len(journal) == len(indices)

            with ResultStore(tmp / "s.sqlite") as store:
                first = heal(store, journal.root)
                assert first.clean
                assert first.merged == len(indices)
                after_first = list(store.items_text())

                second = heal(store, journal.root)
                assert second.clean
                assert second.merged == 0
                assert second.skipped == len(indices)
                assert list(store.items_text()) == after_first

    @_SETTINGS
    @given(spilled=_INDICES, direct=_INDICES)
    def test_heal_commutes_with_concurrent_direct_commits(self, spilled,
                                                          direct):
        """heal-then-commit and commit-then-heal reach the same store,
        even when the spilled and directly-committed sets overlap."""
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            journal = SpillJournal(tmp / "journal")
            for i in sorted(spilled):
                journal.spill(*_payload(i))

            def commit_direct(store):
                for i in sorted(direct):
                    digest, text = _payload(i)
                    store.put_text(digest, text)

            with ResultStore(tmp / "a.sqlite") as store:
                heal(store, journal.root)
                commit_direct(store)
                heal_first = list(store.items_text())
            with ResultStore(tmp / "b.sqlite") as store:
                commit_direct(store)
                report = heal(store, journal.root)
                assert report.clean  # overlaps skip, never conflict
                commit_first = list(store.items_text())

            assert heal_first == commit_first
            assert len(heal_first) == len(spilled | direct)

    @_SETTINGS
    @given(indices=st.sets(st.integers(min_value=0, max_value=40),
                           min_size=2, max_size=8))
    def test_interrupted_heal_converges_on_retry(self, indices):
        """A heal killed mid-merge (injected store fault after the first
        row lands) leaves a partial store; re-running heal replays the
        remainder and converges on the full set."""
        fast = RetryPolicy(attempts=2, base_delay=0.001, max_delay=0.002,
                           budget=0.01)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            journal = SpillJournal(tmp / "journal")
            for i in sorted(indices):
                journal.spill(*_payload(i))

            with ResultStore(tmp / "s.sqlite") as store:
                # The 2nd put of the heal dies, and keeps dying through
                # the retry budget — the heal itself fails part-way.
                FAULTS.arm(FaultPlan.single("store.put", "operational",
                                            at=2, repeat=100))
                from repro.campaign.sync import pull

                with pytest.raises(sqlite3.OperationalError,
                                   match="injected"):
                    pull(store, f"{journal.root}/", retry=fast)
                assert 0 < len(store) < len(indices)

                FAULTS.disarm()
                report = heal(store, journal.root)
                assert report.clean
                assert report.merged + report.skipped == len(indices)
                assert set(store.digests()) == set(journal.digests())

    @_SETTINGS
    @given(indices=_INDICES, torn=st.integers(min_value=0, max_value=7))
    def test_torn_spill_entry_is_quarantined_not_merged(self, indices,
                                                        torn):
        """A spill torn mid-write (injected truncation) heals into the
        quarantine, never into the results table."""
        ordered = sorted(indices)
        torn_index = ordered[torn % len(ordered)]
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            journal = SpillJournal(tmp / "journal")
            for i in ordered:
                digest, text = _payload(i)
                if i == torn_index:
                    FAULTS.arm(FaultPlan.single("journal.spill-write",
                                                "truncate"))
                    journal.spill(digest, text)
                    FAULTS.disarm()
                else:
                    journal.spill(digest, text)

            torn_digest, _ = _payload(torn_index)
            with ResultStore(tmp / "s.sqlite") as store:
                report = heal(store, journal.root)
                assert not report.clean
                assert report.merged == len(ordered) - 1
                assert [d for d, _ in report.quarantined] == [torn_digest]
                assert torn_digest not in set(store.digests())
                # The torn bytes are parked with a reason, not dropped.
                rows = store.quarantined()
                assert any(row[0] == torn_digest for row in rows)


class TestJournalCounters:
    def test_spill_and_heal_are_counted(self, tmp_path):
        """Spills have their own counter; a heal is counted as the pull
        it is, by the sync counters."""
        TELEMETRY.enable("t")
        journal = SpillJournal(tmp_path / "journal")
        for i in range(3):
            journal.spill(*_payload(i))
        assert TELEMETRY.counter_snapshot()["journal.spills"] == 3
        with ResultStore(tmp_path / "s.sqlite") as store:
            TELEMETRY.enable("t")
            heal(store, journal.root)
            assert TELEMETRY.counter_snapshot()["sync.merged"] == 3
            TELEMETRY.enable("t")
            heal(store, journal.root)
            assert TELEMETRY.counter_snapshot()["sync.skipped"] == 3

    def test_heal_of_missing_journal_is_a_clean_noop(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            report = heal(store, tmp_path / "never-spilled")
            assert report.clean
            assert report.examined == 0
