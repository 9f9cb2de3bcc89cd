"""The set-based lease protocol and the fabric's read-only wait.

:class:`~repro.campaign.lease.LeaseManager` claims, renews and releases
whole slices of digests per SQL statement.  These tests pin that it
still does exactly what a per-digest loop over the same table did
(return values, lease rows and ``lease.*`` counters), that its
statement count stays flat in the number of digests, and that a drain
waiting on other workers' leases only reads, wakes at the first poll
after the holder lands its window, and still takes stranded digests
over once their lease expires.
"""

from __future__ import annotations

import dataclasses
import math
import random
import re
from pathlib import Path
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import (
    CampaignSpec,
    LeaseManager,
    ResultStore,
    executor,
    export_campaign_json,
    run_campaign,
    run_campaign_worker,
)
from repro.campaign.store import _IN_CHUNK

from .conftest import collecting

WORKERS = ("a", "b")
TTL = 10.0

#: A digest's starting state: whether it is stored, and its lease row
#: as ``(worker, expires)`` relative to a clock at ``NOW``.
NOW = 100.0
LEASE_STATES = (None, ("a", NOW + 5.0), ("a", NOW - 5.0), ("a", NOW),
                ("b", NOW + 5.0), ("b", NOW - 5.0))


class _Reference:
    """The protocol one digest at a time, over plain dicts: the model
    the set-based statements must reproduce."""

    def __init__(self, stored: set[str],
                 leases: dict[str, tuple[str, float, float]]) -> None:
        self.stored = stored
        self.leases = leases
        self.counters: dict[str, int] = {}

    def _count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def claim(self, worker: str, digests: list[str], limit: int | None,
              now: float) -> list[str]:
        claimed: list[str] = []
        budget = len(digests) if limit is None else limit
        for digest in digests:
            if len(claimed) >= budget:
                break
            if digest in self.stored:
                continue
            row = self.leases.get(digest)
            if row is not None and row[1] > now:
                continue
            self.leases[digest] = (worker, now + TTL, now)
            claimed.append(digest)
            if row is not None:
                self._count("lease.stale_takeovers", 1)
        self._count("lease.claim_batches", 1)
        self._count("lease.claims", len(claimed))
        return claimed

    def renew(self, worker: str, digests: list[str], now: float) -> int:
        renewed = 0
        for digest in digests:
            row = self.leases.get(digest)
            if row is not None and row[0] == worker and row[1] > now:
                self.leases[digest] = (worker, now + TTL, row[2])
                renewed += 1
        self._count("lease.renews", renewed)
        return renewed

    def release(self, worker: str, digests: list[str]) -> int:
        released = 0
        for digest in digests:
            row = self.leases.get(digest)
            if row is not None and row[0] == worker:
                del self.leases[digest]
                released += 1
        self._count("lease.releases", released)
        return released


def _digest(i: int) -> str:
    return f"{i:064x}"


@st.composite
def lease_scenarios(draw):
    """A starting table and a sequence of operations on it.

    Most tables are small and drawn state by state.  Some hold more
    digests than one :data:`_IN_CHUNK` statement takes, with states and
    candidate orders from a drawn seed, so calls cross a chunk boundary.
    """
    if draw(st.booleans()):
        n = draw(st.integers(1, 12))
        states = draw(st.lists(
            st.tuples(st.booleans(), st.sampled_from(LEASE_STATES)),
            min_size=n, max_size=n))
        candidates = st.lists(st.integers(0, n - 1), max_size=12)
    else:
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        n = _IN_CHUNK + draw(st.integers(1, 8))
        states = [(rng.random() < 0.3, rng.choice(LEASE_STATES))
                  for _ in range(n)]
        # every digest once, shuffled, plus a few repeats
        candidates = st.lists(st.integers(0, n - 1), max_size=6).map(
            lambda extra: rng.sample(range(n), n) + extra)
    ops = draw(st.lists(st.tuples(
        st.sampled_from(("claim", "renew", "release")),
        st.sampled_from(WORKERS),
        candidates,
        st.none() | st.integers(0, n + 2),
        st.sampled_from((0.0, 3.0, 7.0, 20.0)),
    ), min_size=1, max_size=4))
    return states, ops


def _table(store: ResultStore) -> dict[str, tuple[str, float, float]]:
    return {str(d): (str(w), float(e), float(a)) for d, w, e, a in
            store.connection.execute(
                "SELECT digest, worker, expires, acquired FROM leases")}


class TestSetBasedProtocol:
    @settings(max_examples=60, deadline=None)
    @given(lease_scenarios())
    def test_matches_the_per_digest_reference(self, scenario):
        states, ops = scenario
        clock = [NOW]
        with ResultStore(":memory:") as store:
            conn = store.connection
            stored = set()
            for i, (is_stored, row) in enumerate(states):
                if is_stored:
                    store.put_text(_digest(i), "{}", commit=False)
                    stored.add(_digest(i))
                if row is not None:
                    conn.execute("INSERT INTO leases VALUES (?, ?, ?, ?)",
                                 (_digest(i), row[0], row[1], 0.0))
            store.commit()
            ref = _Reference(stored, _table(store))
            managers = {w: LeaseManager(store, w, ttl=TTL,
                                        clock=lambda: clock[0])
                        for w in WORKERS}
            with collecting() as tel:
                for op, worker, picks, limit, dt in ops:
                    clock[0] = NOW + dt
                    digests = [_digest(i) for i in picks]
                    mgr = managers[worker]
                    if op == "claim":
                        got = mgr.claim(digests, limit=limit)
                        want = ref.claim(worker, digests, limit, clock[0])
                    elif op == "renew":
                        got = mgr.renew(digests)
                        want = ref.renew(worker, digests, clock[0])
                    else:
                        got = mgr.release(digests)
                        want = ref.release(worker, digests)
                    assert got == want, op
                    assert _table(store) == ref.leases, op
                counters = {k: v for k, v in tel.counter_snapshot().items()
                            if k.startswith("lease.")}
            assert counters == ref.counters

    def test_one_claim_across_a_chunk_boundary(self):
        """A claim of more candidates than one statement takes claims
        them all, each once, in order, with two reads per chunk."""
        n = 2 * _IN_CHUNK + 3
        digests = [_digest(i) for i in range(n)]
        with ResultStore(":memory:") as store:
            for d in digests[1::7]:
                store.put_text(d, "{}", commit=False)
            store.commit()
            mgr = LeaseManager(store, "a", ttl=TTL, clock=lambda: NOW)
            statements = _statements(store)
            got = mgr.claim(digests + digests[:3])
            reads = [s for s in statements if s.startswith("SELECT")]
            assert got == [d for i, d in enumerate(digests) if i % 7 != 1]
            assert len(reads) == 2 * math.ceil((n + 3) / _IN_CHUNK)
            assert mgr.renew(got) == len(got)
            assert mgr.release(got) == len(got)
            writes = [s for s in statements
                      if s.startswith(("UPDATE", "DELETE"))]
            assert len(writes) == 2 * math.ceil(len(got) / _IN_CHUNK)


def _statements(store: ResultStore) -> list[str]:
    """Every SQL statement ``store``'s connection runs from now on,
    whitespace-normalized (the list grows as they run)."""
    seen: list[str] = []
    store.connection.set_trace_callback(
        lambda sql: seen.append(" ".join(sql.split())))
    return seen


# ----------------------------------------------------------------------
# the wait at the end of a drain
# ----------------------------------------------------------------------
SPEC_DICT = {
    "name": "lease-tail",
    "draws": 3,
    "models": ["overlap", "strict"],
    "applications": [
        {"synthetic": {"n_stages": 3, "shape": "balanced", "scale": 8.0}},
    ],
    "platforms": [{"n_procs": 8}],
    "replications": [
        {"policy": "balls"},
        {"fixed": [1, 2, 3], "assignment": "blocks"},
    ],
    "max_paths": 200,
}

_WRITES = ("BEGIN IMMEDIATE", "INSERT", "UPDATE", "DELETE", "COMMIT")


@pytest.fixture(scope="module")
def spec() -> CampaignSpec:
    return CampaignSpec.from_dict(SPEC_DICT)


@pytest.fixture(scope="module")
def texts(spec, tmp_path_factory) -> dict[str, str]:
    """Every point's stored payload text, from an uninterrupted run."""
    with ResultStore(tmp_path_factory.mktemp("ref") / "r.sqlite") as ref:
        run_campaign(spec, ref)
        return dict(ref.items_text())


class _Tail:
    """A drain that finds every pending digest leased by ``holder``.

    ``pause`` is patched: it records each requested sleep, moves the
    waiter's clock by ``step`` and calls ``on_pause(k)`` on the ``k``-th
    sleep (from 1), so a test decides what the holder does meanwhile.
    Statements the holder issues there are not the waiter's and are
    left out of :attr:`statements`.
    """

    def __init__(self, spec, store, monkeypatch, step: float = 0.0) -> None:
        self.spec = spec
        self.store = store
        self.now = [0.0]
        self.step = step
        self.sleeps: list[float] = []
        self.on_pause = lambda k: None
        _, _, self.work = executor._local_work(spec, store)
        self.digests = [d for d, _ in self.work]
        self.holder = LeaseManager(store, "holder", ttl=60.0,
                                   clock=lambda: 0.0)
        assert self.holder.claim(self.digests) == self.digests
        self.waiter = LeaseManager(store, "waiter", ttl=60.0,
                                   clock=lambda: self.now[0])
        self.statements: list[str] = []
        self._quiet = False
        store.connection.set_trace_callback(self._trace)
        monkeypatch.setattr(executor, "pause", self._pause)

    def _trace(self, sql: str) -> None:
        if not self._quiet:
            self.statements.append(" ".join(sql.split()))

    def _pause(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        assert len(self.sleeps) <= 50, "the drain never woke up"
        self.statements.append("<pause>")
        self.now[0] += self.step
        self._quiet = True
        try:
            self.on_pause(len(self.sleeps))
        finally:
            self._quiet = False

    def drain(self) -> int:
        return executor._drain(
            self.store, self.work, self.waiter,
            max_rows=self.spec.max_paths + 1,
            objectives=self.spec.objectives, claim_batch=None,
            commit_every=4, peers=2)

    def waited(self) -> list[str]:
        """The waiter's statements from its first sleep on."""
        return self.statements[self.statements.index("<pause>"):]


class TestTail:
    def test_waiting_only_reads_and_wakes_when_the_window_lands(
            self, spec, texts, tmp_path, monkeypatch):
        with ResultStore(tmp_path / "s.sqlite") as store:
            tail = _Tail(spec, store, monkeypatch)

            def holder_lands(k: int) -> None:
                if k == 5:
                    for d in tail.digests:
                        store.put_text(d, texts[d], commit=False)
                    store.commit()
                    tail.holder.release(tail.digests)

            tail.on_pause = holder_lands
            with collecting() as tel:
                assert tail.drain() == 0
            assert tail.sleeps == [0.001, 0.002, 0.004, 0.008, 0.016]
            waited = tail.waited()
            assert not [s for s in waited if s.startswith(_WRITES)]
            # one poll (two reads) per sleep, then the drain is done
            assert len(waited) == 5 * 3
            assert "fabric.stale_reclaimed" not in tel.counter_snapshot()
            assert all(d in store for d in tail.digests)

    def test_a_lease_released_unstored_is_taken_at_the_next_poll(
            self, spec, texts, tmp_path, monkeypatch):
        with ResultStore(tmp_path / "s.sqlite") as store:
            tail = _Tail(spec, store, monkeypatch)
            first, rest = tail.digests[0], tail.digests[1:]

            def holder_drops_one(k: int) -> None:
                if k == 2:  # gives up its first digest unstored
                    tail.holder.release([first])
                elif k == 3:  # lands the rest
                    for d in rest:
                        store.put_text(d, texts[d], commit=False)
                    store.commit()
                    tail.holder.release(rest)

            tail.on_pause = holder_drops_one
            assert tail.drain() == 1
            # the second poll finds the free digest; the next pass
            # claims and stores it, then waits for the rest afresh
            assert tail.sleeps == [0.001, 0.002, 0.001]
            assert store.payload_text(first) == texts[first]
            assert all(d in store for d in rest)

    def test_expired_leases_are_swept_and_taken_over(
            self, spec, texts, tmp_path, monkeypatch):
        # the waiter's clock moves 8 s per sleep: the 60 s leases
        # expire at the 8th poll, after the sleeps reach their cap
        with ResultStore(tmp_path / "s.sqlite") as store:
            tail = _Tail(spec, store, monkeypatch, step=8.0)
            with collecting() as tel:
                assert tail.drain() == len(tail.digests)
            assert tail.sleeps == [0.001, 0.002, 0.004, 0.008, 0.016,
                                   0.032, 0.05, 0.05]
            waited = tail.waited()
            writes = [i for i, s in enumerate(waited)
                      if s.startswith(_WRITES)]
            assert waited[writes[0]].startswith("DELETE FROM leases")
            assert writes[0] == 8 * 3  # after the eighth poll's reads
            counters = tel.counter_snapshot()
            assert counters["fabric.stale_reclaimed"] == len(tail.digests)
            assert counters["lease.claims"] == len(tail.digests)
            assert {d: store.payload_text(d) for d in tail.digests} \
                == {d: texts[d] for d in tail.digests}


# ----------------------------------------------------------------------
# statement counts of a whole drain
# ----------------------------------------------------------------------
_PERF_SPECS = Path(__file__).resolve().parents[1] / "perfbench" / "specs"


class TestStatementCounts:
    def test_standalone_drain_costs_one_statement_per_call(
            self, tmp_path, monkeypatch):
        """Seed-1 ``mixed`` through one standalone worker: one
        ``UPDATE`` per renew call, one ``DELETE`` per release call and
        two reads per claim chunk (a per-digest loop issued 5 760,
        1 280 and 1 280)."""
        spec = dataclasses.replace(
            CampaignSpec.from_file(_PERF_SPECS / "mixed.json"), root_seed=1)
        calls: dict[str, list[int]] = {"claim": [], "renew": [],
                                       "release": []}
        for name, sizes in calls.items():
            method = getattr(LeaseManager, name)

            def counted(self, digests, *args: Any, _m=method, _s=sizes,
                        **kwargs: Any):
                _s.append(len(digests))
                return _m(self, digests, *args, **kwargs)

            monkeypatch.setattr(LeaseManager, name, counted)
        with ResultStore(tmp_path / "s.sqlite") as store:
            statements = _statements(store)
            assert run_campaign_worker(spec, store, "w") == spec.n_points
        on_leases = [s for s in statements if " leases " in f"{s} "]
        updates = [s for s in on_leases if s.startswith("UPDATE")]
        deletes = [s for s in on_leases if s.startswith("DELETE")]
        probes = [s for s in statements if s.startswith("SELECT")
                  and "digest IN" in s and " FOR " not in s]
        claim_probes = [s for s in probes if "FROM leases" in s]
        assert len(calls["renew"]) == len(updates) == 40
        assert len(calls["release"]) == len(deletes) == 40
        chunks = sum(math.ceil(n / _IN_CHUNK) for n in calls["claim"])
        assert len(claim_probes) == chunks == 5
        assert len([s for s in probes if "FROM results" in s]) \
            >= len(claim_probes)


# ----------------------------------------------------------------------
# padded IN lists
# ----------------------------------------------------------------------
#: The ``IN (...)`` widths a padded list may take.
_WIDTHS = {1 << k for k in range(_IN_CHUNK.bit_length())
           if 1 << k < _IN_CHUNK} | {_IN_CHUNK}
_IN_LIST = re.compile(r"IN \(([^()]*)\)")


class _Unpadded(ResultStore):
    """The store with each ``IN`` list bound at its own width (no
    padding): the reference the padded statements must reproduce."""

    def _in(self, sql, digests, *params):
        unique = list(dict.fromkeys(digests))
        return self.connection.execute(
            sql.format(",".join("?" * len(unique))), (*params, *unique))


def _in_widths(statements: list[str]) -> dict[str, set[int]]:
    """SQL shape (literals and ``IN`` list masked) → the ``IN`` widths
    its traced (value-expanded) statements bound."""
    widths: dict[str, set[int]] = {}
    for sql in statements:
        found = _IN_LIST.search(sql)
        if found is None:
            continue
        shape = re.sub(r"'[^']*'|\b\d+(\.\d+)?\b", "?",
                       _IN_LIST.sub("IN (...)", sql))
        widths.setdefault(shape, set()).add(found.group(1).count(",") + 1)
    return widths


def _seeded(store: ResultStore, n: int) -> None:
    """``n`` digests: every third stored, lease rows live and expired,
    this worker's and another's."""
    rng = random.Random(n)
    for i in range(n):
        if i % 3 == 0:
            store.put_text(_digest(i), f'{{"i": {i}}}', commit=False)
        row = rng.choice(LEASE_STATES)
        if row is not None:
            store.connection.execute("INSERT INTO leases VALUES (?, ?, ?, ?)",
                                     (_digest(i), row[0], row[1], 0.0))
    store.commit()


class TestPaddedInLists:
    SIZES = sorted({n for k in range(11) for n in (2**k - 1, 2**k, 2**k + 1)
                    if n >= 1} | {499, 500, 501, 999, 1000, 1001, 1200})

    @pytest.mark.parametrize("n", SIZES)
    def test_same_answers_as_unpadded_lists(self, n):
        """``_stored``, ``_payload_texts``, ``renew`` and ``release`` on
        ``n`` digests (with repeats and unknown ones) return what the
        unpadded statements return and leave the same lease table."""
        rng = random.Random(-n)
        digests = [_digest(i) for i in rng.sample(range(n + 5), n)]
        digests += rng.choices(digests, k=3)
        with ResultStore(":memory:") as padded, \
                _Unpadded(":memory:") as plain:
            statements = _statements(padded)
            for store in (padded, plain):
                _seeded(store, n)
            assert padded._stored(digests) == plain._stored(digests)
            assert list(padded._payload_texts(digests)) == \
                list(plain._payload_texts(digests))
            mine = [LeaseManager(store, "a", ttl=TTL, clock=lambda: NOW)
                    for store in (padded, plain)]
            assert mine[0].renew(digests) == mine[1].renew(digests)
            assert _table(padded) == _table(plain)
            assert mine[0].release(digests) == mine[1].release(digests)
            assert _table(padded) == _table(plain)
            widths = set().union(*_in_widths(statements).values())
        assert widths and widths <= _WIDTHS

    def test_mixed_drain_prepares_few_in_texts(self, tmp_path):
        """A seeded ``mixed`` worker drain, resume and export bind every
        ``IN`` list at a power-of-two width (or the chunk size), so each
        statement shape has at most 10 texts in a connection's
        prepared-statement cache; unpadded lists took the width of each
        slice (224, 280 ...)."""
        spec = dataclasses.replace(
            CampaignSpec.from_file(_PERF_SPECS / "mixed.json"), root_seed=1)
        with ResultStore(tmp_path / "s.sqlite") as store:
            statements = _statements(store)
            assert run_campaign_worker(spec, store, "w") == spec.n_points
            assert run_campaign(spec, store).evaluated == 0
            export_campaign_json(spec, store)
        widths = _in_widths(statements)
        assert len(widths) >= 5
        for shape, seen in widths.items():
            assert seen <= _WIDTHS, shape
            assert len(seen) <= 10, shape
