"""Claim/lease protocol: N workers drain one campaign without duplicates.

Content addressing (:mod:`repro.campaign.store`) already makes
concurrent duplicate evaluations *harmless* — two workers computing the
same digest store identical bytes and ``INSERT OR IGNORE`` picks either.
This module makes duplicates *rare by design*: before evaluating, a
worker **claims** the digests it is about to compute by writing rows
into the store's ``leases`` table inside one ``BEGIN IMMEDIATE``
transaction.  Other workers see the claim and move on to unclaimed
work, so at any moment each pending digest is being evaluated by at
most one live worker.

Leases expire.  A claim carries ``expires = now + ttl``; a healthy
worker renews (heartbeats) its leases long before that, while a worker
that was SIGKILLed mid-claim simply stops renewing and its leases go
**stale**.  Stale leases are reclaimed by the next claim that wants
them — the claim transaction takes over any lease whose expiry has
passed — so a crashed worker delays its claimed points by at most one
TTL, never loses them.

Lease state machine (per digest)::

                   claim()                    put(result) + release()
    UNCLAIMED ──────────────▶ CLAIMED(w, t) ────────────────────────▶ DONE
        ▲                        │    ▲
        │       ttl elapses      │    │ renew() before expiry
        │   (worker crashed or   │    │ (heartbeat: t ← now + ttl)
        │        stalled)        ▼    │
        └─────────────────── STALE ───┘
             reclaimed by any worker's next claim()

``DONE`` is absorbing: claims always skip digests already present in
``results``, and a completed digest's lease row is deleted.  The
protocol never *blocks* correctness: every transition is crash-safe
(single SQLite transactions), and even a protocol violation would only
produce a duplicate evaluation that content addressing absorbs.

Every operation is set-based, so its cost in SQL statements does not
grow with the digests it touches, up to :data:`~.store._IN_CHUNK` of
them: a claim reads ``results`` and ``leases`` once per chunk of
candidates and writes its claims in one ``executemany``; a renewal or
a release is one ``... WHERE worker = ? AND digest IN (...)``
statement per chunk.  Each holds the store's write lock only that
long.  A worker that finds nothing to claim waits without it: its
polls (:meth:`LeaseManager._poll`) only read.

All timestamps come from an injectable ``clock`` so tests can freeze
or fast-forward time; production uses wall-clock seconds because lease
expiry must be comparable **across processes and hosts** sharing one
store file.  Lease state never influences stored values or exports —
it is pure coordination — so wall-clock here cannot leak into any
byte-determinism contract.
"""

from __future__ import annotations

import sqlite3
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from ..faults import FAULTS, RetryPolicy
from ..telemetry import TELEMETRY
from .store import ResultStore, _chunks

__all__ = ["Lease", "LeaseManager", "DEFAULT_LEASE_TTL", "DEFAULT_TXN_RETRY"]

#: Default lease lifetime (seconds).  Generous relative to one claim
#: batch's evaluation time; small enough that a crashed worker's points
#: are reclaimed promptly.
DEFAULT_LEASE_TTL = 30.0

#: Backoff for a lease transaction that keeps hitting a locked database
#: even after sqlite's own busy timeout: five tries over ~0.5 s of
#: deterministic jittered backoff (the successor of the old fixed
#: 0.05 s * attempt ladder).
DEFAULT_TXN_RETRY = RetryPolicy(
    attempts=5, base_delay=0.05, max_delay=0.3, budget=1.0
)


@dataclass(frozen=True)
class Lease:
    """One row of the ``leases`` table (diagnostics and tests)."""

    digest: str
    worker: str
    expires: float
    acquired: float


class LeaseManager:
    """Claim, renew and release leases on one store's ``leases`` table.

    Parameters
    ----------
    store:
        The (shared, WAL-mode) result store the leases coordinate.
    worker:
        This worker's identity — any string unique among concurrent
        workers (the executor uses ``fabric-<host>-<pid>``).  Identity
        never reaches stored payloads or exports.
    ttl:
        Lease lifetime in seconds; claims and renewals set
        ``expires = now + ttl``.
    clock:
        Time source returning seconds (tests inject fakes; defaults to
        wall clock, which cross-process expiry comparison requires).
        The fault plane's ``lease.clock`` site adds its injected skew on
        top of whatever source is used, so chaos schedules can step the
        clock without touching the source.
    retry:
        :class:`~repro.faults.RetryPolicy` for the ``BEGIN IMMEDIATE``
        transactions (claim/renew/release); defaults to
        :data:`DEFAULT_TXN_RETRY`.

    Examples
    --------
    >>> store = ResultStore(":memory:")
    >>> a = LeaseManager(store, "a", ttl=60.0, clock=lambda: 0.0)
    >>> b = LeaseManager(store, "b", ttl=60.0, clock=lambda: 0.0)
    >>> a.claim(["d1", "d2"])
    ['d1', 'd2']
    >>> b.claim(["d2", "d3"])         # d2 is taken
    ['d3']
    >>> late = LeaseManager(store, "c", ttl=60.0, clock=lambda: 120.0)
    >>> late.claim(["d2"])            # a's lease expired at t=60: stale
    ['d2']
    """

    def __init__(
        self,
        store: ResultStore,
        worker: str,
        ttl: float = DEFAULT_LEASE_TTL,
        clock: Callable[[], float] | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        if ttl <= 0:
            raise ValueError(f"lease ttl must be positive, got {ttl}")
        self._store = store
        self._conn = store.connection
        self.worker = worker
        self.ttl = float(ttl)
        self._retry = DEFAULT_TXN_RETRY if retry is None else retry
        self._clock: Callable[[], float] = clock if clock is not None \
            else time.time  # detlint: disable=DET105 - lease expiry is cross-process wall-clock by design; tests inject `clock`

    def _now(self) -> float:
        """The protocol's notion of now: the clock source plus any
        injected skew (the ``lease.clock`` fault site — chaos schedules
        step this worker's view of time to force premature expiry or
        stale-takeover races without touching the source)."""
        now = self._clock()
        if FAULTS.enabled:
            now += FAULTS.skew("lease.clock")
        return now

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------
    def _immediate(self) -> None:
        """``BEGIN IMMEDIATE`` with bounded retry on a locked database."""

        def begin() -> None:
            if FAULTS.enabled:
                FAULTS.hit("lease.begin")
            self._conn.execute("BEGIN IMMEDIATE")

        self._retry.run(
            f"lease.begin:{self.worker}",
            begin,
            retryable=(sqlite3.OperationalError,),
        )

    # ------------------------------------------------------------------
    # protocol
    # ------------------------------------------------------------------
    def claim(
        self, digests: Sequence[str], limit: int | None = None
    ) -> list[str]:
        """Claim up to ``limit`` of ``digests`` for this worker.

        One atomic transaction; for each candidate in order:

        * already in ``results`` — skip (DONE is absorbing);
        * unleased — claim it;
        * leased but expired — **reclaim** it (stale-lease takeover);
        * leased and live (any worker, including this one) — skip.

        A repeated candidate is claimed once.  The transaction reads
        ``results`` and ``leases`` once per :data:`~.store._IN_CHUNK`
        candidates, decides in that order and writes the claims in one
        ``executemany``; the write lock it holds keeps the reads valid
        until it commits.  Returns the claimed digests in candidate
        order (deterministic for a fixed store state).
        """
        now = self._now()
        expires = now + self.ttl
        claimed: list[str] = []
        mine: set[str] = set()
        takeovers = 0
        budget = len(digests) if limit is None else limit
        self._immediate()
        try:
            for chunk in _chunks(digests):
                if len(claimed) >= budget:
                    break
                stored = self._store._stored(chunk)
                leased = self._expiries(chunk)
                for digest in chunk:
                    if len(claimed) >= budget:
                        break
                    if digest in stored or digest in mine:
                        continue
                    prior = leased.get(digest)
                    if prior is not None and prior > now:
                        continue
                    claimed.append(digest)
                    mine.add(digest)
                    takeovers += prior is not None
            self._conn.executemany(
                "INSERT OR REPLACE INTO leases"
                " (digest, worker, expires, acquired) VALUES (?, ?, ?, ?)",
                [(digest, self.worker, expires, now) for digest in claimed],
            )
            self._conn.execute("COMMIT")
        except BaseException:
            if self._conn.in_transaction:
                self._conn.execute("ROLLBACK")
            raise
        if TELEMETRY.enabled:
            TELEMETRY.count("lease.claim_batches")
            TELEMETRY.count("lease.claims", len(claimed))
            if takeovers:
                TELEMETRY.count("lease.stale_takeovers", takeovers)
        return claimed

    def renew(self, digests: Sequence[str] | None = None) -> int:
        """Heartbeat: push the expiry of held leases to ``now + ttl``.

        Renews ``digests`` (or every lease this worker holds) and
        returns how many were actually renewed, counting a repeated
        digest once per occurrence — fewer than asked means some leases
        were lost to expiry + reclamation, and the caller should treat
        those digests as no longer its own.  One ``UPDATE`` per
        :data:`~.store._IN_CHUNK` digests.
        """
        if FAULTS.enabled:
            # A stall here models a hung worker: its heartbeat arrives
            # late (or never), the leases expire, and the watchdog path
            # in the executor hands the digests to a live worker.
            FAULTS.hit("lease.renew")
        now = self._now()
        if digests is None:
            cur = self._conn.execute(
                "UPDATE leases SET expires = ? WHERE worker = ?"
                " AND expires > ?",
                (now + self.ttl, self.worker, now),
            )
            TELEMETRY.count("lease.renews", int(cur.rowcount))
            return int(cur.rowcount)
        kept: set[str] = set()
        self._immediate()
        try:
            for chunk in _chunks(digests):
                kept.update(str(d) for (d,) in self._store._in(
                    "UPDATE leases SET expires = ? WHERE worker = ?"
                    " AND expires > ? AND digest IN ({}) RETURNING digest",
                    chunk, now + self.ttl, self.worker, now,
                ).fetchall())
            self._conn.execute("COMMIT")
        except BaseException:
            if self._conn.in_transaction:
                self._conn.execute("ROLLBACK")
            raise
        renewed = sum(1 for digest in digests if digest in kept)
        TELEMETRY.count("lease.renews", renewed)
        return renewed

    def release(self, digests: Sequence[str]) -> int:
        """Drop this worker's leases on ``digests`` (after storing results).

        Releasing a lease another worker has meanwhile reclaimed is a
        no-op: the ``worker = ?`` guard means a worker can only ever
        delete its own claims.  One ``DELETE`` per
        :data:`~.store._IN_CHUNK` digests; returns how many leases were
        dropped.
        """
        released = 0
        self._immediate()
        try:
            for chunk in _chunks(digests):
                released += int(self._store._in(
                    "DELETE FROM leases WHERE worker = ? AND digest IN ({})",
                    chunk, self.worker,
                ).rowcount)
            self._conn.execute("COMMIT")
        except BaseException:
            if self._conn.in_transaction:
                self._conn.execute("ROLLBACK")
            raise
        TELEMETRY.count("lease.releases", released)
        return released

    def _expiries(self, digests: Sequence[str]) -> dict[str, float]:
        """``digest → expires`` of the lease rows on ``digests``, live
        or not: one read per :data:`~.store._IN_CHUNK` digests."""
        expiries: dict[str, float] = {}
        for chunk in _chunks(digests):
            expiries.update((str(d), float(e)) for d, e in self._store._in(
                "SELECT digest, expires FROM leases WHERE digest IN ({})",
                chunk))
        return expiries

    def _poll(self, digests: Sequence[str]) -> tuple[list[str], bool, bool]:
        """``(unstored, free, expired)``: a read-only look at ``digests``.

        ``unstored`` keeps ``digests``' order; ``free`` is whether one
        of them has no lease row and ``expired`` whether one has an
        expired lease (by this manager's clock) — either way a claim
        could take it now.  The leases are read before the results, so
        a digest committed and released in between counts as stored,
        not free.
        """
        now = self._now()
        leased = self._expiries(digests)
        stored = self._store._stored(digests)
        unstored = [d for d in digests if d not in stored]
        free = any(d not in leased for d in unstored)
        expired = any(d in leased and leased[d] <= now for d in unstored)
        return unstored, free, expired

    # ------------------------------------------------------------------
    # inspection and maintenance
    # ------------------------------------------------------------------
    def held(self) -> list[str]:
        """Digests this worker currently holds live leases on (sorted)."""
        now = self._now()
        return [
            str(row[0]) for row in self._conn.execute(
                "SELECT digest FROM leases WHERE worker = ? AND expires > ?"
                " ORDER BY digest",
                (self.worker, now),
            )
        ]

    def active(self) -> list[Lease]:
        """Every live lease in the store, digest-sorted (all workers)."""
        now = self._now()
        return [
            Lease(str(d), str(w), float(e), float(a))
            for d, w, e, a in self._conn.execute(
                "SELECT digest, worker, expires, acquired FROM leases"
                " WHERE expires > ? ORDER BY digest",
                (now,),
            )
        ]

    def reclaim_stale(self) -> int:
        """Delete expired lease rows outright; returns how many.

        Purely hygienic — claims already treat expired rows as free —
        but dropping them keeps the table small and makes `active()`
        reflect reality after a crashy campaign.
        """
        now = self._now()
        cur = self._conn.execute(
            "DELETE FROM leases WHERE expires <= ?", (now,)
        )
        return int(cur.rowcount)
