"""Content-addressed SQLite store of period-evaluation results.

The store maps a **content digest** — SHA-256 over the canonical JSON of
``(instance.to_dict(), model, schema version)`` — to the plain-data
outcome of evaluating that pair (period, ``M_ct``, classification).
Keying on content rather than on campaign/point identity has two
consequences the campaign subsystem is built on:

* **Resumability**: re-running a spec re-derives the same digests
  (expansion is deterministic; the digest manifest below spares
  re-materializing stored points) and skips every point already
  present — an interrupted campaign resumes exactly where it stopped,
  and a *grown* campaign (more draws, extra axes) only computes the
  new points.
* **Cross-harness sharing**: :func:`repro.experiments.runner.run_family`
  and :func:`~repro.experiments.table2.run_table2` drain through the
  campaign loop and read their records back from the store, so a Table
  2 sweep and a campaign that happen to draw the same instance share
  one stored evaluation.

Since the distributed-fabric work the store is also **multi-writer
safe**: files open in WAL journal mode with a busy timeout, so N worker
processes (or N hosts against one shared file) can interleave reads and
writes without corrupting each other — SQLite serializes the writers,
the busy timeout makes them queue instead of erroring, and content
addressing makes any racing duplicate a harmless no-op
(``INSERT OR IGNORE``).  The *coordination* layer that makes duplicates
rare rather than merely harmless is :mod:`repro.campaign.lease`; the
cross-store transport is :mod:`repro.campaign.sync`.  Both share this
file: alongside ``results`` the store carries a ``leases`` table
(claim/lease protocol state) and a ``quarantine`` table (payloads a
sync refused to merge, kept for forensics).

A ``manifests`` table caches row identity: per campaign spec
(:func:`manifest_key`), the packed 32-byte digests of its points in
spec order, written by a drain once it has materialized every point.
Resume, status and export read it instead of re-materializing each
point (the checks live in :mod:`repro.campaign.executor`).  Manifests
are a cache, never data: sync moves ``results`` rows only and
:meth:`ResultStore.recover` drops them, so such a store's readers
materialize every point until its next drain writes a fresh manifest.

Payloads are value-only (no config/seed identity): callers attach their
own context when reassembling records
(:func:`record_from_payload`).  All serialization goes through
:func:`repro.experiments.io.canonical_json`, so the stored bytes — and
any export derived from them — are deterministic.

The schema version is baked into every digest: bump
:data:`RESULT_SCHEMA_VERSION` whenever the payload layout or the
evaluation semantics change, and stale entries simply stop matching
instead of silently poisoning new runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from ..core.instance import Instance
from ..core.models import CommModel
from ..core.throughput import PeriodResult
from ..errors import (StoreCorruptionError, StoreLeaseError,
                      StoreUnavailableError, ValidationError)
from ..faults import DEFAULT_RETRY, FAULTS, RetryPolicy
from ..telemetry import TELEMETRY
from ..utils import canonical_json
from .spec import MATERIALIZATION_VERSION, CampaignSpec

if TYPE_CHECKING:
    from ..experiments.runner import ExperimentRecord

__all__ = [
    "RESULT_SCHEMA_VERSION",
    "ResultStore",
    "instance_digest",
    "manifest_key",
    "payload_from_result",
    "record_from_payload",
    "payload_error",
]

#: Bump when the payload layout or evaluation semantics change; digests
#: include it, so old entries become invisible rather than wrong.
RESULT_SCHEMA_VERSION = 1

#: Keys every stored payload must carry (recovery and sync drop rows
#: without them).
_REQUIRED_KEYS = frozenset({
    "schema", "model", "method", "period", "mct", "critical", "gap",
    "m", "n_stages", "n_procs", "replication",
})

#: Default time (seconds) a writer waits on a locked database before
#: sqlite raises — generous because campaign workers hold the write
#: lock only for their brief post-evaluation commit bursts.
DEFAULT_BUSY_TIMEOUT = 30.0

#: Digests per batched ``WHERE digest IN (...)`` lookup: under the 999
#: host parameters older SQLite builds allow per statement.
_IN_CHUNK = 500


def _chunks(digests: Sequence[str]) -> Iterator[Sequence[str]]:
    """``digests`` in consecutive slices of :data:`_IN_CHUNK`."""
    for start in range(0, len(digests), _IN_CHUNK):
        yield digests[start: start + _IN_CHUNK]


def instance_digest(
    inst: Instance,
    model: CommModel | str,
    schema: int = RESULT_SCHEMA_VERSION,
    objectives: Sequence[str] = ("period",),
) -> str:
    """Stable content digest of one ``(instance, model)`` evaluation.

    SHA-256 over canonical JSON (sorted keys, ``repr`` floats), so the
    digest is identical across interpreters and platforms for equal
    values.  ``objectives`` joins the digest payload only when it names
    more than the period — every pre-existing period-only digest is
    unchanged, while multi-objective evaluations (whose stored payloads
    carry extra values) address separate rows.

    Examples
    --------
    >>> from repro.experiments.examples_paper import example_a
    >>> d1 = instance_digest(example_a(), "overlap")
    >>> d1 == instance_digest(example_a(), "overlap")
    True
    >>> d1 == instance_digest(example_a(), "strict")
    False
    >>> d1 == instance_digest(example_a(), "overlap",
    ...                       objectives=("period", "latency"))
    False
    """
    payload = {
        "instance": inst.to_dict(),
        "model": CommModel.parse(model).value,
        "schema": schema,
    }
    names = tuple(objectives)
    if names != ("period",):
        payload["objectives"] = list(names)
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def manifest_key(spec: CampaignSpec) -> str:
    """Store key of the digest manifest of ``spec``.

    SHA-256 over the spec's canonical JSON, the canonical JSON of each
    application axis's materialized application (so an edit to a
    catalog workload or a synthetic shape changes the key even though
    the spec text does not), :data:`RESULT_SCHEMA_VERSION`,
    :data:`~repro.campaign.spec.MATERIALIZATION_VERSION` and numpy's
    version: ``Generator`` streams are not guaranteed to match across
    numpy releases, so a manifest written under another numpy is never
    read.
    """
    apps = [axis.application().to_dict() for axis in spec.applications]
    parts = (canonical_json(spec.to_dict()), canonical_json(apps),
             str(RESULT_SCHEMA_VERSION), str(MATERIALIZATION_VERSION),
             np.__version__)
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def payload_from_result(
    inst: Instance,
    result: PeriodResult,
    objectives: Sequence[str] = ("period",),
) -> dict[str, Any]:
    """Value-only payload of one evaluation (JSON-plain, digestable).

    With a multi-objective selection the payload additionally carries
    the requested extra values (``latency`` + ``latency_mode`` and/or
    ``reliability``) and the ``objectives`` list itself — all computed
    by :func:`repro.objectives.attach_objectives` as pure functions of
    the instance, so serial, ``n_jobs`` and fabric runs store identical
    bytes.  Period-only payloads are unchanged (no extra keys), and the
    extra keys are tolerated by :func:`payload_error`, which checks
    required keys only.
    """
    payload: dict[str, Any] = {
        "schema": RESULT_SCHEMA_VERSION,
        "model": result.model.value,
        "method": result.method,
        "period": result.period,
        "mct": result.mct,
        "critical": result.has_critical_resource,
        "gap": result.relative_gap,
        "m": result.m,
        "n_stages": inst.n_stages,
        "n_procs": inst.platform.n_processors,
        "replication": list(inst.replication_counts),
    }
    names = tuple(objectives)
    if names != ("period",):
        from ..objectives.evaluate import attach_objectives

        ev = attach_objectives(inst, result, names)
        payload["objectives"] = list(ev.objectives)
        if ev.latency is not None:
            payload["latency"] = float(ev.latency)
            payload["latency_mode"] = ev.latency_mode
        if ev.reliability is not None:
            payload["reliability"] = float(ev.reliability)
    return payload


def payload_error(text: str) -> str | None:
    """Why ``text`` is not a valid stored payload, or ``None`` if it is.

    The shared validity predicate of :meth:`ResultStore.recover` and
    :mod:`repro.campaign.sync`: a payload must parse as a JSON object,
    carry the current schema version and every required key.  Sync
    quarantines rows that fail this check instead of merging them.

    Examples
    --------
    >>> payload_error("{not json")
    'payload is not valid JSON'
    >>> payload_error('{"schema": 999}')
    'payload has schema 999, expected 1'
    """
    try:
        data = json.loads(text)
    except (TypeError, ValueError):
        return "payload is not valid JSON"
    if not isinstance(data, dict):
        return "payload is not a JSON object"
    if data.get("schema") != RESULT_SCHEMA_VERSION:
        return (f"payload has schema {data.get('schema')!r}, "
                f"expected {RESULT_SCHEMA_VERSION}")
    missing = _REQUIRED_KEYS - data.keys()
    if missing:
        return f"payload is missing keys: {', '.join(sorted(missing))}"
    return None


def record_from_payload(
    config_name: str,
    model: CommModel | str,
    seed: int,
    payload: dict[str, Any],
) -> ExperimentRecord:
    """Reattach caller context to a stored payload.

    A store-backed :func:`repro.experiments.runner.run_family` builds
    every record this way, stored before the call or by its drain:
    payloads carry only content (results + instance shape), the family
    name and seed are the caller's identity.  Records rebuilt this way
    are equal to records computed live — floats round-trip exactly
    through canonical JSON.
    """
    from ..experiments.runner import ExperimentRecord

    return ExperimentRecord(
        config_name=config_name,
        model=CommModel.parse(model).value,
        seed=seed,
        n_stages=int(payload["n_stages"]),
        n_procs=int(payload["n_procs"]),
        replication=tuple(int(c) for c in payload["replication"]),
        m=int(payload["m"]),
        period=float(payload["period"]),
        mct=float(payload["mct"]),
        critical=bool(payload["critical"]),
        gap=float(payload["gap"]),
    )


class ResultStore:
    """Content-addressed result store backed by a single SQLite file.

    Parameters
    ----------
    path:
        Database file (created if missing), or ``":memory:"`` for an
        ephemeral store (tests, dry runs).
    check:
        Run ``PRAGMA quick_check`` on open and raise
        :class:`~repro.errors.StoreCorruptionError` if the file is
        damaged (pass ``False`` only from :meth:`recover`).
    busy_timeout:
        Seconds a statement waits on another writer's lock before
        sqlite gives up.  File stores open in WAL journal mode, so
        readers never block and writers queue behind each other for
        the duration of their (short) commit bursts.
    retry:
        :class:`~repro.faults.RetryPolicy` for connect and commit.
        Environmental failures (a locked WAL sidecar, a read-only or
        full filesystem) surface as
        :class:`~repro.errors.StoreUnavailableError` carrying path +
        cause and are retried under the policy's deterministic backoff
        before propagating; corruption is *never* retried.  Defaults to
        :data:`repro.faults.DEFAULT_RETRY`.

    Notes
    -----
    Writes default to immediate commit; bulk writers (the campaign
    executor) pass ``commit=False`` and call :meth:`commit` at chunk
    boundaries, so a hard kill loses at most the uncommitted tail —
    never already-committed work, and never the file's integrity
    (SQLite journals the transaction).  Concurrent writers are safe:
    the store never overwrites, so the only cross-process race is two
    workers inserting the same digest, which ``INSERT OR IGNORE``
    resolves identically regardless of who wins.

    Examples
    --------
    >>> store = ResultStore(":memory:")
    >>> store.put("abc", {"schema": 1, "period": 2.0})
    True
    >>> store.get("abc")["period"]
    2.0
    >>> store.get("missing") is None
    True
    >>> len(store)
    1
    """

    def __init__(
        self,
        path: str | Path,
        check: bool = True,
        busy_timeout: float = DEFAULT_BUSY_TIMEOUT,
        retry: RetryPolicy | None = None,
    ) -> None:
        if not isinstance(path, (str, os.PathLike)):
            raise ValidationError(f"store path must be str or os.PathLike, "
                                  f"got {type(path).__name__}")
        self.path = str(path)
        self._retry = DEFAULT_RETRY if retry is None else retry
        self._conn = self._retry.run(
            f"store.connect:{self.path}",
            lambda: self._connect(busy_timeout),
            retryable=(StoreUnavailableError,),
        )
        # Autocommit with explicit BEGIN/COMMIT: multi-statement writes
        # (claim transactions, chunk commits) control their own
        # boundaries instead of relying on implicit-transaction rules.
        self._conn.isolation_level = None
        try:
            if check and self.path != ":memory:":
                row = self._conn.execute("PRAGMA quick_check").fetchone()
                if row is None or row[0] != "ok":
                    raise StoreCorruptionError(
                        f"store {self.path!r} failed its integrity check: "
                        f"{row[0] if row else 'no result'}; use "
                        f"ResultStore.recover() to salvage readable rows"
                    )
            if self.path != ":memory:":
                # WAL survives in the file; setting it again is a no-op.
                # NORMAL sync is the standard WAL pairing: a power cut
                # can lose the last commits but never integrity — and
                # content addressing recomputes lost rows anyway.
                self._conn.execute("PRAGMA journal_mode=WAL")
                self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS results ("
                " digest TEXT PRIMARY KEY,"
                " payload TEXT NOT NULL)"
            )
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS leases ("
                " digest TEXT PRIMARY KEY,"
                " worker TEXT NOT NULL,"
                " expires REAL NOT NULL,"
                " acquired REAL NOT NULL)"
            )
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS quarantine ("
                " digest TEXT NOT NULL,"
                " origin TEXT NOT NULL,"
                " payload TEXT NOT NULL,"
                " reason TEXT NOT NULL,"
                " PRIMARY KEY (digest, origin))"
            )
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS manifests ("
                " key TEXT PRIMARY KEY,"
                " digests BLOB NOT NULL)"
            )
        except sqlite3.OperationalError as exc:
            # Environmental, not structural: a read-only filesystem or
            # a lock held past the busy timeout.  The file is (as far
            # as we know) intact, so signal "come back later", not
            # "recover".
            self._conn.close()
            raise StoreUnavailableError(self.path, exc) from exc
        except sqlite3.DatabaseError as exc:
            # Release the handle: recover() renames the file, which an
            # open connection would block on some platforms.
            self._conn.close()
            raise StoreCorruptionError(
                f"store {self.path!r} is not a readable SQLite database "
                f"({exc}); use ResultStore.recover() to salvage what is "
                f"left or delete the file to start fresh"
            ) from exc
        except StoreCorruptionError:
            self._conn.close()
            raise

    def _connect(self, busy_timeout: float) -> sqlite3.Connection:
        """One connection attempt, with typed failure + injection site."""
        try:
            if FAULTS.enabled:
                FAULTS.hit("store.connect")
            return sqlite3.connect(self.path, timeout=busy_timeout)
        except sqlite3.OperationalError as exc:
            raise StoreUnavailableError(self.path, exc) from exc

    # ------------------------------------------------------------------
    # digests (re-exported for callers holding only a store)
    # ------------------------------------------------------------------
    digest = staticmethod(instance_digest)

    @property
    def connection(self) -> sqlite3.Connection:
        """The underlying connection (lease manager / sync plumbing)."""
        return self._conn

    # ------------------------------------------------------------------
    # lookups and writes
    # ------------------------------------------------------------------
    def get(self, digest: str) -> dict[str, Any] | None:
        """The stored payload, or ``None``."""
        text = self.payload_text(digest)
        if text is None:
            return None
        data: dict[str, Any] = json.loads(text)
        return data

    def payload_text(self, digest: str) -> str | None:
        """The stored payload's exact canonical-JSON text, or ``None``.

        Sync compares and transports payloads at the byte level — equal
        values always serialize to equal canonical bytes, so text
        equality *is* value equality here.
        """
        row = self._conn.execute(
            "SELECT payload FROM results WHERE digest = ?", (digest,)
        ).fetchone()
        if row is None:
            return None
        return str(row[0])

    def put(
        self, digest: str, payload: dict[str, Any], commit: bool = True
    ) -> bool:
        """Store a payload under its digest; ``False`` if already present.

        Content-addressed stores never overwrite: two writers racing on
        the same digest computed the same values (or one of them is
        wrong, which a digest collision cannot repair).
        """
        return self.put_text(digest, canonical_json(payload), commit=commit)

    def put_text(
        self, digest: str, payload_text: str, commit: bool = True
    ) -> bool:
        """Store an already-serialized payload (byte-preserving sync path)."""
        if FAULTS.enabled:
            FAULTS.hit("store.put")
        if commit is False and not self._conn.in_transaction:
            self._conn.execute("BEGIN")
        cur = self._conn.execute(
            "INSERT OR IGNORE INTO results (digest, payload) VALUES (?, ?)",
            (digest, payload_text),
        )
        if commit:
            self.commit()
        inserted = cur.rowcount == 1
        if inserted and TELEMETRY.enabled:
            TELEMETRY.count("store.puts")
        return inserted

    def commit(self) -> None:
        """Flush pending ``put(..., commit=False)`` writes to disk.

        Retried under the store's :class:`~repro.faults.RetryPolicy`:
        ``COMMIT`` leaves the transaction open when it fails on a
        locked or full database, so re-issuing it is safe.  Past the
        retry budget the last error propagates — the fabric's cue to
        spill the chunk to a journal.
        """
        if self._conn.in_transaction:
            self._retry.run(
                f"store.commit:{self.path}",
                self._commit_once,
                retryable=(sqlite3.OperationalError, OSError),
            )

    def _commit_once(self) -> None:
        if FAULTS.enabled:
            FAULTS.hit("store.commit")
        if self._conn.in_transaction:
            self._conn.execute("COMMIT")

    def rollback(self) -> None:
        """Abandon the open ``put(..., commit=False)`` transaction.

        The graceful-degradation path: when :meth:`commit` exhausts its
        retries, the fabric rolls the chunk back and spills its payloads
        to a :class:`~repro.faults.SpillJournal` instead.  A no-op
        outside a transaction.
        """
        if self._conn.in_transaction:
            self._conn.execute("ROLLBACK")

    def __contains__(self, digest: str) -> bool:
        row = self._conn.execute(
            "SELECT 1 FROM results WHERE digest = ?", (digest,)
        ).fetchone()
        return row is not None

    def __len__(self) -> int:
        return int(
            self._conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]
        )

    def digests(self) -> list[str]:
        """All stored digests, sorted (stable).

        A full scan, counted as ``store.scans``: campaign drains never
        call it, so a drain's trace must show zero scans.
        """
        if TELEMETRY.enabled:
            TELEMETRY.count("store.scans")
        return [
            str(row[0]) for row in self._conn.execute(
                "SELECT digest FROM results ORDER BY digest"
            )
        ]

    def items(self) -> Iterator[tuple[str, dict[str, Any]]]:
        """All ``(digest, payload)`` pairs, digest-ordered (stable)."""
        for digest, payload in self.items_text():
            yield digest, json.loads(payload)

    def items_text(self) -> Iterator[tuple[str, str]]:
        """All ``(digest, payload_text)`` pairs, digest-ordered (stable)."""
        for digest, payload in self._conn.execute(
            "SELECT digest, payload FROM results ORDER BY digest"
        ):
            yield str(digest), str(payload)

    # ------------------------------------------------------------------
    # batched lookups (one query per slice of digests)
    # ------------------------------------------------------------------
    def _in(self, sql: str, digests: Sequence[str],
            *params: object) -> sqlite3.Cursor:
        """Run ``sql`` once, its ``digest IN ({})`` bound to the
        distinct ``digests`` after ``params``.

        The list is padded with repeats of its last digest to a power of
        two (at most :data:`_IN_CHUNK`), so a connection prepares at
        most 10 texts of each statement instead of one per width.  A
        repeated ``IN`` value changes no membership, ``RETURNING`` row
        or ``rowcount``.
        """
        unique = list(dict.fromkeys(digests))
        if unique:
            width = min(_IN_CHUNK, 1 << (len(unique) - 1).bit_length())
            unique += unique[-1:] * (width - len(unique))
        return self._conn.execute(
            sql.format(",".join("?" * len(unique))), (*params, *unique))

    def _stored(self, digests: Iterable[str]) -> set[str]:
        """The stored ones of ``digests``, for membership tests: one
        query per :data:`_IN_CHUNK` digests instead of one per digest."""
        found: set[str] = set()
        for chunk in _chunks(list(digests)):
            found.update(str(digest) for (digest,) in self._in(
                "SELECT digest FROM results WHERE digest IN ({})", chunk))
        return found

    def _payload_texts(self, digests: Sequence[str]) -> Iterator[str | None]:
        """:meth:`payload_text` of each of ``digests``, in order.

        One query per :data:`_IN_CHUNK` digests, read a chunk at a time,
        so only one chunk's payloads are held at once.
        """
        for chunk in _chunks(digests):
            texts = {str(digest): str(text) for digest, text in self._in(
                "SELECT digest, payload FROM results WHERE digest IN ({})",
                chunk)}
            yield from (texts.get(digest) for digest in chunk)

    def _payloads(
        self, digests: Sequence[str]
    ) -> Iterator[dict[str, Any] | None]:
        """:meth:`get` of each of ``digests``, in order.

        One query and one ``json.loads`` per :data:`_IN_CHUNK` digests:
        a chunk's stored texts are parsed as one JSON array, so only one
        chunk's payloads are held at once.  Stored payloads are single
        JSON objects, so the array has one item per text; if it does
        not, a text is malformed and a per-text parse raises where it is.
        """
        for chunk in _chunks(digests):
            texts = list(self._payload_texts(chunk))
            stored = [text for text in texts if text is not None]
            payloads = json.loads("[" + ",".join(stored) + "]")
            if len(payloads) != len(stored):
                payloads = [json.loads(text) for text in stored]
            parsed = iter(payloads)
            yield from (None if text is None else next(parsed)
                        for text in texts)

    # ------------------------------------------------------------------
    # digest manifests (a row-identity cache; see the module docstring)
    # ------------------------------------------------------------------
    def _manifest(self, key: str) -> bytes | None:
        """The packed digests stored under ``key``, or ``None``."""
        row = self._conn.execute(
            "SELECT digests FROM manifests WHERE key = ?", (key,)
        ).fetchone()
        return None if row is None else bytes(row[0])

    def _put_manifest(self, key: str, digests: bytes) -> None:
        """Store (or replace) a manifest; best effort.

        A manifest only saves work, so a store that cannot take the
        write (locked past the busy timeout, full, read-only) keeps
        none and its readers fall back to full materialization.
        """
        try:
            self._conn.execute(
                "INSERT OR REPLACE INTO manifests (key, digests) "
                "VALUES (?, ?)", (key, digests),
            )
        except sqlite3.OperationalError:
            pass

    # ------------------------------------------------------------------
    # quarantine (rows a sync refused to merge; kept for forensics)
    # ------------------------------------------------------------------
    def add_quarantine(
        self, digest: str, origin: str, payload_text: str, reason: str
    ) -> None:
        """Park a payload that failed validation or conflicted on sync."""
        self._conn.execute(
            "INSERT OR REPLACE INTO quarantine "
            "(digest, origin, payload, reason) VALUES (?, ?, ?, ?)",
            (digest, origin, payload_text, reason),
        )
        self.commit()
        if TELEMETRY.enabled:
            TELEMETRY.count("store.quarantines")

    def quarantined(self) -> list[tuple[str, str, str, str]]:
        """``(digest, origin, payload_text, reason)`` rows, sorted."""
        return [
            (str(d), str(o), str(p), str(r))
            for d, o, p, r in self._conn.execute(
                "SELECT digest, origin, payload, reason FROM quarantine "
                "ORDER BY digest, origin"
            )
        ]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Commit and close the underlying connection."""
        self.commit()
        self._conn.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # corruption recovery
    # ------------------------------------------------------------------
    @classmethod
    def recover(
        cls,
        path: str | Path,
        force: bool = False,
        clock: Callable[[], float] | None = None,
    ) -> tuple["ResultStore", int]:
        """Salvage a damaged store file into a fresh one.

        Every row that still reads back as a valid payload
        (:func:`payload_error`) is copied into a new database at
        ``path``; the damaged original is set aside as
        ``<path>.corrupt``.  Returns the fresh store and the number of
        salvaged rows.  Rows that are lost are simply recomputed by the
        next campaign run — content addressing makes recovery safe.
        Digest manifests are not carried over (a fresh drain rewrites
        them).

        Recovery is **lease-aware**: if the file still carries unexpired
        leases, some worker is (as far as the file can tell) actively
        evaluating claimed points and may commit results at any moment —
        replacing the file underneath it would clobber those rows.
        In that case :class:`~repro.errors.StoreLeaseError` is raised
        listing the holders; pass ``force=True`` only once the workers
        are known to be dead (their leases then expire on their own —
        waiting out the TTL is always the safe alternative).
        """
        path = Path(path)
        now = (clock or time.time)()  # detlint: disable=DET105 - lease expiry is inherently wall-clock; tests inject `clock`
        salvaged: list[tuple[str, str]] = []
        if path.exists():
            conn = sqlite3.connect(str(path))
            try:
                if not force:
                    _check_no_active_leases(conn, path, now)
                for digest, payload in conn.execute(
                    "SELECT digest, payload FROM results"
                ):
                    if payload_error(str(payload)) is None:
                        salvaged.append((str(digest), str(payload)))
            except sqlite3.DatabaseError:
                pass  # nothing (more) readable; keep what we got
            finally:
                conn.close()
            os.replace(path, f"{path}.corrupt")
            # WAL sidecars belong to the damaged file: set them aside
            # too, or the fresh database would try to replay them.
            for suffix in ("-wal", "-shm"):
                sidecar = Path(f"{path}{suffix}")
                if sidecar.exists():
                    os.replace(sidecar, f"{path}.corrupt{suffix}")
        store = cls(path, check=False)
        for digest, text in salvaged:
            store.put_text(digest, text, commit=False)
        store.commit()
        return store, len(salvaged)


def _check_no_active_leases(
    conn: sqlite3.Connection, path: Path, now: float
) -> None:
    """Raise :class:`StoreLeaseError` if the file has unexpired leases."""
    try:
        rows = conn.execute(
            "SELECT worker, COUNT(*), MAX(expires) FROM leases "
            "WHERE expires > ? GROUP BY worker ORDER BY worker", (now,)
        ).fetchall()
    except sqlite3.DatabaseError:
        return  # no readable lease table: nothing provably active
    if rows:
        holders = ", ".join(
            f"{worker!r} ({count} lease(s), expiring in "
            f"{max(0.0, expires - now):.1f}s)"
            for worker, count, expires in rows
        )
        raise StoreLeaseError(
            f"store {str(path)!r} has active leases held by {holders}; "
            f"recovery would clobber rows those workers are about to "
            f"commit — wait for the leases to expire, or pass "
            f"force=True once the workers are known dead"
        )
