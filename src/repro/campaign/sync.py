"""Store push/pull/merge: partial campaigns computed anywhere combine.

A campaign no longer has to live in one store file.  This module moves
rows between **stores** (SQLite files) and **directory remotes**
(DVC-style content-addressed object trees, trivially rsync/NFS/S3-able)
so that partial result sets computed on different hosts merge into one
— byte-identically, because rows are transported as their exact
canonical-JSON payload text and keyed by content digest.

Semantics (the properties ``tests/test_store_sync.py`` pins):

* **Idempotent** — merging a source twice changes nothing; rows
  already present with equal bytes are skipped.
* **Commutative** — on conflict-free inputs, ``merge(A, B)`` and
  ``merge(B, A)`` leave both sides with the same result set: content
  addressing means there is nothing order-dependent to decide.
* **Convergent** — ``push`` then ``pull`` against the same remote
  leaves local and remote with identical result sets.
* **Never silently merged** — a payload that fails validation
  (:func:`repro.campaign.store.payload_error`) is *quarantined* at the
  destination (parked in its ``quarantine`` table / directory, never in
  ``results``) and reported.  A **conflict** — one digest, two
  *different* payload texts on the two sides — proves one side corrupt
  or schema-drifted; the destination keeps its row, the incoming copy
  is quarantined for forensics, and the conflict is reported (or raised,
  for ``strict=True`` callers).

Only ``results`` rows travel.  Digest manifests (the store's
``manifests`` table, a row-identity cache) are neither pushed, pulled
nor merged: a destination's readers materialize every point until its
next drain writes a manifest of its own.

Directory remote layout::

    <root>/objects/<digest[:2]>/<digest>.json  # payload text, exact bytes
    <root>/quarantine/<crc32>.json             # {digest, origin, reason, payload}

It is the object tree a spill journal also is (:mod:`repro.faults.journal`):
one writer with per-process temp names, and paths built only from
file-name-token digests (other digests are quarantined).  Quarantine
entries are named by the crc32 of ``canonical_json([digest, origin])``,
as an origin is often a path.  The two-level fan-out keeps directories
small; every listing is sorted before use, so remote enumeration order
is a contract, not a filesystem accident.
"""

from __future__ import annotations

import json
import sqlite3
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from ..errors import SyncConflictError, ValidationError
from ..faults import DEFAULT_RETRY, FAULTS, RetryPolicy
from ..faults.journal import _ObjectTree
from ..telemetry import TELEMETRY
from ..utils import canonical_json
from .store import ResultStore, payload_error

__all__ = [
    "SyncReport",
    "DirectoryRemote",
    "open_remote",
    "merge_stores",
    "push",
    "pull",
]


@dataclass
class SyncReport:
    """Outcome of one push/pull/merge direction.

    ``merged`` rows were new at the destination, ``skipped`` were
    already present with identical bytes, ``repaired`` replaced an
    *invalid* destination copy with a valid incoming one.  ``conflicts``
    and ``quarantined`` list what was refused: conflicting digests keep
    the destination's row, and every refused payload is parked in the
    destination's quarantine area with a reason.
    """

    source: str
    dest: str
    examined: int = 0
    merged: int = 0
    skipped: int = 0
    repaired: int = 0
    conflicts: list[str] = field(default_factory=list)
    quarantined: list[tuple[str, str]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """Whether nothing was refused (no conflicts, no quarantines)."""
        return not self.conflicts and not self.quarantined

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready summary (the CLI's ``store ... --json`` payload)."""
        return {
            "source": self.source,
            "dest": self.dest,
            "examined": self.examined,
            "merged": self.merged,
            "skipped": self.skipped,
            "repaired": self.repaired,
            "conflicts": sorted(self.conflicts),
            "quarantined": [
                {"digest": d, "reason": r}
                for d, r in sorted(self.quarantined)
            ],
            "clean": self.clean,
        }


# ----------------------------------------------------------------------
# remote endpoints
# ----------------------------------------------------------------------
class _StoreEndpoint:
    """A :class:`ResultStore` as a sync endpoint."""

    def __init__(self, store: ResultStore) -> None:
        self._store = store
        self.label = store.path

    def items_text(self) -> Iterator[tuple[str, str]]:
        return self._store.items_text()

    def get_text(self, digest: str) -> str | None:
        return self._store.payload_text(digest)

    def put_text(self, digest: str, text: str) -> bool:
        return self._store.put_text(digest, text)

    def quarantine(
        self, digest: str, origin: str, text: str, reason: str
    ) -> None:
        self._store.add_quarantine(digest, origin, text, reason)


class DirectoryRemote(_ObjectTree):
    """A content-addressed object directory as a sync endpoint.

    The object tree a spill journal also is: payloads are stored as
    exact bytes under ``objects/<digest[:2]>/<digest>.json`` and are
    never overwritten — like the store, a directory remote is
    content-addressed and append-only (quarantine aside).
    """

    def __init__(self, root: str | Path) -> None:
        super().__init__(root)
        self.label = str(root)

    def get_text(self, digest: str) -> str | None:
        path = self._object_path(digest)
        return (path.read_text(encoding="utf-8") if path.exists()
                else None)

    def put_text(self, digest: str, text: str) -> bool:
        if FAULTS.enabled:
            # Chaos hook: a full disk raises here; a torn write hands
            # back a truncated payload that lands under the final name
            # — exactly the wreckage quarantine exists to catch.
            text = FAULTS.mangle("sync.object-write", text)
        return self._put(digest, text)

    def quarantine(
        self, digest: str, origin: str, text: str, reason: str
    ) -> None:
        key = canonical_json([digest, origin]).encode("utf-8")
        entry = canonical_json(
            {"digest": digest, "origin": origin, "reason": reason,
             "payload": text},
            indent=2,
        ) + "\n"
        self._write(
            self.root / "quarantine" / f"{zlib.crc32(key):08x}.json", entry
        )

    def quarantined(self) -> list[tuple[str, str, str, str]]:
        """``(digest, origin, payload_text, reason)`` rows, sorted."""
        qdir = self.root / "quarantine"
        entries = [json.loads(p.read_text(encoding="utf-8"))
                   for p in sorted(qdir.glob("*.json"))]
        return sorted((str(e["digest"]), str(e["origin"]),
                       str(e["payload"]), str(e["reason"])) for e in entries)


def open_remote(
    target: str | Path, store: ResultStore | None = None
) -> _StoreEndpoint | DirectoryRemote:
    """Resolve a sync target: an open store, a store file, or a directory.

    An existing directory (or a path spelled with a trailing separator)
    is a :class:`DirectoryRemote`; anything else is opened as a
    :class:`ResultStore` file (created when missing).  Pass an already
    open ``store`` to wrap it without reopening the file.
    """
    if store is not None:
        return _StoreEndpoint(store)
    path = Path(target)
    if path.is_dir() or str(target).endswith(("/", "\\")):
        return DirectoryRemote(path)
    if path.exists() or path.suffix in (".sqlite", ".db", ".store"):
        return _StoreEndpoint(ResultStore(path))
    raise ValidationError(
        f"sync target {str(target)!r} does not exist; create it first, "
        f"spell a directory remote with a trailing '/', or use a "
        f".sqlite/.db suffix to create a store file"
    )


# ----------------------------------------------------------------------
# the merge core
# ----------------------------------------------------------------------
def _merge(
    src: _StoreEndpoint | DirectoryRemote,
    dst: _StoreEndpoint | DirectoryRemote,
    report: SyncReport,
    seen: set[str],
) -> None:
    """Merge every valid row of ``src`` into ``dst`` (the one primitive).

    push = merge(local, remote); pull = merge(remote, local).  The
    source is never mutated.  Outcomes accumulate in ``report``; rows
    whose digest is in ``seen`` already have one from an earlier pass
    of the same call (a pass a fault cut short) and are passed over, so
    a row that pass landed stays ``merged`` and is never also
    ``skipped``.  A row joins ``seen`` only once decided: a fault
    raised on the way leaves it for the retry.
    """
    origin = src.label
    for digest, text in src.items_text():
        if digest in seen:
            continue
        if FAULTS.enabled:
            FAULTS.hit("sync.merge-row")
        reason = payload_error(text)
        try:
            existing = dst.get_text(digest) if reason is None else None
        except ValidationError as exc:  # a digest no object path takes
            reason = str(exc)
        if reason is not None:
            dst.quarantine(digest, origin, text, reason)
            report.quarantined.append((digest, reason))
        elif existing is None:
            dst.put_text(digest, text)
            report.merged += 1
        elif existing == text:
            report.skipped += 1
        elif payload_error(existing) is not None:
            # The destination's copy is the invalid one: park it and
            # let the valid incoming bytes take the slot.
            dst.quarantine(
                digest, dst.label, existing,
                f"replaced by valid copy from {origin}: "
                f"{payload_error(existing)}",
            )
            _replace_text(dst, digest, text)
            report.repaired += 1
        else:
            dst.quarantine(
                digest, origin, text,
                "conflict: differs from the destination's valid copy",
            )
            report.conflicts.append(digest)
        # Decided: only now may a retried pass pass over it.
        seen.add(digest)
        report.examined += 1


def _replace_text(
    dst: _StoreEndpoint | DirectoryRemote, digest: str, text: str
) -> None:
    """Swap an (invalid) destination row for valid bytes."""
    if isinstance(dst, _StoreEndpoint):
        dst._store.connection.execute(
            "UPDATE results SET payload = ? WHERE digest = ?",
            (text, digest),
        )
        dst._store.commit()
    else:
        dst._write(dst._object_path(digest), text)


# ----------------------------------------------------------------------
# public verbs
# ----------------------------------------------------------------------
def _merge_with_retry(
    src: _StoreEndpoint | DirectoryRemote,
    dst: _StoreEndpoint | DirectoryRemote,
    strict: bool,
    retry: RetryPolicy | None,
    key: str,
) -> SyncReport:
    """Run one merge direction under a retry policy; one report.

    A pass that died on a transient lock or a full disk is simply
    resumed: the next pass carries the same report on and passes over
    the rows the first one already decided, so every row is decided
    (and counted) exactly once.  The ``sync.*``
    counters are emitted once per call, from the final report.
    """
    report = SyncReport(source=src.label, dest=dst.label)
    seen: set[str] = set()
    policy = DEFAULT_RETRY if retry is None else retry
    policy.run(key, lambda: _merge(src, dst, report, seen),
               retryable=(sqlite3.OperationalError, OSError))
    if TELEMETRY.enabled:
        TELEMETRY.count("sync.merged", report.merged)
        TELEMETRY.count("sync.skipped", report.skipped)
        TELEMETRY.count("sync.repaired", report.repaired)
        TELEMETRY.count("sync.conflicts", len(report.conflicts))
        TELEMETRY.count("sync.quarantined", len(report.quarantined))
    if strict and report.conflicts:
        raise SyncConflictError(
            f"sync {src.label!r} -> {dst.label!r} found "
            f"{len(report.conflicts)} digest(s) with conflicting "
            f"payloads (first: {report.conflicts[0]}); both copies are "
            f"preserved (destination row + quarantined incoming row) — "
            f"inspect the quarantine and delete the corrupt side"
        )
    return report


def push(
    store: ResultStore,
    remote: str | Path,
    strict: bool = False,
    retry: RetryPolicy | None = None,
) -> SyncReport:
    """Merge this store's rows into ``remote`` (file or directory).

    Examples
    --------
    >>> import tempfile, os
    >>> a = ResultStore(":memory:")
    >>> _ = a.put("d1", {"schema": 1, "model": "overlap", "method": "x",
    ...                  "period": 1.0, "mct": 1.0, "critical": True,
    ...                  "gap": 0.0, "m": 1, "n_stages": 1, "n_procs": 1,
    ...                  "replication": [1]})
    >>> tmp = tempfile.mkdtemp()
    >>> push(a, os.path.join(tmp, "remote") + os.sep).merged
    1
    """
    return _merge_with_retry(
        _StoreEndpoint(store), open_remote(remote), strict, retry,
        key=f"sync.push:{remote}",
    )


def pull(
    store: ResultStore,
    remote: str | Path,
    strict: bool = False,
    retry: RetryPolicy | None = None,
) -> SyncReport:
    """Merge ``remote``'s rows into this store."""
    return _merge_with_retry(
        open_remote(remote), _StoreEndpoint(store), strict, retry,
        key=f"sync.pull:{remote}",
    )


def merge_stores(
    dst: ResultStore,
    src: ResultStore,
    strict: bool = False,
    retry: RetryPolicy | None = None,
) -> SyncReport:
    """Merge ``src``'s rows into ``dst`` (both already open)."""
    return _merge_with_retry(
        _StoreEndpoint(src), _StoreEndpoint(dst), strict, retry,
        key=f"sync.merge:{dst.path}",
    )
