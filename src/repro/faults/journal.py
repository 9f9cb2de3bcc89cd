"""Write-ahead spill journal + idempotent heal: the degradation ladder.

When a fabric worker has results committed in memory but the store is
unreachable past its retry budget, losing the work or crashing the
campaign are both wrong — evaluation is the expensive part.  Instead
the worker **spills** each payload to a local, append-only journal
directory and keeps draining: the campaign degrades to per-worker
progress instead of dying.  The journal is the object tree of a sync
directory remote (``objects/<digest[:2]>/<digest>.json``, exact
canonical bytes), defined here once: a sorted listing, paths built only
from file-name-token digests (``[0-9A-Za-z_-]+``, else
:class:`~repro.errors.ValidationError`), and one write-then-rename
through a per-process temp name (``.<name>.<pid>.tmp``).

``repro-workflow store heal <store> <journal>`` is
:func:`repro.campaign.sync.pull` of the journal directory, nothing
more — so healing inherits the merge algebra's pinned properties:
idempotent (healing twice changes nothing), commutative with
concurrent direct commits (content addressing leaves nothing
order-dependent), convergent after interruption (a heal killed mid-way
replays the remainder on retry), and never silently merging — a spill
entry torn by the very fault that forced the spill is quarantined, and
the digest is simply recomputed by the next campaign run.  Spills are
counted (``journal.spills``); a heal is counted as the pull it is.
"""

from __future__ import annotations

import os
import re
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from ..errors import ValidationError
from ..telemetry import TELEMETRY
from .core import FAULTS

if TYPE_CHECKING:
    from ..campaign.store import ResultStore
    from ..campaign.sync import SyncReport

__all__ = ["SpillJournal", "heal"]


class _ObjectTree:
    """A content-addressed object directory, created on first write."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def _object_path(self, digest: str) -> Path:
        if re.fullmatch(r"[0-9A-Za-z_-]+", digest) is None:
            raise ValidationError(
                f"digest {digest!r} is not a file-name token ([0-9A-Za-z_-]+)"
            )
        return self.root / "objects" / digest[:2] / f"{digest}.json"

    def _paths(self) -> list[Path]:
        objects = self.root / "objects"
        return sorted(objects.glob("*/*.json")) if objects.is_dir() else []

    @staticmethod
    def _write(path: Path, text: str) -> None:
        # Write-then-rename: a reader (or a crash) never observes a
        # half-written file under its final name.
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".{path.stem}.{os.getpid()}.tmp"
        tmp.write_text(text, encoding="utf-8", newline="")
        tmp.replace(path)

    def _put(self, digest: str, text: str) -> bool:
        path = self._object_path(digest)
        if path.exists():
            return False
        self._write(path, text)
        return True

    def items_text(self) -> Iterator[tuple[str, str]]:
        """All ``(digest, payload_text)`` pairs, digest-ordered."""
        for path in self._paths():
            yield path.stem, path.read_text(encoding="utf-8")


class SpillJournal(_ObjectTree):
    """A local write-ahead journal of payloads the store never received.

    The object tree of :class:`repro.campaign.sync.DirectoryRemote`
    (that *is* the reuse: heal opens the journal as a directory remote),
    but its writes are their own injection site, so chaos schedules can
    tear a spill mid-write and prove heal quarantines the wreckage.
    """

    def spill(self, digest: str, payload_text: str) -> bool:
        """Journal one payload; ``False`` if the digest is already spilled.

        Append-only and content-addressed like the store itself: equal
        digests carry equal bytes, so the first spill wins and repeats
        are no-ops — a worker retrying a failed chunk cannot duplicate.
        """
        if FAULTS.enabled:
            payload_text = FAULTS.mangle("journal.spill-write", payload_text)
        spilled = self._put(digest, payload_text)
        if spilled and TELEMETRY.enabled:
            TELEMETRY.count("journal.spills")
        return spilled

    def digests(self) -> list[str]:
        """All spilled digests, sorted (stable)."""
        return [path.stem for path in self._paths()]

    def __len__(self) -> int:
        return len(self._paths())


def heal(store: ResultStore, journal: str | Path, strict: bool = False) -> SyncReport:
    """Replay a spill journal into ``store`` idempotently.

    :func:`repro.campaign.sync.pull` of the journal directory: valid
    entries merge (or skip, when a retry or another worker already
    landed them), torn entries quarantine with a reason, and the journal
    itself is never mutated — re-running heal is always safe, which is
    what makes an interrupted heal converge on retry.  A missing or
    empty journal heals to a clean no-op report.
    """
    from ..campaign.sync import pull

    return pull(store, f"{Path(journal)}{os.sep}", strict=strict)
