"""Campaign executor: one drain loop for serial, parallel and fabric runs.

Every campaign drain turns points into work the same way and runs the
same claim → evaluate → commit → release loop (:func:`_drain`) over it:

1. **Share records** — the points are cut into contiguous shares (one
   for an in-process drain) and :func:`_share_record` turns a share
   into its record and its pending work: the points' digests are
   probed in the store, one query per slice of digests, and
   already-computed points are skipped (this is both the resume path
   and the duplicate guard).  The digests come
   from the store's digest manifest when it holds a valid one for the
   spec (:func:`_manifest_digests`), so only pending points are
   materialized; otherwise every point is, and :func:`_settle` writes
   the manifest from the records.
2. **Order** — pending points are regrouped by
   :func:`~repro.engine.signature.topology_signature`, i.e. by model
   and replica counts, so random-assignment points with equal counts
   share a group (groups in first-seen order), while *preserving sweep
   order inside each group*.
   Grouping maximizes skeleton-cache hits and fills the lockstep
   groups, so each worker builds each topology's skeleton once (see
   ``benchmarks/bench_campaign.py``).
3. **Claim, evaluate, commit** — a worker walks the ordered list with a
   cursor, claims one window of digests at a time (by default one
   engine slab, :data:`~repro.engine.MAX_GROUP_ROWS` digests),
   materializes the points it claimed and evaluates the whole window
   with one :class:`~repro.engine.BatchEngine` call (each same-topology
   run is stamped into one ``(B, E)`` weight matrix and solved in
   lockstep by :func:`repro.maxplus.howard.solve_prepared_many`).  It
   then commits the results in ``commit_every`` slices, renewing its
   leases before each slice and releasing them after it.  A kill
   loses at most one claimed window of *evaluation*, never committed
   work.

:func:`run_campaign` runs that loop in-process, where the worker owns
the store and its leases are no-ops, or in ``k`` lease-coordinated
processes on the store's file (``n_jobs=k``, or any ``fault_plans``).
A whole forked drain spreads steps 1 and 2 over its workers: the
parent only expands the spec (and reads the manifest) and forks;
worker ``i`` of ``k`` inherits the points, publishes the record of
share ``i`` of spec order, drains its pending points and then steals
the other shares' leftovers, materializing a stolen point only when it
claims its digest.  After the join the parent builds the report and,
on a manifest miss, the manifest from the records.  A manifest that
shows nothing pending forks nothing.  A ``max_points`` drain and a
store-backed sweep derive their one share in the parent and hand
worker ``i`` the ``i``-th contiguous run of its engine-ordered work.
:func:`run_campaign_worker` joins from another host: it drains the
same one share, rotated by its worker id.

Every evaluation is a pure function of its point (Howard starts cold
on every solve), and stored payloads carry only values — so
interrupted, resumed, serial and parallel runs all export
byte-identical artifacts.

:func:`export_campaign_json` / :func:`export_campaign_csv` join the
(re-expanded) spec with the store and emit byte-deterministic files via
:func:`repro.experiments.io.canonical_json` conventions.  Like
:func:`campaign_status` they take row identity from the digest manifest
and never write one.
"""

from __future__ import annotations

import csv
import io
import json
import multiprocessing as mp
import os as _os
import random
import shutil
import sqlite3
import tempfile
import warnings
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from ..core.instance import Instance
from ..engine import MAX_GROUP_ROWS, BatchEngine, topology_signature
from ..errors import ValidationError
from ..faults import FAULTS, FaultPlan, SpillJournal, pause
from ..faults.journal import _ObjectTree
from ..petri.reduction import pattern_plan
from ..telemetry import TELEMETRY, write_trace
from ..utils import canonical_json
from .lease import DEFAULT_LEASE_TTL, LeaseManager
from .spec import CampaignPoint, CampaignSpec
from .store import (
    _IN_CHUNK,
    ResultStore,
    _instance_digests,
    instance_digest,
    manifest_key,
    payload_from_result,
)

__all__ = [
    "CampaignReport",
    "FabricReport",
    "run_campaign",
    "run_campaign_worker",
    "run_campaign_workers",
    "order_for_engine",
    "campaign_status",
    "campaign_rows",
    "export_campaign_json",
    "export_campaign_csv",
]

#: Checkpoint cadence (points per store commit).  Claims default to one
#: engine slab (:data:`~repro.engine.MAX_GROUP_ROWS` digests, whole
#: slices of this), evaluated in one call and committed slice by slice:
#: a kill loses at most one claimed window of evaluation, never
#: committed work, and a crashed worker strands at most one window
#: behind its lease TTL.
DEFAULT_COMMIT_EVERY = 32

#: Longest sleep between two polls while every pending digest is
#: leased by some other worker (seconds); the first sleep is
#: :data:`_FABRIC_POLL_FIRST` and each next one doubles up to this.
_FABRIC_POLL_SLEEP = 0.05

#: First sleep of a wait (seconds): a peer's last window usually lands
#: within a few milliseconds.
_FABRIC_POLL_FIRST = 0.001

#: One unit of drain work: ``(digest, point)``, the point anything with
#: ``instance()`` and ``model`` (a spec's point, or a :class:`_Given`
#: instance); :func:`_drain` materializes the points whose digests it claims.
_Work = tuple[str, Any]

#: Points of a stored digest manifest re-derived on every use.
_MANIFEST_SAMPLE = 16


@dataclass(frozen=True)
class CampaignReport:
    """Outcome of one :func:`run_campaign` drain, in-process or forked.

    Attributes
    ----------
    spec_name:
        The campaign.
    total:
        Points the spec expands to.
    hits:
        Points already in the store when the run started (resume skips).
    evaluated:
        Points computed (and stored) by this run.
    remaining:
        Points still missing afterwards — non-zero when the run was
        truncated by ``max_points`` or workers crashed; rerun to resume.
    groups:
        Distinct TPN topology groups among the points this run drained.
    workers:
        Worker processes launched; ``1`` for an in-process drain (so
        whenever nothing was pending before the drain, as far as the
        digest manifest shows).
    crashed:
        Indices of worker processes that did not exit cleanly (SIGKILL
        shows up here); their claimed-but-uncommitted points simply
        wait out the lease TTL and are reclaimed on the next run.
    """

    spec_name: str
    total: int
    hits: int
    evaluated: int
    remaining: int
    groups: int
    workers: int = 1
    crashed: tuple[int, ...] = ()

    @property
    def complete(self) -> bool:
        """Whether every point of the spec is now stored."""
        return self.remaining == 0

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready summary (the CLI's ``run --summary-json`` payload).

        Plain scalars only, so CI scripts can assert on parsed fields
        instead of grepping the human-formatted run summary.
        """
        return {
            "campaign": self.spec_name,
            "total": self.total,
            "hits": self.hits,
            "evaluated": self.evaluated,
            "remaining": self.remaining,
            "groups": self.groups,
            "workers": self.workers,
            "crashed": list(self.crashed),
            "complete": self.complete,
        }


#: The fabric's report is the campaign report: both drains run one loop.
FabricReport = CampaignReport


def order_for_engine(
    pairs: Sequence[tuple[Instance, str]]
) -> list[int]:
    """Engine-friendly evaluation order of ``(instance, model)`` pairs.

    Returns indices grouped by topology signature — groups in order of
    first appearance, original (sweep) order preserved *within* each
    group.  Stable and deterministic: a pure function of the input
    sequence.

    Examples
    --------
    >>> from repro import Application, Platform, Mapping, Instance
    >>> app = Application(works=[1, 1], file_sizes=[1])
    >>> plat = Platform.homogeneous(4)
    >>> a = Instance(app, plat, Mapping([(0,), (1,)]))
    >>> b = Instance(app, plat, Mapping([(0,), (1, 2)]))
    >>> order_for_engine([(a, "strict"), (b, "strict"), (a, "strict")])
    [0, 2, 1]
    """
    return [i for members in _topology_groups(pairs) for i in members]


def _topology_groups(pairs: Sequence[tuple[Instance, str]]) -> list[list[int]]:
    """The groups of :func:`order_for_engine`: indices per signature."""
    groups: dict[tuple[str, tuple[int, ...]], list[int]] = {}
    for i, (inst, model) in enumerate(pairs):
        groups.setdefault(topology_signature(inst, model), []).append(i)
    return list(groups.values())


def _point_digest(
    pt: CampaignPoint,
    objectives: tuple[str, ...],
    inst: Instance | None = None,
) -> str:
    """The store address of ``pt``'s result: its instance (``inst``, or
    materialized here) digested with its model."""
    if inst is None:
        inst = pt.instance()
    return instance_digest(inst, pt.model, objectives=objectives)


def _digests_of(points: Sequence[Any], objectives: tuple[str, ...]) -> list[str]:
    """The store addresses of ``points`` (anything with ``instance()``
    and ``model``), materialized and digested one slice of
    :data:`~repro.campaign.store._IN_CHUNK` at a time by the slice
    writer (:func:`~repro.campaign.store._instance_digests`)."""
    digests: list[str] = []
    for start in range(0, len(points), _IN_CHUNK):
        part = points[start: start + _IN_CHUNK]
        digests += _instance_digests([pt.instance() for pt in part],
                                     [pt.model for pt in part], objectives)
    return digests


def _count_manifest(hit: bool) -> None:
    TELEMETRY.count("store.manifest_hits" if hit else "store.manifest_misses")


def _manifest_sample(
    key: str, points: Sequence[CampaignPoint]
) -> list[int]:
    """Indices of the points a manifest use re-derives, ascending.

    One point of every grid cell — so an edit that changes how any one
    cell materializes is caught — topped up to ``min(16, n)`` points;
    the choice is seeded by the key's crc32, hence the same every time.
    ``points`` are :meth:`CampaignSpec.expand`'s, where each cell is
    one contiguous run of ``draws`` points (draws ``0 .. draws - 1``),
    so only the first point of a run is asked its cell.
    """
    rng = random.Random(zlib.crc32(key.encode()))
    draws = points[-1].draw + 1 if points else 1
    cells: dict[tuple[str, str, str, str], Sequence[int]] = {}
    for start in range(0, len(points), draws):
        run = range(start, start + draws)
        cell = points[start].cell
        cells[cell] = [*cells[cell], *run] if cell in cells else run
    chosen = {rng.choice(indices) for indices in cells.values()}
    rest = [i for i in range(len(points)) if i not in chosen]
    top_up = max(0, min(_MANIFEST_SAMPLE, len(points)) - len(chosen))
    return sorted(chosen.union(rng.sample(rest, top_up)))


def _manifest_digests(
    spec: CampaignSpec, store: ResultStore, points: Sequence[CampaignPoint]
) -> tuple[str, list[str] | None]:
    """``(key, digests)``: ``points``' digests from the stored manifest.

    ``digests`` is ``None`` — a miss — when ``store`` holds no manifest
    under ``key``, when it is not 32 bytes per point, or when a sampled
    point (:func:`_manifest_sample`) re-derives to a different digest.
    """
    key = manifest_key(spec)
    blob = store._manifest(key)
    if blob is None or len(blob) != 32 * len(points):
        return key, None
    digests = [blob[i: i + 32].hex() for i in range(0, len(blob), 32)]
    for i in _manifest_sample(key, points):
        if _point_digest(points[i], spec.objectives) != digests[i]:
            return key, None
    return key, digests


def _require_store(store: object) -> None:
    """Reject a ``store`` that is not a :class:`ResultStore` (a path
    string, say) before anything reads it."""
    if not isinstance(store, ResultStore):
        raise ValidationError(f"store must be a ResultStore, got "
                              f"{type(store).__name__}; open ResultStore(path)")


def _identified(
    spec: CampaignSpec, store: ResultStore
) -> list[tuple[CampaignPoint, str]]:
    """``(point, digest)`` of every point, in spec order: the row
    identity of status and exports, from the manifest when it holds."""
    _require_store(store)
    points = spec.expand()
    _, digests = _manifest_digests(spec, store, points)
    _count_manifest(digests is not None)
    if digests is None:
        digests = _digests_of(points, spec.objectives)
    return list(zip(points, digests))


def _unstored(
    store: ResultStore,
    points: Sequence[Any],
    digests: Sequence[str],
    objectives: tuple[str, ...] | None = None,
) -> dict[str, tuple[int, Instance]] | None:
    """The distinct unstored points: digest → ``(index, instance)``.

    The store is probed in one query per slice of digests
    (:meth:`ResultStore._stored`).  ``points`` are anything with
    ``instance()`` and ``model``; each unstored one is materialized
    here.  With ``objectives`` (digests from a manifest) it is also
    re-digested, and ``None`` is returned when one differs from its
    entry (a stale manifest).
    """
    stored = store._stored(digests)
    unique: dict[str, tuple[int, Instance]] = {}
    for i, (pt, digest) in enumerate(zip(points, digests)):
        if digest in unique or digest in stored:
            continue
        inst = pt.instance()
        if (objectives is not None
                and _point_digest(pt, objectives, inst) != digest):
            return None
        unique[digest] = (i, inst)
    return unique


def _rotated(work: list[_Work], offset: int) -> list[_Work]:
    """Stable stagger: the work list rotated to start at ``offset``.

    Standalone workers (:func:`run_campaign_worker`) each derive the
    whole list; rotating it by the crc of the worker id starts them
    claiming in different regions, which keeps claim contention rare
    while preserving signature-contiguous runs inside each claim, with
    no index assignment.
    """
    offset %= max(1, len(work))
    return work[offset:] + work[:offset]


class _LocalLease:
    """The lease protocol of a worker that owns its store alone.

    An in-process drain coordinates with nobody, so every claim
    succeeds and heartbeats, releases and sweeps are no-ops.
    """

    def claim(self, digests: Sequence[str]) -> list[str]:
        return list(digests)

    def renew(self, digests: Sequence[str]) -> int:
        return len(digests)

    def held(self) -> list[str]:
        return []

    def release(self, digests: Sequence[str]) -> int:
        return len(digests)

    def reclaim_stale(self) -> int:
        return 0

    def _poll(self, digests: Sequence[str]) -> tuple[list[str], bool, bool]:
        return list(digests), True, False


def _spill_chunk(
    store: ResultStore,
    spill_dir: str | Path,
    payloads: Sequence[tuple[str, str]],
) -> list[str]:
    """Degrade gracefully: journal a chunk the store would not take.

    The open transaction is rolled back (COMMIT already exhausted its
    retry budget) and every payload goes to the write-ahead journal;
    ``repro-workflow store heal`` replays it later, so journaled digests
    count as done and the worker keeps draining — per-worker progress
    instead of a dead campaign.  Returns the digests the journal did
    not take either; they stay pending for a later pass or run.
    """
    store.rollback()
    journal = SpillJournal(spill_dir)
    unjournaled: list[str] = []
    for digest, text in payloads:
        try:
            journal.spill(digest, text)
        except OSError:
            # The journal write itself failed (e.g. injected ENOSPC).
            unjournaled.append(digest)
    if TELEMETRY.enabled:
        TELEMETRY.count("fabric.spilled_chunks")
    return unjournaled


def _drain(
    store: ResultStore,
    work: Sequence[_Work],
    lease: LeaseManager | _LocalLease,
    *,
    max_rows: int,
    objectives: tuple[str, ...],
    claim_batch: int | None,
    commit_every: int,
    peers: int | None = None,
    progress: Callable[[int, int], None] | None = None,
    spill_dir: str | Path | None = None,
) -> int:
    """The claim → evaluate → commit → release loop of every drain.

    A cursor walks ``work`` once per pass and offers it to ``lease`` one
    window at a time (:func:`_claim_window`; ``peers`` forked workers
    share ``work``).  Only the points of claimed digests are
    materialized, so a digest another worker stores first costs no
    instance here.  What a claim skips — digests another worker stored
    or holds a live lease on — is deferred; at the end of the pass the
    deferred digests still missing from the store form the next pass.
    The loop never rescans the store: it costs one claim transaction per
    window plus, per pass, one existence query per slice of deferred
    digests.  A pass that
    claims nothing means every digest left is leased by some other live
    worker: the worker waits (:func:`_wait`), polling read-only with a
    sleep that starts at 1 ms and doubles up to 50 ms, until the holder
    stores them all, or releases one unstored, or lets a lease expire
    (the hung-worker watchdog sweeps the expired rows and the next pass
    takes them over).  So the last worker of a drain wakes within a
    few milliseconds of the last window landing.

    Each claimed window is evaluated with one engine call, so each
    same-topology run in it is one lockstep slab.  Its results are
    committed in ``commit_every`` slices: before each slice the held
    leases are renewed (the heartbeat), then the slice is committed and
    its leases released.  A kill loses at most the window's
    uncommitted evaluation, never committed work; a crashed worker
    strands at most one window behind its lease TTL.  Returns the
    number of new points stored.

    The loop carries the fabric's resilience ladder.  A heartbeat that
    comes back short (this worker stalled past its renewal deadline and
    lost leases to a takeover) drops the lost digests' results and
    defers the digests instead of double-committing blindly.  A commit
    that fails past the store's retry budget spills the slice's
    payloads to the ``spill_dir`` write-ahead journal (when given) and
    keeps draining.  The
    ``worker.after-claim``, ``worker.pre-release`` and
    ``worker.after-release`` fault sites mark the protocol barriers
    where a :mod:`repro.faults` plan may SIGKILL the process for real.
    """
    # Every drain starts from cold caches, the engine's and the
    # process-wide Theorem-1 pattern plans alike, so its diagnostic
    # counters (skeleton builds, Howard prepares) depend only on its work.
    pattern_plan.cache_clear()
    engine = BatchEngine(max_rows=max_rows)
    claim_batch = _claim_window(claim_batch, commit_every, len(work), peers)
    by_digest = dict(work)
    todo = list(by_digest)
    done_new = 0
    while todo:
        deferred: list[str] = []
        claimed_any = False
        for start in range(0, len(todo), claim_batch):
            window = todo[start: start + claim_batch]
            with TELEMETRY.span("claim"):
                claimed = lease.claim(window)
            if FAULTS.enabled:
                FAULTS.hit("worker.after-claim")
            if len(claimed) < len(window):
                taken = set(claimed)
                deferred.extend(d for d in window if d not in taken)
            if not claimed:
                continue
            claimed_any = True
            with TELEMETRY.span("evaluate", points=len(claimed)):
                instances = {d: by_digest[d].instance() for d in claimed}
                results = dict(zip(claimed, engine.evaluate(
                    list(instances.values()),
                    [by_digest[d].model for d in claimed],
                )))
            for first in range(0, len(claimed), commit_every):
                chunk = claimed[first: first + commit_every]
                tail = claimed[first:]
                if lease.renew(tail) < len(tail):
                    # This worker stalled past its renewal deadline and
                    # the watchdog handed (some of) its leases to someone
                    # else.  Committing them anyway would be harmless
                    # (content addressing absorbs duplicates), but the
                    # new holder owns them now: drop their results and
                    # keep only what is still ours.
                    held = set(lease.held())
                    lost = [d for d in chunk if d not in held]
                    if lost:
                        chunk = [d for d in chunk if d in held]
                        deferred.extend(lost)
                        if TELEMETRY.enabled:
                            TELEMETRY.count("fabric.lost_leases", len(lost))
                    if not chunk:
                        continue
                payloads = [
                    (digest,
                     canonical_json(
                         payload_from_result(instances[digest],
                                             results[digest],
                                             objectives=objectives)))
                    for digest in chunk
                ]
                with TELEMETRY.span("commit", points=len(chunk)):
                    try:
                        for digest, text in payloads:
                            store.put_text(digest, text, commit=False)
                        store.commit()
                    except (sqlite3.OperationalError, OSError):
                        if spill_dir is None:
                            raise
                        deferred.extend(
                            _spill_chunk(store, spill_dir, payloads))
                        continue
                    if FAULTS.enabled:
                        FAULTS.hit("worker.pre-release")
                    lease.release(chunk)
                if FAULTS.enabled:
                    FAULTS.hit("worker.after-release")
                done_new += len(chunk)
                if progress is not None:
                    progress(done_new, len(by_digest))
        stored = store._stored(deferred)
        todo = [d for d in deferred if d not in stored]
        if todo and not claimed_any:
            with TELEMETRY.span("wait"):
                todo = _wait(lease, todo)
    return done_new


def _wait(lease: LeaseManager | _LocalLease, todo: list[str]) -> list[str]:
    """Sleep until a claim over ``todo`` could take something; returns
    the digests of ``todo`` still unstored.

    Each poll is read-only (:meth:`LeaseManager._poll`), so waiting
    workers never queue for the store's write lock.  The sleeps start
    at :data:`_FABRIC_POLL_FIRST` and double up to
    :data:`_FABRIC_POLL_SLEEP`.  The wait ends when every digest is
    stored, when one has no lease (its holder released it without
    storing it), or when one's lease has expired by the lease's own
    clock: then expired rows are swept (the hung-worker watchdog,
    counted as ``fabric.stale_reclaimed``) for the next pass to claim.
    """
    delay = _FABRIC_POLL_FIRST
    while True:
        pause(delay)
        todo, free, expired = lease._poll(todo)
        if expired:
            swept = lease.reclaim_stale()
            if swept and TELEMETRY.enabled:
                TELEMETRY.count("fabric.stale_reclaimed", swept)
        if free or expired or not todo:
            return todo
        delay = min(2 * delay, _FABRIC_POLL_SLEEP)


@dataclass(frozen=True)
class _Given:
    """A point already materialized: the instance is given."""

    inst: Instance
    model: str

    def instance(self) -> Instance:
        return self.inst


@dataclass(frozen=True)
class _Shares:
    """The point indices a drain cuts into contiguous shares, one per
    worker (one share for a drain derived in a single process).

    ``points`` are anything with ``instance()`` and ``model`` (a spec's
    points, or :class:`_Given` work), inherited by forked workers;
    ``indices`` are those to drain.  ``digests`` are every point's
    digest when known beforehand: from a manifest, each pending point
    checked against its entry as on resume, or the parent's own
    (``trusted``); otherwise whoever takes a share derives them.
    """

    points: Sequence[Any]
    indices: Sequence[int]
    objectives: tuple[str, ...]
    digests: Sequence[str] | None
    trusted: bool
    workers: int

    def share(self, j: int) -> Sequence[int]:
        """Worker ``j``'s point indices: ``indices[j*m//k:(j+1)*m//k]``."""
        m = len(self.indices)
        return self.indices[j * m // self.workers:
                            (j + 1) * m // self.workers]


def _share_record(
    plan: _Shares, store: ResultStore, j: int, fresh: bool = False
) -> tuple[dict[str, Any], list[_Work]]:
    """Share ``j``'s record against the store as it is now, and its
    pending work in engine order.

    This is the one place points become drain work.  The record is
    plain JSON: ``digests`` (the share's, in share order), ``derived``
    (whether they were derived here rather than copied from
    ``plan.digests``) and ``groups``, one ``[model, counts, offsets]``
    per topology group of the distinct unstored digests, in engine
    order, with offsets into the share.  With known digests only
    unstored points are materialized; a stale manifest entry, or
    ``fresh``, derives every digest of the share instead.  Each work
    item carries the instance built here (:class:`_Given`).
    """
    share = plan.share(j)
    pts = [plan.points[i] for i in share]
    unique = None
    if plan.digests is not None and not fresh:
        digests = [plan.digests[i] for i in share]
        unique = _unstored(store, pts, digests,
                           None if plan.trusted else plan.objectives)
    derived = unique is None
    if unique is None:
        pts = [_Given(pt.instance(), pt.model) for pt in pts]
        digests = _digests_of(pts, plan.objectives)
        unique = _unstored(store, pts, digests)
        assert unique is not None  # derived digests are never stale
    pending = list(unique.values())
    groups: list[list[Any]] = []
    work: list[_Work] = []
    for run in _topology_groups([(inst, pts[i].model) for i, inst in pending]):
        members = [pending[m] for m in run]
        first, inst = members[0]
        groups.append([*topology_signature(inst, pts[first].model),
                       [i for i, _ in members]])
        work += [(digests[i], _Given(inst, pts[i].model)) for i, inst in members]
    return {"derived": derived, "digests": digests, "groups": groups}, work


def _published(board: str, j: int) -> dict[str, Any] | None:
    """Share ``j``'s record published under ``board``, or ``None`` while
    there is none."""
    try:
        text = _ObjectTree(board)._object_path(f"share-{j}").read_text(
            encoding="utf-8")
    except FileNotFoundError:
        return None
    record: dict[str, Any] = json.loads(text)
    return record


def _take(
    plan: _Shares, board: str, store: ResultStore, j: int
) -> list[_Work]:
    """Share ``j``'s unstored work in engine order, for this worker to drain.

    A share already published under ``board`` costs one store query per
    slice of its pending digests; its points stay unmaterialized until
    :func:`_drain` claims their digests, so what the owner commits
    meanwhile costs nothing here.  Otherwise this process derives the share
    (:func:`_share_record`) and publishes its record before draining
    it.  It never waits for another worker's record, so a share whose
    owner died before publishing is derived by whoever reaches it.
    """
    with TELEMETRY.span("expand", share=j):
        record = _published(board, j)
        if record is None:
            record, work = _share_record(plan, store, j)
            _ObjectTree(board)._put(f"share-{j}", canonical_json(record))
            return work
        share = plan.share(j)
        digests = record["digests"]
        offsets = [i for _, _, run in record["groups"] for i in run]
        stored = store._stored(digests[i] for i in offsets)
        return [(digests[i], plan.points[share[i]]) for i in offsets
                if digests[i] not in stored]


def _fabric_worker_main(
    plan: _Shares,
    board: str,
    worker_index: int,
    store_path: str,
    lease_ttl: float,
    fault_plan: FaultPlan | None,
    trace_dir: str | None,
    drain_options: dict[str, Any],
) -> None:
    """Subprocess entry point of a multi-process drain.

    Worker ``i`` takes share ``i`` of ``plan``, a contiguous run of the
    point indices the parent handed out (the points themselves are
    inherited, never re-expanded): it materializes and digests the
    share, publishes its record and drains its unstored points.  Then
    it steals: it takes every other share in turn from ``i + 1`` on and
    drains what is still unstored there, counted as ``fabric.stolen``;
    a stolen point is materialized only once its digest is claimed.
    Both drains are the one lease-coordinated loop, :func:`_drain`.

    Telemetry and fault-plane state are set unconditionally: forked
    workers inherit the parent's collector and plane (spans, counters,
    hit counts, enabled flags) and must start from a clean slate —
    telemetry enabled on a fresh per-worker collector when tracing, the
    plane armed with this worker's own :class:`~repro.faults.FaultPlan`
    when one is scheduled, both disabled otherwise.  Each tracing
    worker writes its own ``trace-worker-<i>.jsonl``;
    :func:`repro.telemetry.merge_traces` recombines them with the
    parent's ``trace-main.jsonl``.
    """
    if trace_dir is not None:
        TELEMETRY.enable(f"worker-{worker_index}")
    else:
        TELEMETRY.disable()
    if fault_plan is not None:
        FAULTS.arm(fault_plan)
    else:
        FAULTS.disarm()
    worker_id = f"fabric-{worker_index}-{_os.getpid()}"
    with ResultStore(store_path) as store:
        lease = LeaseManager(store, worker_id, ttl=lease_ttl)
        with TELEMETRY.span("worker-run", worker=worker_index):
            _drain(store, _take(plan, board, store, worker_index), lease,
                   **drain_options)
            stolen = [w for step in range(1, plan.workers)
                      for w in _take(plan, board, store,
                                     (worker_index + step) % plan.workers)]
            if stolen:
                n_stolen = _drain(store, stolen, lease, **drain_options)
                if TELEMETRY.enabled:
                    TELEMETRY.count("fabric.stolen", n_stolen)
    if trace_dir is not None:
        write_trace(
            Path(trace_dir) / f"trace-worker-{worker_index}.jsonl", TELEMETRY
        )


def _drain_options(
    store: ResultStore,
    n_jobs: int | None,
    max_rows: int,
    objectives: tuple[str, ...] = ("period",),
    claim_batch: int | None = None,
    commit_every: int = DEFAULT_COMMIT_EVERY,
    spill_dir: str | Path | None = None,
    fault_plans: Mapping[int, FaultPlan] | None = None,
    lease_ttl: float | None = None,
) -> tuple[int | None, dict[str, Any]]:
    """``(workers, options)`` of a drain on ``store``: the worker
    processes it may fork (``None``: it drains in this process) and the
    keyword arguments of :func:`_drain`.  Validates every argument
    before any work."""
    _require_store(store)
    if n_jobs is not None and n_jobs < 0:
        raise ValidationError(f"n_jobs must be None or >= 0, got {n_jobs}")
    if commit_every < 1:
        raise ValidationError(f"commit_every must be >= 1, got {commit_every}")
    if claim_batch is not None and claim_batch < 1:
        raise ValidationError(f"claim_batch must be >= 1, got {claim_batch}")
    jobs = (_os.cpu_count() or 1) if n_jobs == 0 else n_jobs or 1
    workers = jobs if jobs > 1 or fault_plans is not None else None
    if workers is None and lease_ttl is not None:
        raise ValidationError("lease_ttl needs worker processes (n_jobs > 1 "
                              "or fault_plans): in-process drains hold no leases")
    if workers is not None and store.path == ":memory:":
        raise ValidationError(
            "a multi-process drain needs a file-backed store; an "
            "in-memory store cannot be shared between processes"
        )
    return workers, {
        "max_rows": max_rows,
        "objectives": objectives,
        "claim_batch": claim_batch,
        "commit_every": commit_every,
        "spill_dir": None if spill_dir is None else str(spill_dir),
    }


def _claim_window(
    claim_batch: int | None,
    commit_every: int,
    n_work: int,
    workers: int | None,
) -> int:
    """Digests per claim of a drain over a list of ``n_work`` digests.

    An explicit ``claim_batch`` is used as given.  The default is one
    engine slab (:data:`~repro.engine.MAX_GROUP_ROWS` rows, evaluated
    in one call) rounded up to whole ``commit_every`` slices.  A forked
    worker (one of ``workers``) caps it at ``ceil(n_work / workers)``,
    where ``n_work`` is the list that drain walks: its own share's
    pending points, or the leftovers it steals.  Every worker may end
    up draining any share, so one claim cannot take a whole small list
    while the others wait.
    """
    if claim_batch is not None:
        return claim_batch
    window = -(-MAX_GROUP_ROWS // commit_every) * commit_every
    if workers is not None:
        window = min(window, max(1, -(-n_work // workers)))
    return window


def _fork(
    store: ResultStore,
    plan: _Shares,
    drain_options: dict[str, Any],
    lease_ttl: float,
    fault_plans: Mapping[int, FaultPlan] | None,
    trace_dir: str | None,
) -> tuple[list[dict[str, Any] | None], tuple[int, ...]]:
    """Fork one worker per share of ``plan`` and join them.

    Returns the share records the workers published (``None`` for a
    share nobody published) and the indices of workers that did not
    exit cleanly.  The workers coordinate **only** through the store
    file's lease table and the records they publish in a temporary
    directory.  The parent's connection stays open and idle (pending
    writes committed first), so the lock state the workers inherit is
    backed by locks the parent really holds.
    """
    store.commit()
    ctx = mp.get_context()
    board = tempfile.mkdtemp(prefix="repro-shares-")
    try:
        with TELEMETRY.span("prepare"):
            procs = [
                ctx.Process(
                    target=_fabric_worker_main,
                    args=(plan, board, i, store.path, lease_ttl,
                          None if fault_plans is None else fault_plans.get(i),
                          trace_dir, dict(drain_options, peers=plan.workers)),
                )
                for i in range(plan.workers)
            ]
            for proc in procs:
                proc.start()
        # One parent-side span per worker join: together the join spans
        # tile the drain phase (span i ends when worker i exits, span
        # i+1 starts immediately), so the root campaign span's time is
        # attributed to named children even though the parent only waits.
        for i, proc in enumerate(procs):
            with TELEMETRY.span("worker", worker=i):
                proc.join()
    finally:
        # The parent's own work after the join, a named phase: once the
        # workers wake promptly it is a visible share of a small drain.
        with TELEMETRY.span("assemble"):
            records = [_published(board, j) for j in range(plan.workers)]
            shutil.rmtree(board, ignore_errors=True)
    return records, tuple(
        i for i, proc in enumerate(procs) if proc.exitcode != 0)


def _expanded(
    spec: CampaignSpec, store: ResultStore, workers: int
) -> tuple[_Shares, str]:
    """``spec``'s plan of ``workers`` shares of spec order, carrying the
    stored manifest's digests when it holds, and its manifest key."""
    points = spec.expand()
    key, manifest = _manifest_digests(spec, store, points)
    return (_Shares(points, range(len(points)), spec.objectives, manifest,
                    False, workers), key)


def _settle(
    plan: _Shares,
    store: ResultStore,
    key: str,
    records: Sequence[dict[str, Any] | None],
) -> dict[str, tuple[str, tuple[int, ...]]]:
    """The one manifest writer: the pending digests of ``plan``'s share
    ``records``, each mapped to its topology signature, in record order.

    A share without a record (its worker died before publishing) is
    derived here.  On a manifest miss — ``plan`` carried none, or some
    share re-derived its digests — the manifest is written in spec
    order, after re-deriving every share whose record was copied from
    a stale manifest, so the blob is the same whatever the number of
    shares.  Counts one ``store.manifest_hits`` or
    ``store.manifest_misses``.
    """
    filled = []
    for j, record in enumerate(records):
        if record is None:
            with TELEMETRY.span("expand", share=j):
                record = _share_record(plan, store, j)[0]
        filled.append(record)
    hit = plan.digests is not None and not any(r["derived"] for r in filled)
    _count_manifest(hit)
    if not hit:
        parts = []
        for j, record in enumerate(filled):
            if not record["derived"]:  # copied from a stale manifest
                with TELEMETRY.span("expand", share=j):
                    record = _share_record(plan, store, j, fresh=True)[0]
            parts.append(b"".join(
                bytes.fromhex(d) for d in record["digests"]))
        store._put_manifest(key, b"".join(parts))
    return {
        r["digests"][i]: (model, tuple(counts))
        for r in filled for model, counts, offsets in r["groups"]
        for i in offsets
    }


def _local_work(
    spec: CampaignSpec, store: ResultStore
) -> tuple[int, dict[str, tuple[str, tuple[int, ...]]], list[_Work]]:
    """``spec`` as share 0 of a one-share plan, derived in this process:
    ``(total, pending, work)``, ``pending`` (:func:`_settle`) and
    ``work`` in engine order.

    Every worker given the same store state derives the *same* list, so
    standalone workers need no coordinator.  A manifest miss writes the
    manifest before any of it is drained, even when ``max_points`` then
    truncates the drain.
    """
    with TELEMETRY.span("expand"):
        plan, key = _expanded(spec, store, 1)
        record, work = _share_record(plan, store, 0)
        return len(plan.points), _settle(plan, store, key, [record]), work


def _drain_local(
    store: ResultStore,
    work: list[_Work],
    workers: int | None,
    drain_options: dict[str, Any],
    progress: Callable[[int, int], None] | None = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    fault_plans: Mapping[int, FaultPlan] | None = None,
    trace_dir: str | None = None,
) -> tuple[int, int, tuple[int, ...]]:
    """Drain ``work`` this process derived (:func:`_share_record`):
    ``(evaluated, workers launched, crashed)``.

    With ``workers`` ``None``, or nothing pending, this process drains
    and its leases are no-ops.  Otherwise :func:`_fork` hands worker
    ``j`` the ``j``-th contiguous run of the engine-ordered ``work``,
    whose instances and digests it inherits, so topology groups stay
    contiguous.
    """
    if workers is None or not work:
        return (_drain(store, work, _LocalLease(), progress=progress,
                       **drain_options), 1, ())
    digests, points = zip(*work)
    plan = _Shares(points, range(len(work)), drain_options["objectives"],
                   digests, True, workers)
    crashed = _fork(store, plan, drain_options, lease_ttl, fault_plans,
                    trace_dir)[1]
    stored = store._stored(digest for digest, _ in work)
    evaluated = sum(1 for digest, _ in work if digest in stored)
    if progress is not None:
        progress(evaluated, len(work))
    return evaluated, workers, crashed


def _fork_campaign(
    spec: CampaignSpec,
    store: ResultStore,
    workers: int,
    drain_options: dict[str, Any],
    progress: Callable[[int, int], None] | None,
    lease_ttl: float,
    fault_plans: Mapping[int, FaultPlan] | None,
    trace_dir: str | None,
) -> tuple[int, dict[str, tuple[str, tuple[int, ...]]], int, int,
           tuple[int, ...]]:
    """The forked drain of all of ``spec``: ``(total, pending,
    evaluated, workers launched, crashed)``.

    This process only expands the spec, reads the digest manifest (its
    check sample included) and forks; worker ``i`` materializes and
    digests share ``i`` of spec order (:func:`_fabric_worker_main`).
    After the join the share records give the report and, on a manifest
    miss, the manifest (:func:`_settle`).  A manifest that shows nothing
    pending forks nothing.
    """
    with TELEMETRY.span("expand"):
        plan, key = _expanded(spec, store, workers)
    if plan.digests is not None:
        stored = store._stored(plan.digests)
        if all(d in stored for d in plan.digests):
            _count_manifest(True)
            return len(plan.points), {}, 0, 1, ()
    published, crashed = _fork(store, plan, drain_options, lease_ttl,
                               fault_plans, trace_dir)
    with TELEMETRY.span("assemble"):
        # A worker probed a share before committing from it, so every
        # digest this run stored is pending in some record.
        pending = _settle(plan, store, key, published)
        stored = store._stored(pending)
        evaluated = sum(1 for digest in pending if digest in stored)
    if progress is not None:
        progress(evaluated, len(pending))
    return len(plan.points), pending, evaluated, workers, crashed


def run_campaign(
    spec: CampaignSpec,
    store: ResultStore,
    n_jobs: int | None = None,
    max_points: int | None = None,
    commit_every: int = DEFAULT_COMMIT_EVERY,
    progress: Callable[[int, int], None] | None = None,
    trace_dir: str | Path | None = None,
    *,
    lease_ttl: float | None = None,
    claim_batch: int | None = None,
    fault_plans: Mapping[int, FaultPlan] | None = None,
    spill_dir: str | Path | None = None,
) -> CampaignReport:
    """Run (or resume) a campaign against a content-addressed store.

    The spec expands once, in this process, and is cut into contiguous
    shares, each turned into a record and pending work the same way.
    In-process, the whole spec is one share, drained here.  Otherwise
    worker processes coordinate **only** through the store's lease
    table — the multi-host model on one machine: each materializes and
    digests its own share, drains it and then steals the other shares'
    leftovers.  This process builds the report and the digest manifest
    from the records.  A crashed worker strands nothing: its leases
    expire and the survivors (or the next run) absorb its work.  Stored
    values, the manifest and so every export are byte-identical
    whatever the worker count.

    Parameters
    ----------
    spec:
        The campaign to drain.
    store:
        Result store; points whose digest is already present are never
        re-evaluated, which is both the resume path and the cross-run
        dedupe.
    n_jobs:
        ``None``/``1`` — drain in this process, which holds no leases;
        ``k > 1`` — ``k`` lease-coordinated worker processes on the
        store's file (``0`` = one per core; needs a file-backed store).
    max_points:
        Evaluate at most this many *new* points, then stop with
        ``remaining > 0`` — a deterministic stand-in for an interrupted
        run (used by tests and the CI resume smoke).  This process
        derives the whole spec as one share and keeps the first
        ``max_points`` of its pending points in engine order; worker
        processes each get a contiguous run of them.
    commit_every:
        Checkpoint cadence: points per store commit.
    progress:
        Optional ``callback(done_new_points, pending_total)``, called
        after every commit in-process and once when worker processes
        finish.
    trace_dir:
        Enable :mod:`repro.telemetry` on a fresh collector and write a
        ``trace-main.jsonl`` canonical trace (counters + spans) into
        this directory when done, plus one ``trace-worker-<i>.jsonl``
        per worker process (:func:`repro.telemetry.merge_traces`
        recombines them).  ``None`` leaves the collector's enabled
        state alone, so callers may also enable/inspect telemetry of
        an in-process drain themselves.
    lease_ttl:
        Lease lifetime of worker processes (seconds); raises
        :class:`~repro.errors.ValidationError` on an in-process drain.
    claim_batch:
        Digests per claim, each claim evaluated in one engine call
        (default: one engine slab in whole ``commit_every`` slices; a
        forked worker takes at most ``ceil(m / k)`` of a list of ``m``
        it drains — its share's pending points, or the leftovers it
        steals).
    fault_plans:
        Worker index → :class:`~repro.faults.FaultPlan`, armed inside
        that worker's process (the chaos-soak entry point).  Given
        plans always fork, one worker at ``n_jobs=1``, so a planned
        SIGKILL never reaches the caller.
    spill_dir:
        Journal a worker spills a slice to when the store stays
        unreachable past its retry budget (``store heal`` replays it).
    """
    workers, drain_options = _drain_options(
        store, n_jobs, spec.max_paths + 1, spec.objectives, claim_batch,
        commit_every, spill_dir, fault_plans, lease_ttl)
    if max_points is not None and max_points < 0:
        raise ValidationError(f"max_points must be >= 0, got {max_points}")
    trace_arg = None if trace_dir is None else str(trace_dir)
    if trace_arg is not None:
        Path(trace_arg).mkdir(parents=True, exist_ok=True)
        TELEMETRY.enable("main")

    ttl = DEFAULT_LEASE_TTL if lease_ttl is None else lease_ttl
    try:
        with TELEMETRY.span("campaign", campaign=spec.name):
            if workers is None or max_points is not None:
                total, pending, work = _local_work(spec, store)
                evaluated, launched, crashed = _drain_local(
                    store, work[:max_points], workers, drain_options,
                    progress, ttl, fault_plans, trace_arg)
                touched = list(pending.values())[:max_points]
            else:
                total, pending, evaluated, launched, crashed = (
                    _fork_campaign(spec, store, workers, drain_options,
                                   progress, ttl, fault_plans, trace_arg))
                touched = list(pending.values())
        report = CampaignReport(
            spec_name=spec.name,
            total=total,
            hits=total - len(pending),
            evaluated=evaluated,
            remaining=len(pending) - evaluated,
            groups=len(set(touched)),
            workers=launched,
            crashed=crashed,
        )
        if trace_arg is not None:
            write_trace(Path(trace_arg) / "trace-main.jsonl", TELEMETRY)
    finally:
        if trace_arg is not None:
            TELEMETRY.disable()
    return report


def run_campaign_worker(
    spec: CampaignSpec,
    store: ResultStore,
    worker_id: str,
    lease_ttl: float | None = None,
    claim_batch: int | None = None,
    commit_every: int = DEFAULT_COMMIT_EVERY,
    progress: Callable[[int, int], None] | None = None,
    spill_dir: str | Path | None = None,
) -> int:
    """Drain one campaign as a lease-coordinated fabric worker.

    Any number of processes — on one host or many, sharing the store
    file or a synced copy — can run this concurrently against one
    ``CampaignSpec`` and partition the work without duplicates: each
    derives the spec as one share, as an in-process drain does (the
    engine-ordered list of unstored digests, writing a missing digest
    manifest), rotates it by a stable per-worker offset so workers
    start claiming in different regions, and runs the drain loop with
    a real
    :class:`~repro.campaign.lease.LeaseManager` (claims of
    ``claim_batch`` digests, default one engine slab of
    :data:`~repro.engine.MAX_GROUP_ROWS` rounded up to whole
    ``commit_every`` slices; stale leases of crashed workers are
    reclaimed by the same transaction).

    Returns the number of new points this worker stored.  Crash-safe at
    every boundary: a SIGKILL loses only the current window's
    uncommitted evaluation, whose leases expire and free the points
    for everyone else.  A commit failing past the store's retry budget
    spills to the ``spill_dir`` journal (when given); ``store heal``
    replays it.
    """
    _, drain_options = _drain_options(store, None, spec.max_paths + 1,
                                      spec.objectives, claim_batch,
                                      commit_every, spill_dir)
    _, _, work = _local_work(spec, store)
    lease = LeaseManager(
        store, worker_id,
        ttl=DEFAULT_LEASE_TTL if lease_ttl is None else lease_ttl,
    )
    return _drain(
        store, _rotated(work, zlib.crc32(worker_id.encode())), lease,
        progress=progress, **drain_options,
    )


def run_campaign_workers(
    spec: CampaignSpec,
    store_path: str | Path,
    workers: int,
    lease_ttl: float | None = None,
    claim_batch: int | None = None,
    commit_every: int = DEFAULT_COMMIT_EVERY,
    fault_plans: Mapping[int, FaultPlan] | None = None,
    spill_dir: str | Path | None = None,
    trace_dir: str | Path | None = None,
) -> CampaignReport:
    """Deprecated alias of :func:`run_campaign` on ``ResultStore(store_path)``
    with ``n_jobs=workers``; removed in 4.0.

    ``workers=1`` without ``fault_plans`` now drains in-process, which
    holds no leases, so ``lease_ttl`` is dropped there.
    """
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    warnings.warn(
        "run_campaign_workers(spec, store_path, workers=k) is deprecated "
        "and will be removed in 4.0; use run_campaign(spec, "
        "ResultStore(store_path), n_jobs=k)",
        DeprecationWarning, stacklevel=2,
    )
    in_process = workers == 1 and fault_plans is None
    with ResultStore(store_path) as store:
        return run_campaign(
            spec, store, n_jobs=workers, commit_every=commit_every,
            trace_dir=trace_dir,
            lease_ttl=None if in_process else lease_ttl,
            claim_batch=claim_batch, fault_plans=fault_plans,
            spill_dir=spill_dir,
        )

# ----------------------------------------------------------------------
# status and exports
# ----------------------------------------------------------------------
def campaign_rows(
    spec: CampaignSpec, store: ResultStore
) -> tuple[list[dict[str, Any]], list[CampaignPoint]]:
    """Join the expanded spec with the store.

    Returns ``(rows, missing)``: one plain-data row per stored point in
    spec order (point identity + payload values), plus the points whose
    results are not stored yet.  A row's keys come in a fixed order:
    the point identity (``point`` … ``digest``), then the payload's
    keys in their stored (sorted) order, without ``schema`` and
    ``model``, and with the payload's counts vector renamed
    ``replication_counts``.  Payloads are read and parsed one query and
    one ``json.loads`` per slice of digests
    (:meth:`ResultStore._payloads`).
    """
    rows: list[dict[str, Any]] = []
    missing: list[CampaignPoint] = []
    identified = _identified(spec, store)
    payloads = store._payloads([digest for _, digest in identified])
    for (pt, digest), payload in zip(identified, payloads):
        if payload is None:
            missing.append(pt)
            continue
        row = {
            "point": pt.index, "application": pt.application.label,
            "platform": pt.platform.label,
            "replication": pt.replication.label, "model": pt.model,
            "draw": pt.draw, "seed": pt.seed, "digest": digest,
        }
        # "replication" in a payload means the counts vector; the row's
        # "replication" is the axis label, so the counts get their own key.
        row.update(
            ("replication_counts" if k == "replication" else k, v)
            for k, v in payload.items() if k not in ("schema", "model")
        )
        rows.append(row)
    return rows, missing


def campaign_status(spec: CampaignSpec, store: ResultStore) -> dict[str, Any]:
    """Progress summary: total/done/pending plus per-cell done counts.

    ``"skipped"`` lists the (application, platform, replication) cells
    :meth:`CampaignSpec.expand` excludes, each with its
    :meth:`~repro.campaign.spec.ReplicationAxis.infeasibility` reason.
    """
    identified = _identified(spec, store)
    present = store._stored(digest for _, digest in identified)
    stored: dict[tuple[str, str, str, str], list[bool]] = {}
    for pt, digest in identified:
        stored.setdefault(pt.cell, []).append(digest in present)
    total = sum(len(flags) for flags in stored.values())
    done = sum(sum(flags) for flags in stored.values())
    return {
        "campaign": spec.name,
        "total": total,
        "done": done,
        "pending": total - done,
        "cells": [
            {
                "application": cell[0], "platform": cell[1],
                "replication": cell[2], "model": cell[3],
                "done": sum(flags), "total": len(flags),
            }
            for cell, flags in stored.items()
        ],
        "skipped": _skipped_cells(spec),
    }


def _skipped_cells(spec: CampaignSpec) -> list[dict[str, str]]:
    """The cells :meth:`CampaignSpec.expand` excludes, with the
    :meth:`~repro.campaign.spec.ReplicationAxis.infeasibility` reason
    of each (spec order)."""
    return [
        {"application": app.label, "platform": plat.label,
         "replication": repl.label, "reason": reason}
        for app in spec.applications
        for plat in spec.platforms
        for repl in spec.replications
        if (reason := repl.infeasibility(app.application().n_stages,
                                         plat.n_procs, spec.max_paths))
    ]


def _require_complete(
    missing: list[CampaignPoint], allow_partial: bool
) -> None:
    if missing and not allow_partial:
        raise ValidationError(
            f"campaign export is missing {len(missing)} of its points "
            f"(first missing point index {missing[0].index}); run the "
            f"campaign to completion or pass allow_partial=True"
        )


def export_campaign_json(
    spec: CampaignSpec,
    store: ResultStore,
    path: str | Path | None = None,
    allow_partial: bool = False,
) -> str:
    """Byte-deterministic JSON artifact of a campaign; writes ``path``.

    The payload embeds the spec itself (sorted keys), so an artifact is
    self-describing and reproducible from its own bytes.
    """
    rows, missing = campaign_rows(spec, store)
    _require_complete(missing, allow_partial)
    text = canonical_json(
        {"campaign": spec.name, "spec": spec.to_dict(), "rows": rows},
        indent=2,
    ) + "\n"
    if path is not None:
        Path(path).write_text(text, encoding="utf-8", newline="")
    return text


#: Fixed CSV column order (point identity, then payload values).
_CSV_COLUMNS = [
    "point", "application", "platform", "replication", "model", "draw",
    "seed", "digest", "method", "n_stages", "n_procs", "replication_counts",
    "m", "period", "mct", "critical", "gap",
]


def export_campaign_csv(
    spec: CampaignSpec,
    store: ResultStore,
    path: str | Path | None = None,
    allow_partial: bool = False,
) -> str:
    """Byte-deterministic CSV artifact (``repr`` floats, ``\\n`` rows).

    Multi-objective specs append one column per extra objective
    (``latency`` / ``reliability``) after the period columns; the
    period-only header and bytes are unchanged.
    """
    rows, missing = campaign_rows(spec, store)
    _require_complete(missing, allow_partial)
    extra = [name for name in spec.objectives if name != "period"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS + extra)
    for row in rows:
        writer.writerow([
            row["point"], row["application"], row["platform"],
            row["replication"], row["model"], row["draw"], row["seed"],
            row["digest"], row["method"], row["n_stages"], row["n_procs"],
            " ".join(str(c) for c in row["replication_counts"]),
            row["m"], repr(row["period"]), repr(row["mct"]),
            int(row["critical"]), repr(row["gap"]),
        ] + [repr(float(row[name])) for name in extra])
    text = buf.getvalue()
    if path is not None:
        Path(path).write_text(text, encoding="utf-8", newline="")
    return text
