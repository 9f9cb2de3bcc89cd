"""Crash-injection tests: SIGKILL fabric workers at protocol barriers.

Workers are *actually* killed (``os.kill(SIGKILL)`` from inside the
worker, fired by the :mod:`repro.faults` plane) at the protocol's three
barriers — right after a claim transaction, after the result commit but
before the lease release, and after the release — the
``worker.after-claim`` / ``worker.pre-release`` / ``worker.after-release``
injection sites.  The contract under test: stale leases are reclaimed,
the campaign completes on resume, and the final result set is
byte-identical to an uninterrupted run — zero lost and zero duplicated
results across 20 randomized kill schedules, every schedule expressed
as a replayable per-worker :class:`~repro.faults.FaultPlan`.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.campaign import (
    CampaignSpec,
    LeaseManager,
    ResultStore,
    export_campaign_json,
    instance_digest,
    run_campaign,
    run_campaign_worker,
)
from repro.campaign.store import manifest_key
from repro.faults import FaultPlan
from repro.telemetry import merge_traces, trace_files

SPEC_DICT = {
    "name": "crash-test",
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

#: Lease TTL for crash runs: long enough that live workers never lose a
#: lease mid-chunk, short enough that a dead worker's claims free up
#: within one test's patience.
_TTL = 0.3

_KILL_SITES = (
    "worker.after-claim",
    "worker.pre-release",
    "worker.after-release",
)


def _kill_plan(site: str, at: int) -> FaultPlan:
    """A plan that SIGKILLs the worker at its ``at``-th pass of ``site``."""
    return FaultPlan.single(site, "sigkill", at=at)


@pytest.fixture(scope="module")
def spec():
    return CampaignSpec.from_dict(SPEC_DICT)


@pytest.fixture(scope="module")
def reference(spec, tmp_path_factory):
    """The uninterrupted run every crashy run must reproduce exactly."""
    path = tmp_path_factory.mktemp("ref") / "ref.sqlite"
    with ResultStore(path) as store:
        run_campaign(spec, store)
        return set(store.digests()), export_campaign_json(spec, store)


def _drain_with_resume(spec, path, first_report, max_resumes=6):
    """Re-launch clean fabrics until the campaign completes."""
    report = first_report
    for _ in range(max_resumes):
        if report.complete:
            return report
        # Give killed workers' leases a moment to expire so the resume
        # spends its time evaluating, not polling.
        time.sleep(_TTL)
        with ResultStore(path) as store:
            report = run_campaign(spec, store, n_jobs=2, lease_ttl=_TTL)
    return report


class TestKillSchedules:
    @pytest.mark.parametrize("schedule", range(20))
    def test_randomized_kill_schedule(self, schedule, spec, reference,
                                      tmp_path):
        """20 seeded schedules over (worker count, kill site, trigger
        count, claim batch): always completes, never loses or
        duplicates a result."""
        rng = random.Random(20090302 + schedule)
        workers = rng.choice([1, 2, 3])
        plans = {
            w: _kill_plan(rng.choice(_KILL_SITES), rng.randint(1, 3))
            for w in range(workers) if rng.random() < 0.8
        }
        if not plans:  # every schedule kills at least one worker
            plans[rng.randrange(workers)] = _kill_plan(
                rng.choice(_KILL_SITES), 1
            )

        path = tmp_path / "crash.sqlite"
        with ResultStore(path) as store:
            first = run_campaign(
                spec, store, n_jobs=workers, lease_ttl=_TTL,
                claim_batch=rng.choice([2, 4, 16]),
                commit_every=rng.choice([2, 32]),
                fault_plans=plans,
            )
        # Only faulted workers can crash; a plan whose trigger count
        # exceeds the worker's site passes simply never fires (still a
        # valid schedule — the worker drained its share and exited
        # cleanly).
        assert set(first.crashed) <= set(plans)
        report = _drain_with_resume(spec, path, first)
        assert report.complete

        ref_digests, ref_json = reference
        with ResultStore(path) as store:
            # zero lost, zero duplicated: exact digest-set equality (the
            # digest PRIMARY KEY already makes row-level duplicates
            # impossible), byte-identical export.
            assert set(store.digests()) == ref_digests
            assert len(store) == len(ref_digests)
            assert export_campaign_json(spec, store) == ref_json


class TestStealing:
    def test_survivor_drains_a_killed_workers_share(self, spec, reference,
                                                    tmp_path):
        """Worker 0 dies on its first claim, after publishing its share:
        worker 1 drains its own share, then steals all of share 0 (the
        corpse's claimed window once its leases go stale), and the
        parent writes the full manifest from the two share records."""
        points = spec.expand()
        digests = [instance_digest(pt.instance(), pt.model) for pt in points]
        half = len(points) // 2
        path = tmp_path / "steal.sqlite"
        with ResultStore(path) as store:
            first = run_campaign(
                spec, store, n_jobs=2, lease_ttl=_TTL,
                fault_plans={0: _kill_plan("worker.after-claim", 1)},
                trace_dir=tmp_path / "trace",
            )
            assert first.crashed == (0,)
            assert (first.hits, first.remaining) == (0, 0)
            assert first.evaluated == len(set(digests))
            assert store._manifest(manifest_key(spec)) == b"".join(
                bytes.fromhex(d) for d in digests)
        counters = merge_traces(trace_files(tmp_path / "trace"))["counters"]
        assert counters["fabric.stolen"] == len(
            set(digests[:half]) - set(digests[half:]))
        report = _drain_with_resume(spec, path, first)
        assert report.complete
        ref_digests, ref_json = reference
        with ResultStore(path) as store:
            assert set(store.digests()) == ref_digests
            assert len(store) == len(ref_digests)
            assert export_campaign_json(spec, store) == ref_json

    def test_a_steal_pass_over_a_leased_share_materializes_nothing(
            self, spec, tmp_path, monkeypatch):
        """Stealing a share whose pending digests a live worker holds
        costs a probe per digest and no instance: the thief's claims
        skip them all, it waits, and their owner commits them."""
        from repro.campaign import CampaignPoint, executor

        with ResultStore(tmp_path / "ref.sqlite") as ref:
            run_campaign(spec, ref)
            texts = dict(ref.items_text())
        points = spec.expand()
        plan = executor._Shares(points, range(len(points)), spec.objectives,
                                None, False, 2)
        board = str(tmp_path / "board")
        with ResultStore(tmp_path / "steal.sqlite") as store:
            # share 1's owner publishes its record and claims its window
            owned = [d for d, *_ in executor._take(plan, board, store, 1)]
            owner = LeaseManager(store, "owner", ttl=3600.0)
            assert owned and owner.claim(owned) == owned

            def owner_commits(seconds: float) -> None:
                for digest in owned:
                    store.put_text(digest, texts[digest], commit=False)
                store.commit()
                owner.release(owned)

            calls: list[int] = []
            instance = CampaignPoint.instance

            def counted(point):
                calls.append(point.index)
                return instance(point)

            monkeypatch.setattr(executor, "pause", owner_commits)
            monkeypatch.setattr(CampaignPoint, "instance", counted)
            thief = LeaseManager(store, "thief", ttl=3600.0)
            stolen = executor._take(plan, board, store, 1)
            assert [d for d, *_ in stolen] == owned
            stored = executor._drain(
                store, stolen, thief, max_rows=spec.max_paths + 1,
                objectives=spec.objectives, claim_batch=None,
                commit_every=32, peers=2)
            assert stored == 0
            assert all(digest in store for digest in owned)
        assert calls == []


class TestStaleLeaseReclamation:
    def test_killed_workers_leases_expire_and_are_reclaimed(self, spec,
                                                            tmp_path):
        """A worker killed right after claiming strands its claims only
        until the TTL; the next lease-holding worker takes them over and
        completes."""
        path = tmp_path / "stranded.sqlite"
        with ResultStore(path) as store:
            first = run_campaign(
                spec, store, lease_ttl=_TTL,
                fault_plans={0: _kill_plan("worker.after-claim", 1)},
            )
            assert first.crashed == (0,)
            assert not first.complete  # died before storing anything
            held = store.connection.execute(
                "SELECT COUNT(*) FROM leases"
            ).fetchone()[0]
            assert held > 0  # the corpse's claims are still on file
            time.sleep(_TTL * 1.1)
            assert run_campaign_worker(spec, store, "next",
                                       lease_ttl=_TTL) == first.remaining
            assert not store.connection.execute(
                "SELECT COUNT(*) FROM leases").fetchone()[0]

    def test_pre_release_crash_keeps_committed_results(self, spec, tmp_path):
        """Killed between commit and release: results survive, and their
        leftover lease rows never block completion (claims skip DONE)."""
        path = tmp_path / "prerelease.sqlite"
        with ResultStore(path) as store:
            first = run_campaign(
                spec, store, lease_ttl=_TTL, claim_batch=4, commit_every=4,
                fault_plans={0: _kill_plan("worker.pre-release", 1)},
            )
        assert first.crashed == (0,)
        assert first.evaluated > 0  # the chunk was committed before death
        report = _drain_with_resume(spec, path, first)
        assert report.complete
        # Resume reused every committed point instead of recomputing.
        assert report.hits >= first.evaluated

    def test_pre_release_crash_mid_window_resumes_exactly(
            self, spec, reference, tmp_path):
        """Killed after committing the first slice of a multi-slice
        window: that slice survives, the rest of the window's leases
        expire, and the resumed store equals the uninterrupted one."""
        path = tmp_path / "midwindow.sqlite"
        with ResultStore(path) as store:
            first = run_campaign(
                spec, store, lease_ttl=_TTL, commit_every=4,
                fault_plans={0: _kill_plan("worker.pre-release", 1)},
            )
        assert first.crashed == (0,)
        # One window held the whole list and every lease in it is still
        # on file; only the window's first slice was committed.
        pending = first.total - first.hits
        with ResultStore(path) as store:
            held = store.connection.execute(
                "SELECT COUNT(*) FROM leases").fetchone()[0]
        assert held == pending > first.evaluated == 4
        report = _drain_with_resume(spec, path, first)
        assert report.complete
        assert report.hits >= first.evaluated
        ref_digests, ref_json = reference
        with ResultStore(path) as store:
            assert set(store.digests()) == ref_digests
            assert len(store) == len(ref_digests)
            assert export_campaign_json(spec, store) == ref_json

    def test_reclaim_stale_sweeps_expired_rows(self, tmp_path):
        with ResultStore(tmp_path / "sweep.sqlite") as store:
            t = 0.0
            mgr = LeaseManager(store, "w", ttl=10.0, clock=lambda: t)
            assert mgr.claim(["a", "b", "c"]) == ["a", "b", "c"]
            t = 100.0  # everything expired
            assert mgr.held() == []
            assert mgr.reclaim_stale() == 3
            assert mgr.active() == []

    def test_renew_heartbeat_keeps_leases_alive(self, tmp_path):
        with ResultStore(tmp_path / "renew.sqlite") as store:
            t = 0.0
            mgr = LeaseManager(store, "w", ttl=10.0, clock=lambda: t)
            mgr.claim(["a", "b"])
            t = 8.0
            assert mgr.renew() == 2  # heartbeat pushes expiry to t=18
            t = 15.0
            assert mgr.held() == ["a", "b"]
            t = 20.0  # missed the next heartbeat: expired
            assert mgr.held() == []
            assert mgr.renew(["a"]) == 0  # renewing a lost lease fails
