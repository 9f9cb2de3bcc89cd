"""The one campaign drain loop: in-process, ``n_jobs`` and fabric runs.

Serial runs, ``run_campaign(n_jobs=k)`` and ``run_campaign_worker``
all drain through the same claim → evaluate → commit → release loop.
These tests pin what the loop promises beyond byte-identical exports:
it never rescans the store, ``n_jobs=k`` *is* the ``k``-worker fabric,
and the claim cursor defers what another worker holds — dropping it
once that worker stores it, taking it over once its lease goes stale.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign import (
    CampaignReport,
    CampaignSpec,
    FabricReport,
    LeaseManager,
    ResultStore,
    export_campaign_json,
    payload_from_result,
    run_campaign,
    run_campaign_worker,
    run_campaign_workers,
)
from repro.cli import main
from repro.engine import BatchEngine
from repro.errors import ValidationError
from repro.telemetry import merge_traces, trace_files

SPEC_DICT = {
    "name": "drain-test",
    "draws": 2,
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


@pytest.fixture()
def spec():
    return CampaignSpec.from_dict(SPEC_DICT)


@pytest.fixture()
def reference(spec, tmp_path):
    with ResultStore(tmp_path / "ref.sqlite") as store:
        run_campaign(spec, store)
        return export_campaign_json(spec, store)


def _foreign_lease(store, digest, ttl):
    """Another worker's live lease on ``digest``."""
    other = LeaseManager(store, "other-host", ttl=ttl)
    assert other.claim([digest]) == [digest]
    return other


def _first_point(spec):
    point = spec.expand()[0]
    inst = point.instance()
    return point, inst, ResultStore.digest(inst, point.model)


class TestOneLoop:
    def test_jobs_is_the_fabric(self, spec, reference, tmp_path):
        with ResultStore(tmp_path / "jobs.sqlite") as store:
            report = run_campaign(spec, store, n_jobs=2,
                                  trace_dir=tmp_path / "trace")
            assert export_campaign_json(spec, store) == reference
        assert FabricReport is CampaignReport
        assert (report.workers, report.crashed) == (2, ())
        assert report.evaluated == report.total == spec.n_points
        merged = merge_traces(trace_files(tmp_path / "trace"))
        assert merged["workers"] == ["main", "worker-0", "worker-1"]

    def test_deprecated_workers_alias(self, spec, tmp_path, monkeypatch):
        """``run_campaign_workers`` warns, rejects an opened store without
        touching the disk, and drains exactly like ``n_jobs=2``."""
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        with ResultStore(tmp_path / "jobs.sqlite") as store:
            report = run_campaign(spec, store, n_jobs=2)
            expected = export_campaign_json(spec, store)
            with pytest.warns(DeprecationWarning, match="n_jobs=k"):
                with pytest.raises(ValidationError, match="os.PathLike"):
                    run_campaign_workers(spec, store, workers=2)
        assert sorted(cwd.iterdir()) == []
        with pytest.warns(DeprecationWarning, match="run_campaign_workers"):
            alias = run_campaign_workers(spec, tmp_path / "alias.sqlite",
                                         workers=2)
        assert alias == report
        with ResultStore(tmp_path / "alias.sqlite") as store:
            assert export_campaign_json(spec, store) == expected

    def test_jobs_honours_max_points_and_resumes(self, spec, reference,
                                                 tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            first = run_campaign(spec, store, n_jobs=2, max_points=3)
            assert (first.evaluated, first.remaining) == (
                3, spec.n_points - 3)
            assert len(store) == 3
            second = run_campaign(spec, store, n_jobs=2)
            assert (second.hits, second.evaluated) == (3, spec.n_points - 3)
            assert export_campaign_json(spec, store) == reference

    def test_jobs_needs_a_file_store(self, spec):
        with ResultStore(":memory:") as store:
            with pytest.raises(ValidationError, match="file-backed"):
                run_campaign(spec, store, n_jobs=2)
            assert len(store) == 0

    @pytest.mark.parametrize("n_jobs", [None, 2])
    def test_drain_never_scans_the_store(self, spec, tmp_path, n_jobs):
        with ResultStore(tmp_path / "s.sqlite") as store:
            run_campaign(spec, store, n_jobs=n_jobs,
                         trace_dir=tmp_path / "trace")
        counters = merge_traces(trace_files(tmp_path / "trace"))["counters"]
        assert counters["store.puts"] == spec.n_points
        assert counters.get("store.scans", 0) == 0

    def test_contended_claims_evaluate_each_point_once(self, spec,
                                                        reference, tmp_path):
        """More workers than cores, one-digest claims: the cursors keep
        colliding, yet every point is evaluated by exactly one worker."""
        with ResultStore(tmp_path / "s.sqlite") as store:
            report = run_campaign(spec, store, n_jobs=4, claim_batch=1,
                                  commit_every=1,
                                  trace_dir=tmp_path / "trace")
            assert export_campaign_json(spec, store) == reference
        assert report.complete and not report.crashed
        counters = merge_traces(trace_files(tmp_path / "trace"))["counters"]
        assert counters["engine.points"] == spec.n_points
        assert counters["lease.claims"] == spec.n_points

    def test_cli_jobs_aliases_workers(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC_DICT))
        summary_path = tmp_path / "summary.json"
        assert main(["campaign", "run", str(spec_path),
                     "--store", str(tmp_path / "s.sqlite"), "--jobs", "2",
                     "--summary-json", str(summary_path)]) == 0
        assert "2 fabric workers" in capsys.readouterr().out
        summary = json.loads(summary_path.read_text())
        assert summary["workers"] == 2 and summary["complete"]
        assert summary["crashed"] == []


class TestClaimCursor:
    def test_defers_a_foreign_lease_until_it_is_stored(self, spec,
                                                       reference, tmp_path):
        """The other worker commits its digest mid-drain: the cursor's
        end-of-pass probe drops it instead of evaluating it again."""
        point, inst, digest = _first_point(spec)
        with ResultStore(tmp_path / "s.sqlite") as store:
            other = _foreign_lease(store, digest, ttl=3600.0)
            payload = payload_from_result(
                inst, BatchEngine().evaluate([inst], [point.model])[0])

            def other_worker_commits(done, total):
                if digest not in store:
                    store.put(digest, payload)
                    other.release([digest])

            stored = run_campaign_worker(spec, store, "me",
                                         commit_every=4,
                                         progress=other_worker_commits)
            assert stored == spec.n_points - 1
            assert export_campaign_json(spec, store) == reference

    def test_takes_over_a_stale_foreign_lease(self, spec, reference,
                                              tmp_path):
        """The other worker died holding a lease: the drain waits it out
        and then claims the digest itself."""
        _, _, digest = _first_point(spec)
        with ResultStore(tmp_path / "s.sqlite") as store:
            _foreign_lease(store, digest, ttl=0.2)
            stored = run_campaign_worker(spec, store, "me", commit_every=4)
            assert stored == spec.n_points
            assert export_campaign_json(spec, store) == reference
            assert store.connection.execute(
                "SELECT COUNT(*) FROM leases").fetchone()[0] == 0


class TestClaimWindows:
    """One engine call per claimed window, commits per ``commit_every``."""

    def _drain(self, spec, path, monkeypatch, **options):
        """Evaluate-call sizes, store commits and export of one
        in-process worker drain."""
        calls: list[int] = []
        commits: list[None] = []
        evaluate, commit = BatchEngine.evaluate, ResultStore.commit

        def counted_evaluate(engine, instances, *args, **kwargs):
            calls.append(len(instances))
            return evaluate(engine, instances, *args, **kwargs)

        def counted_commit(store):
            commits.append(None)
            commit(store)

        with monkeypatch.context() as patch:
            patch.setattr(BatchEngine, "evaluate", counted_evaluate)
            patch.setattr(ResultStore, "commit", counted_commit)
            with ResultStore(path) as store:
                stored = run_campaign_worker(spec, store, "w", **options)
                n_commits = len(commits)
        assert stored == spec.n_points
        with ResultStore(path) as store:
            return calls, n_commits, export_campaign_json(spec, store)

    def test_one_evaluate_call_per_window(self, spec, reference, tmp_path,
                                          monkeypatch):
        n = spec.n_points
        assert n == 8
        runs = {
            claim: self._drain(spec, tmp_path / f"{claim}.sqlite",
                               monkeypatch, claim_batch=claim,
                               commit_every=2)
            for claim in (2, 4, None)
        }
        # The default window is one engine slab: the whole campaign.
        assert [calls for calls, _, _ in runs.values()] == [
            [2, 2, 2, 2], [4, 4], [8]]
        for _, n_commits, text in runs.values():
            assert n_commits == -(-n // 2)
            assert text == reference
