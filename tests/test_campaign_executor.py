"""Tests for the campaign executor: resume, ordering, exports, CLI.

The acceptance contract of the campaign subsystem: a run killed
mid-stream and re-launched completes without recomputing finished
points (store hit count asserted) and produces byte-identical exports
to an uninterrupted run.
"""

from __future__ import annotations

import json
import zlib

import numpy as np

import pytest

from repro.campaign import (
    CampaignSpec,
    ResultStore,
    campaign_report_data,
    campaign_status,
    export_campaign_csv,
    export_campaign_json,
    instance_digest,
    order_for_engine,
    run_campaign,
    run_campaign_worker,
)
from repro.campaign.executor import _claim_window
from repro.cli import main
from repro.engine import MAX_GROUP_ROWS, BatchEngine, topology_signature
from repro.errors import ValidationError
from repro.experiments import TABLE2_CONFIGS, run_family

SPEC_DICT = {
    "name": "executor-test",
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


@pytest.fixture()
def spec():
    return CampaignSpec.from_dict(SPEC_DICT)


class TestResume:
    def test_interrupted_run_resumes_without_recompute(self, spec, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            first = run_campaign(spec, store, max_points=5)
            assert (first.evaluated, first.remaining) == (5, spec.n_points - 5)
            assert not first.complete
            second = run_campaign(spec, store)
            # the 5 finished points are store hits, never recomputed
            assert second.hits == 5
            assert second.evaluated == spec.n_points - 5
            assert second.complete
            third = run_campaign(spec, store)
            assert (third.hits, third.evaluated) == (spec.n_points, 0)

    def test_exports_byte_identical_to_uninterrupted(self, spec, tmp_path):
        with ResultStore(tmp_path / "a.sqlite") as interrupted:
            run_campaign(spec, interrupted, max_points=5)
            run_campaign(spec, interrupted)
            json_a = export_campaign_json(spec, interrupted)
            csv_a = export_campaign_csv(spec, interrupted)
        with ResultStore(tmp_path / "b.sqlite") as fresh:
            run_campaign(spec, fresh)
            json_b = export_campaign_json(spec, fresh)
            csv_b = export_campaign_csv(spec, fresh)
        assert json_a == json_b
        assert csv_a == csv_b

    def test_parallel_run_exports_identical(self, spec, tmp_path):
        with ResultStore(tmp_path / "a.sqlite") as serial:
            run_campaign(spec, serial)
            csv_a = export_campaign_csv(spec, serial)
        with ResultStore(tmp_path / "b.sqlite") as parallel:
            report = run_campaign(spec, parallel, n_jobs=2)
            assert report.complete
            csv_b = export_campaign_csv(spec, parallel)
        assert csv_a == csv_b

    def test_status_counts(self, spec, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            run_campaign(spec, store, max_points=3)
            status = campaign_status(spec, store)
            assert status["total"] == spec.n_points
            assert status["done"] == 3
            assert sum(c["done"] for c in status["cells"]) == 3
            assert sum(c["total"] for c in status["cells"]) == spec.n_points


class TestSkippedCells:
    """Cells ``expand()`` excludes are reported with their reasons."""

    def test_status_lists_skipped_cells(self, spec, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            status = campaign_status(spec, store)
        # fixed [1,2,3] fits the 3-stage synthetic app, not the 4-stage
        # audio pipeline
        assert status["skipped"] == [{
            "application": "audio-pipeline", "platform": "uniform-p8",
            "replication": "fixed-1x2x3",
            "reason": "replication axis 'fixed-1x2x3' has 3 counts but the "
                      "application has 4 stages",
        }]
        assert status["total"] == spec.n_points

    def test_every_reason_is_the_draw_error(self, tmp_path):
        data = {**SPEC_DICT, "max_paths": 4,
                "platforms": [{"n_procs": 8}, {"n_procs": 3}]}
        spec = CampaignSpec.from_dict(data)
        with ResultStore(tmp_path / "s.sqlite") as store:
            skipped = campaign_status(spec, store)["skipped"]
        reasons = {(c["application"], c["platform"], c["replication"]): c["reason"]
                   for c in skipped}
        assert sorted(reasons.values()) == sorted([
            "replication axis 'fixed-1x2x3' has lcm(m_i) = 6 > max_paths = 4",
            "replication axis 'fixed-1x2x3' has 3 counts but the application has 4 stages",
            "replication axis 'fixed-1x2x3' needs 6 processors but the platform has 3",
            "need at least one processor per stage: 4 stages, 3 processors",
            "replication axis 'fixed-1x2x3' has 3 counts but the application has 4 stages",
        ])
        apps = {a.label: a.application().n_stages for a in spec.applications}
        plats = {p.label: p.n_procs for p in spec.platforms}
        repls = {r.label: r for r in spec.replications}
        rng = np.random.default_rng(0)
        for (app, plat, repl), reason in reasons.items():
            assert not repls[repl].feasible(apps[app], plats[plat], 4)
            with pytest.raises(ValidationError) as err:
                repls[repl].draw_mapping(apps[app], plats[plat], rng, 4)
            assert str(err.value) == reason
        cells = {p.cell[:3] for p in spec.expand()}
        assert cells.isdisjoint(reasons)

    def test_cli_status_prints_skipped(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC_DICT))
        assert main(["campaign", "status", str(spec_path),
                     "--store", str(tmp_path / "s.sqlite")]) == 0
        assert ("  skipped audio-pipeline | uniform-p8 | fixed-1x2x3 : "
                "replication axis 'fixed-1x2x3' has 3 counts but the "
                "application has 4 stages") in capsys.readouterr().out


    def test_report_lists_skipped_cells(self, spec, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            run_campaign(spec, store)
            report = campaign_report_data(spec, store)
            status = campaign_status(spec, store)
        assert report["skipped"] == status["skipped"]
        assert len(report["skipped"]) == 1

    def test_report_omits_key_without_skipped_cells(self, tmp_path):
        spec = CampaignSpec.from_dict({
            **SPEC_DICT, "draws": 1,
            "replications": [{"policy": "balls"}],
        })
        with ResultStore(tmp_path / "s.sqlite") as store:
            run_campaign(spec, store)
            assert "skipped" not in campaign_report_data(spec, store)

    def test_cli_report_prints_skipped(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC_DICT))
        store = str(tmp_path / "s.sqlite")
        assert main(["campaign", "run", str(spec_path), "--store", store]) == 0
        capsys.readouterr()
        assert main(["campaign", "report", str(spec_path), "--store", store]) == 0
        assert ("skipped        : audio-pipeline | uniform-p8 | fixed-1x2x3 : "
                "replication axis 'fixed-1x2x3' has 3 counts but the "
                "application has 4 stages") in capsys.readouterr().out


class TestOrdering:
    def test_groups_by_signature_preserving_sweep_order(self, spec):
        points = spec.expand()
        pairs = [(p.instance(), p.model) for p in points]
        order = order_for_engine(pairs)
        assert sorted(order) == list(range(len(pairs)))
        # group ids in visit order: each signature appears in one run
        sigs = [topology_signature(*pairs[i]) for i in order]
        seen: list = []
        for sig in sigs:
            if not seen or seen[-1] != sig:
                assert sig not in seen, "signature split across chunks"
                seen.append(sig)
        # inside a group, the original sweep order is preserved
        by_sig: dict = {}
        for i in order:
            by_sig.setdefault(topology_signature(*pairs[i]), []).append(i)
        for members in by_sig.values():
            assert members == sorted(members)

    def test_report_counts_topology_groups(self, spec, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            report = run_campaign(spec, store)
        points = spec.expand()
        n_groups = len({
            topology_signature(p.instance(), p.model) for p in points
        })
        assert report.groups == n_groups

    @pytest.mark.parametrize("max_points", [0, 1, 3, 7, 10_000])
    def test_truncated_report_counts_groups_it_touches(self, spec, tmp_path,
                                                       max_points):
        pairs = [(p.instance(), p.model) for p in spec.expand()]
        kept = order_for_engine(pairs)[:max_points]
        with ResultStore(tmp_path / "s.sqlite") as store:
            report = run_campaign(spec, store, max_points=max_points)
        assert report.evaluated == len(kept)
        assert report.groups == len({topology_signature(*pairs[i])
                                     for i in kept})


def _engine_order(pairs, stored) -> list[str]:
    """Digests of the distinct unstored ``(instance, model)`` pairs in
    :func:`order_for_engine` order."""
    unique: dict = {}
    for inst, model in pairs:
        digest = instance_digest(inst, model)
        if digest not in stored:
            unique.setdefault(digest, (inst, model))
    keys = list(unique)
    return [keys[i] for i in order_for_engine(list(unique.values()))]


class TestEvaluationOrder:
    """Every drain hands the engine its distinct unstored instances in
    :func:`order_for_engine` order."""

    @staticmethod
    def _recorded(monkeypatch) -> list[str]:
        """Digests ``BatchEngine.evaluate`` sees from now on, in order."""
        seen: list[str] = []
        evaluate = BatchEngine.evaluate

        def recording(engine, instances, models, *args, **kwargs):
            seen.extend(instance_digest(inst, model)
                        for inst, model in zip(instances, models))
            return evaluate(engine, instances, models, *args, **kwargs)

        monkeypatch.setattr(BatchEngine, "evaluate", recording)
        return seen

    def test_truncated_in_process_drain(self, spec, tmp_path, monkeypatch):
        pairs = [(p.instance(), p.model) for p in spec.expand()]
        with ResultStore(tmp_path / "s.sqlite") as store:
            run_campaign(spec, store, max_points=5)
            expected = _engine_order(pairs, set(store.digests()))[:7]
            seen = self._recorded(monkeypatch)
            run_campaign(spec, store, max_points=7)
        assert len(expected) == 7
        assert seen == expected

    def test_standalone_worker(self, spec, tmp_path, monkeypatch):
        pairs = [(p.instance(), p.model) for p in spec.expand()]
        with ResultStore(tmp_path / "s.sqlite") as store:
            run_campaign(spec, store, max_points=5)
            expected = _engine_order(pairs, set(store.digests()))
            seen = self._recorded(monkeypatch)
            run_campaign_worker(spec, store, "order-worker")
        offset = zlib.crc32(b"order-worker") % len(expected)
        assert seen == expected[offset:] + expected[:offset]

    def test_store_backed_sweep(self, tmp_path, monkeypatch):
        """Duplicate seeds and a half-filled store: the sweep's drain
        sees each unstored instance once, in engine order."""
        from repro.experiments import runner

        config = TABLE2_CONFIGS[4]
        base = runner.family_seeds(config, "strict", 10)
        seeds = base[4:7] + base + base[::3]
        with ResultStore(tmp_path / "s.sqlite") as store:
            monkeypatch.setattr(runner, "family_seeds",
                                lambda *args, **kwargs: base[::2])
            run_family(config, "strict", store=store)
            pairs = [(runner._draw_instance(config, s,
                                            runner.DEFAULT_MAX_PATHS),
                      "strict") for s in seeds]
            expected = _engine_order(pairs, set(store.digests()))
            monkeypatch.setattr(runner, "family_seeds",
                                lambda *args, **kwargs: seeds)
            seen = self._recorded(monkeypatch)
            records = run_family(config, "strict", store=store)
        assert len(expected) == 5
        assert seen == expected
        assert [r.seed for r in records] == seeds


class TestMaterializationPasses:
    """Drain, resume, status and export each materialize a point once."""

    def test_one_instance_per_point_per_pass(self, spec, tmp_path,
                                             monkeypatch):
        from repro.campaign import CampaignPoint

        calls: list[int] = []
        instance = CampaignPoint.instance

        def counted(self):
            calls.append(self.index)
            return instance(self)

        monkeypatch.setattr(CampaignPoint, "instance", counted)
        every = list(range(spec.n_points))
        with ResultStore(tmp_path / "s.sqlite") as store:
            for step in (lambda: run_campaign(spec, store),      # drain
                         lambda: run_campaign(spec, store),      # resume
                         lambda: campaign_status(spec, store),
                         lambda: export_campaign_json(spec, store),
                         lambda: export_campaign_csv(spec, store)):
                calls.clear()
                step()
                assert calls == every


class TestDrainParameters:
    """Drain parameters are validated before any work starts."""

    def test_negative_max_points_rejected(self, spec):
        with ResultStore(":memory:") as store:
            with pytest.raises(ValidationError, match="max_points"):
                run_campaign(spec, store, max_points=-1)
            assert len(store) == 0
            assert run_campaign(spec, store, max_points=0).evaluated == 0

    def test_zero_commit_every_rejected(self, spec):
        with ResultStore(":memory:") as store:
            with pytest.raises(ValidationError, match="commit_every"):
                run_campaign(spec, store, commit_every=0)
            with pytest.raises(ValidationError, match="commit_every"):
                run_campaign_worker(spec, store, "w", commit_every=0)
            assert len(store) == 0

    def test_zero_claim_batch_rejected(self, spec, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            with pytest.raises(ValidationError, match="claim_batch"):
                run_campaign_worker(spec, store, "w", claim_batch=0)
            with pytest.raises(ValidationError, match="claim_batch"):
                run_campaign(spec, store, n_jobs=2, claim_batch=0)
            assert len(store) == 0

    def test_negative_n_jobs_rejected(self, spec, tmp_path, capsys):
        with ResultStore(tmp_path / "s.sqlite") as store:
            with pytest.raises(ValidationError,
                               match=r"n_jobs must be None or >= 0, got -2"):
                run_campaign(spec, store, n_jobs=-2)
            assert len(store) == 0
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC_DICT))
        assert main(["campaign", "run", str(spec_path),
                     "--store", str(tmp_path / "s.sqlite"),
                     "--workers", "-2"]) == 1
        assert "n_jobs must be None or >= 0, got -2" in capsys.readouterr().err

    def test_store_must_be_a_result_store(self, spec, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValidationError, match="ResultStore"):
            run_campaign(spec, "x.sqlite")
        with pytest.raises(ValidationError, match="os.PathLike"):
            ResultStore(object())
        assert sorted(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("call", [
        lambda spec, store: run_campaign(spec, store),
        lambda spec, store: run_campaign_worker(spec, store, "w"),
        lambda spec, store: campaign_status(spec, store),
        lambda spec, store: export_campaign_json(spec, store),
        lambda spec, store: export_campaign_csv(spec, store),
        lambda spec, store: run_family(TABLE2_CONFIGS[4], "strict",
                                       count=2, store=store),
    ], ids=["run_campaign", "run_campaign_worker", "campaign_status",
            "export_campaign_json", "export_campaign_csv", "run_family"])
    def test_every_entry_point_rejects_a_path_store(self, spec, tmp_path,
                                                    monkeypatch, call):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValidationError,
                           match="store must be a ResultStore, got str"):
            call(spec, "x.sqlite")
        assert sorted(tmp_path.iterdir()) == []

    def test_in_memory_store_cannot_fork(self, spec):
        store = ResultStore(":memory:")
        for call in (
            lambda: run_campaign(spec, store, n_jobs=2),
            lambda: run_family(TABLE2_CONFIGS[4], "strict", count=2,
                               store=store, n_jobs=2),
        ):
            with pytest.raises(ValidationError,
                               match="multi-process drain needs a "
                                     "file-backed store"):
                call()
        assert len(store) == 0

    def test_complete_rerun_starts_no_process(self, spec, tmp_path,
                                              monkeypatch):
        import multiprocessing.process

        with ResultStore(tmp_path / "s.sqlite") as store:
            assert run_campaign(spec, store, n_jobs=2).workers == 2

            def no_start(proc):
                raise AssertionError("a drain with nothing pending forked")

            monkeypatch.setattr(multiprocessing.process.BaseProcess,
                                "start", no_start)
            again = run_campaign(spec, store, n_jobs=2)
        assert (again.evaluated, again.workers) == (0, 1)
        assert again.complete

    def test_lease_ttl_needs_worker_processes(self, spec, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            for n_jobs in (None, 1):
                with pytest.raises(ValidationError, match="lease_ttl"):
                    run_campaign(spec, store, n_jobs=n_jobs, lease_ttl=5.0)
            assert len(store) == 0

    def test_claim_window(self):
        # An explicit claim_batch is used as given, fabric or not.
        assert _claim_window(5, 32, 1000, 2) == 5
        assert _claim_window(5, 32, 3, None) == 5
        # Default: one engine slab, in whole commit slices.
        assert MAX_GROUP_ROWS == 256
        assert _claim_window(None, 32, 1000, None) == 256
        assert _claim_window(None, 100, 1000, None) == 300
        assert _claim_window(None, 1000, 10, None) == 1000
        # A forked worker drains lists any of the workers may end up
        # draining (its own share's pending points, then the leftovers
        # it steals): at most ceil(n / workers) of a list of n.
        assert _claim_window(None, 32, 12, 2) == 6
        assert _claim_window(None, 32, 7, 3) == 3
        # mixed_fabric: each of 2 workers owns a 640-point share of 1280
        assert _claim_window(None, 32, 640, 2) == 256
        assert _claim_window(None, 32, 0, 2) == 1

    def test_cli_negative_max_points(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC_DICT))
        assert main(["campaign", "run", str(spec_path),
                     "--store", str(tmp_path / "s.sqlite"),
                     "--max-points", "-1"]) == 1
        assert "max_points must be >= 0" in capsys.readouterr().err


class TestExports:
    def test_partial_export_requires_flag(self, spec, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            run_campaign(spec, store, max_points=2)
            with pytest.raises(ValidationError):
                export_campaign_json(spec, store)
            text = export_campaign_json(spec, store, allow_partial=True)
            assert len(json.loads(text)["rows"]) == 2

    def test_json_embeds_spec_and_roundtrips(self, spec, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            run_campaign(spec, store)
            payload = json.loads(export_campaign_json(spec, store))
        assert CampaignSpec.from_dict(payload["spec"]) == spec
        assert len(payload["rows"]) == spec.n_points
        row = payload["rows"][0]
        assert {"point", "digest", "period", "mct", "critical"} <= row.keys()

    def test_csv_deterministic_columns(self, spec, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            run_campaign(spec, store)
            header = export_campaign_csv(spec, store).splitlines()[0]
        assert header.startswith("point,application,platform,replication")


class TestCli:
    def test_run_status_export(self, spec, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC_DICT))
        store_path = tmp_path / "s.sqlite"
        out_json = tmp_path / "out.json"
        out_csv = tmp_path / "out.csv"

        assert main(["campaign", "run", str(spec_path),
                     "--store", str(store_path), "--max-points", "4"]) == 0
        assert "store hits     : 0" in capsys.readouterr().out

        assert main(["campaign", "run", str(spec_path),
                     "--store", str(store_path)]) == 0
        assert "store hits     : 4" in capsys.readouterr().out

        assert main(["campaign", "status", str(spec_path),
                     "--store", str(store_path)]) == 0
        assert f"done           : {spec.n_points} / {spec.n_points}" \
            in capsys.readouterr().out

        assert main(["campaign", "export", str(spec_path),
                     "--store", str(store_path),
                     "--json", str(out_json), "--csv", str(out_csv)]) == 0
        capsys.readouterr()
        rows = json.loads(out_json.read_text())["rows"]
        assert len(rows) == spec.n_points
        assert len(out_csv.read_text().splitlines()) == spec.n_points + 1

    def test_export_without_artifacts_errors(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC_DICT))
        assert main(["campaign", "export", str(spec_path),
                     "--store", str(tmp_path / "s.sqlite")]) == 1
        capsys.readouterr()
