"""Campaign threading of the objective axis: spec, store, exports.

The invariants under test are the PR-10 compatibility contract:

* a period-only spec serializes, digests and exports byte-identically
  to the pre-objective-plane layout (no new keys, no new columns);
* a multi-objective spec produces byte-identical stores and exports
  whether evaluated serially, with ``n_jobs``, or by the multi-worker
  fabric — the extra objectives are pure per-instance functions, so
  parallelism stays a wall-clock knob.
"""

import pytest

from repro.campaign import (CampaignSpec, ResultStore, campaign_report_data,
                            campaign_rows, export_campaign_csv,
                            export_campaign_json, export_campaign_report,
                            instance_digest, payload_from_result,
                            render_report_text, run_campaign)
from repro.engine import evaluate
from repro.errors import ValidationError
from repro.experiments import example_a

SPEC = {
    "name": "objective-axis",
    "draws": 2,
    "models": ["overlap"],
    "applications": [{"workload": "audio-pipeline"}],
    "platforms": [{"n_procs": 6, "clusters": 2}],
    "replications": [{"policy": "balls"}],
    "max_paths": 200,
}


def _spec(objectives=None):
    data = dict(SPEC)
    if objectives is not None:
        data["objectives"] = objectives
    return CampaignSpec.from_dict(data)


class TestSpecAxis:
    def test_default_is_period_only(self):
        spec = _spec()
        assert spec.objectives == ("period",)

    def test_default_omitted_from_dict(self):
        """Period-only specs serialize exactly as before PR 10."""
        assert "objectives" not in _spec().to_dict()

    def test_canonicalized_on_construction(self):
        spec = _spec("reliability,latency,period")
        assert spec.objectives == ("period", "latency", "reliability")

    def test_roundtrip(self):
        spec = _spec(["latency", "period"])
        again = CampaignSpec.from_dict(spec.to_dict())
        assert again.objectives == ("period", "latency")
        assert again == spec

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValidationError):
            _spec(["period", "speedup"])

    def test_expansion_independent_of_objectives(self):
        """The axis changes what is measured, never which points."""
        plain = [(p.index, p.seed, p.cell) for p in _spec().expand()]
        rich = [(p.index, p.seed, p.cell)
                for p in _spec(["period", "latency"]).expand()]
        assert plain == rich


class TestDigests:
    def test_period_only_digest_unchanged(self):
        inst = example_a()
        assert instance_digest(inst, "overlap") == instance_digest(
            inst, "overlap", objectives=("period",))

    def test_multi_objective_digest_differs(self):
        inst = example_a()
        assert instance_digest(inst, "overlap") != instance_digest(
            inst, "overlap", objectives=("period", "latency"))

    def test_period_only_payload_has_no_objective_keys(self):
        inst = example_a()
        [res] = evaluate([inst], "overlap")
        payload = payload_from_result(inst, res)
        assert "objectives" not in payload
        assert "latency" not in payload and "reliability" not in payload

    def test_multi_objective_payload_carries_values(self):
        inst = example_a()
        [res] = evaluate([inst], "overlap")
        payload = payload_from_result(
            inst, res, objectives=("period", "latency", "reliability"))
        assert payload["objectives"] == ["period", "latency",
                                         "reliability"]
        assert payload["latency"] > 0 and payload["latency_mode"] == "bound"
        assert payload["reliability"] == 1.0  # no failure model


class TestExports:
    def test_period_only_exports_unchanged(self, tmp_path):
        spec = _spec()
        with ResultStore(tmp_path / "s.sqlite") as store:
            run_campaign(spec, store)
            csv_text = export_campaign_csv(spec, store)
            data = campaign_report_data(spec, store)
        header = csv_text.splitlines()[0]
        assert header.endswith("critical,gap")
        assert "latency" not in header
        assert "objectives" not in data

    def test_multi_objective_exports_extend(self, tmp_path):
        spec = _spec(["period", "latency", "reliability"])
        with ResultStore(tmp_path / "s.sqlite") as store:
            run_campaign(spec, store)
            csv_text = export_campaign_csv(spec, store)
            rows, missing = campaign_rows(spec, store)
            data = campaign_report_data(spec, store)
            text = render_report_text(data)
        assert not missing
        assert csv_text.splitlines()[0].endswith(
            "critical,gap,latency,reliability")
        assert all(row["latency"] > 0 for row in rows)
        section = data["objectives"]
        assert section["names"] == ["period", "latency", "reliability"]
        assert section["pareto"], "front must be non-empty"
        assert "pareto front" in text and "latency by model" in text

    def test_report_front_is_non_dominated(self, tmp_path):
        from repro.objectives import dominates

        spec = _spec(["period", "latency"])
        with ResultStore(tmp_path / "s.sqlite") as store:
            run_campaign(spec, store)
            front = campaign_report_data(spec, store)["objectives"]["pareto"]
        vectors = [tuple(e["vector"]) for e in front]
        for i, a in enumerate(vectors):
            for j, b in enumerate(vectors):
                if i != j:
                    assert not dominates(a, b)


class TestParallelismInvariance:
    def test_serial_jobs_fabric_byte_identical(self, tmp_path):
        spec = _spec(["period", "latency", "reliability"])
        artifacts = []
        for n_jobs in (1, 2):
            with ResultStore(tmp_path / f"jobs{n_jobs}.sqlite") as store:
                report = run_campaign(spec, store, n_jobs=n_jobs)
                assert report.complete and not report.crashed
                artifacts.append((export_campaign_json(spec, store),
                                  export_campaign_csv(spec, store),
                                  export_campaign_report(spec, store)))
        assert artifacts[0] == artifacts[1]

    def test_resume_is_free(self, tmp_path):
        spec = _spec(["period", "latency"])
        with ResultStore(tmp_path / "s.sqlite") as store:
            first = run_campaign(spec, store)
            again = run_campaign(spec, store)
        assert first.evaluated == spec.n_points
        assert again.evaluated == 0 and again.hits == spec.n_points
