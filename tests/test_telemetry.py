"""Telemetry: counter determinism, span traces, merges, and exporters.

The central contract of PR 8: instrumentation observes without
perturbing.  The *contract* counter tier is partition-invariant —
identical totals for a serial run, a span-parallel ``n_jobs=2`` run,
and a 3-process lease fabric of one campaign spec — while disabled
telemetry adds exactly zero entries to the collector.  Wall-clock spans
live in a separate channel that no logic ever reads back.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign import (
    CampaignSpec,
    ResultStore,
    campaign_report_data,
    export_campaign_json,
    render_report_text,
    run_campaign,
)
from repro.cli import main
from repro.petri.reduction import pattern_plan
from repro.telemetry import (
    CONTRACT_COUNTERS,
    TELEMETRY,
    Telemetry,
    attribution,
    chrome_trace,
    contract_counters,
    is_contract_counter,
    merge_traces,
    merged_from_chrome,
    read_trace,
    render_summary,
    trace_files,
    write_trace,
)

SPEC_DICT = {
    "name": "telemetry-test",
    "draws": 1,
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
    "max_paths": 150,
}


@pytest.fixture()
def spec():
    return CampaignSpec.from_dict(SPEC_DICT)


def _traced_run(tmp_path, tag, *, n_jobs=1):
    """Drain SPEC_DICT into a fresh store with tracing; merged trace."""
    spec = CampaignSpec.from_dict(SPEC_DICT)
    trace_dir = tmp_path / f"trace-{tag}"
    with ResultStore(tmp_path / f"{tag}.sqlite") as store:
        run_campaign(spec, store, n_jobs=n_jobs, trace_dir=trace_dir)
        export = export_campaign_json(spec, store)
    return merge_traces(trace_files(trace_dir)), export


class TestCounterTaxonomy:
    def test_contract_names(self):
        assert "engine.points" in CONTRACT_COUNTERS
        assert is_contract_counter("engine.points.tpn")
        assert is_contract_counter("store.quarantines")

    def test_diagnostic_names(self):
        for name in ["engine.cache_hits", "howard.rounds", "lease.claims",
                     "sync.merged", "search.launches"]:
            assert not is_contract_counter(name)

    def test_contract_subset_sorted(self):
        counters = {"store.puts": 3, "engine.points": 5, "lease.claims": 9,
                    "engine.points.tpn": 2}
        assert contract_counters(counters) == {
            "engine.points": 5, "engine.points.tpn": 2, "store.puts": 3}


class TestCollector:
    def test_disabled_is_noop(self):
        t = Telemetry()
        t.count("engine.points", 4)
        with t.span("evaluate", points=4):
            pass
        t.merge_counters({"engine.paths": 2})
        assert t.counters == {} and t.spans == [] and t.stack == []

    def test_enable_resets(self):
        t = Telemetry()
        t.enable("worker-1")
        t.count("a")
        with t.span("s"):
            pass
        t.enable("worker-2")
        assert t.worker == "worker-2"
        assert t.counters == {} and t.spans == [] and t.stack == []

    def test_span_nesting_and_attrs(self):
        t = Telemetry()
        t.enable()
        with t.span("outer", kind="root"):
            with t.span("inner", rows=7):
                pass
            with t.span("inner", rows=9):
                pass
        outer, first, second = t.spans
        assert (outer.parent, first.parent, second.parent) == (-1, 0, 0)
        assert [s.index for s in t.spans] == [0, 1, 2]
        assert first.attrs == {"rows": 7} and outer.attrs == {"kind": "root"}
        assert outer.t0 <= first.t0 <= first.t1 <= second.t1 <= outer.t1
        assert t.stack == []

    def test_merge_counters_order_independent(self):
        a, b = Telemetry(), Telemetry()
        a.enable()
        b.enable()
        parts = [{"x": 1, "y": 2}, {"y": 5}, {"x": 3, "z": 1}]
        for part in parts:
            a.merge_counters(part)
        for part in reversed(parts):
            b.merge_counters(part)
        assert a.counter_snapshot() == b.counter_snapshot() == {
            "x": 4, "y": 7, "z": 1}

    def test_disable_keeps_data_readable(self):
        t = Telemetry()
        t.enable()
        t.count("a", 2)
        t.disable()
        assert t.counter_snapshot() == {"a": 2}
        t.count("a")  # ignored while disabled
        assert t.counter_snapshot() == {"a": 2}


class TestTraceFiles:
    def _collector(self, worker, epoch):
        t = Telemetry()
        t.enable(worker)
        t.count("engine.points", 3)
        t.count("lease.claims", 1)
        with t.span("campaign", campaign="x"):
            with t.span("evaluate", points=3):
                pass
        t.epoch = epoch  # pin for deterministic cross-worker alignment
        return t

    def test_write_read_roundtrip(self, tmp_path):
        t = self._collector("main", 100.0)
        path = write_trace(tmp_path / "trace-main.jsonl", t)
        trace = read_trace(path)
        assert trace["worker"] == "main" and trace["epoch"] == 100.0
        assert trace["counters"] == {"engine.points": 3, "lease.claims": 1}
        assert [s["name"] for s in trace["spans"]] == ["campaign", "evaluate"]

    def test_merge_is_path_order_independent(self, tmp_path):
        paths = [
            write_trace(tmp_path / "trace-main.jsonl",
                        self._collector("main", 100.0)),
            write_trace(tmp_path / "trace-worker-0.jsonl",
                        self._collector("worker-0", 100.5)),
            write_trace(tmp_path / "trace-worker-1.jsonl",
                        self._collector("worker-1", 100.25)),
        ]
        merged = merge_traces(paths)
        assert merge_traces(list(reversed(paths))) == merged
        assert merged["workers"] == ["main", "worker-0", "worker-1"]
        assert merged["counters"] == {"engine.points": 9, "lease.claims": 3}

    def test_merge_aligns_epochs(self, tmp_path):
        early = write_trace(tmp_path / "trace-main.jsonl",
                            self._collector("main", 100.0))
        late = write_trace(tmp_path / "trace-worker-0.jsonl",
                           self._collector("worker-0", 102.0))
        merged = merge_traces([late, early])
        by_worker = {}
        for span in merged["spans"]:
            if span["name"] == "campaign":
                by_worker[span["worker"]] = span
        shift = (by_worker["worker-0"]["t0"] - by_worker["main"]["t0"])
        assert shift == pytest.approx(2.0, abs=0.5)

    def test_merge_rejects_duplicate_workers(self, tmp_path):
        a = write_trace(tmp_path / "trace-a.jsonl",
                        self._collector("main", 100.0))
        b = write_trace(tmp_path / "trace-b.jsonl",
                        self._collector("main", 101.0))
        with pytest.raises(ValueError, match="duplicate worker"):
            merge_traces([a, b])
        with pytest.raises(ValueError, match="no trace files"):
            merge_traces([])

    def test_trace_files_sorted(self, tmp_path):
        for name in ["trace-worker-1.jsonl", "trace-main.jsonl",
                     "trace-worker-0.jsonl", "unrelated.txt"]:
            (tmp_path / name).write_text("{}\n")
        assert [p.name for p in trace_files(tmp_path)] == [
            "trace-main.jsonl", "trace-worker-0.jsonl",
            "trace-worker-1.jsonl"]


class TestExporters:
    def _merged(self, tmp_path):
        t = Telemetry()
        t.enable("main")
        t.count("engine.points", 2)
        t.count("howard.rounds", 6)
        with t.span("campaign", campaign="x"):
            with t.span("evaluate", points=2):
                pass
        path = write_trace(tmp_path / "trace-main.jsonl", t)
        return merge_traces([path])

    def test_chrome_roundtrip_exact(self, tmp_path):
        merged = self._merged(tmp_path)
        chrome = json.loads(json.dumps(chrome_trace(merged)))
        assert merged_from_chrome(chrome) == merged
        names = [e["name"] for e in chrome["traceEvents"]]
        assert "repro_trace" in names and "thread_name" in names
        spans = [e for e in chrome["traceEvents"] if e["ph"] == "X"]
        assert spans[0]["ts"] == pytest.approx(spans[0]["args"]["t0"] * 1e6)

    def test_attribution_synthetic(self):
        spans = [
            {"attrs": {}, "index": 0, "name": "campaign", "parent": -1,
             "t0": 0.0, "t1": 10.0, "worker": "main"},
            {"attrs": {}, "index": 1, "name": "evaluate", "parent": 0,
             "t0": 0.0, "t1": 6.0, "worker": "main"},
            {"attrs": {}, "index": 2, "name": "commit", "parent": 0,
             "t0": 5.0, "t1": 9.0, "worker": "main"},
        ]
        merged = {"counters": {}, "schema": 1, "spans": spans,
                  "workers": ["main"]}
        attrib = attribution(merged)
        assert attrib["root"] == "campaign"
        # union of [0, 6] and [5, 9] covers 9 of the 10-second root
        assert attrib["coverage"] == pytest.approx(0.9)
        assert {p["name"] for p in attrib["phases"]} == {
            "campaign", "evaluate", "commit"}

    def test_attribution_empty(self):
        attrib = attribution({"counters": {}, "schema": 1, "spans": [],
                              "workers": []})
        assert attrib["root"] is None and attrib["coverage"] == 0.0

    def test_render_summary_sections(self, tmp_path):
        text = render_summary(self._merged(tmp_path))
        assert "contract counters (partition-invariant):" in text
        assert "diagnostic counters:" in text
        assert "engine.points" in text and "howard.rounds" in text
        assert "span attribution (root 'campaign'" in text


class TestCampaignDeterminism:
    def test_contract_counters_partition_invariant(self, tmp_path):
        serial, export_serial = _traced_run(tmp_path, "serial")
        jobs2, _ = _traced_run(tmp_path, "jobs2", n_jobs=2)
        fabric, export_fabric = _traced_run(tmp_path, "fabric", n_jobs=3)
        contract = contract_counters(serial["counters"])
        assert contract["engine.points"] == 6
        assert contract["store.puts"] == 6
        assert contract == contract_counters(jobs2["counters"])
        assert contract == contract_counters(fabric["counters"])
        # Tracing never perturbs the artifacts: fabric export bytes
        # equal the serial export bytes.
        assert export_fabric == export_serial
        assert fabric["workers"] == [
            "main", "worker-0", "worker-1", "worker-2"]

    def test_serial_counters_fully_deterministic(self, tmp_path):
        first, _ = _traced_run(tmp_path, "first")
        second, _ = _traced_run(tmp_path, "second")
        assert first["counters"] == second["counters"]

    def test_drain_counters_ignore_warm_pattern_plans(self, tmp_path):
        """The process-wide Theorem-1 plan cache starts cold in every
        drain: a drain after a warm-up prepares the same plans again."""
        pattern_plan.cache_clear()
        cold, _ = _traced_run(tmp_path, "cold")
        assert pattern_plan.cache_info().currsize > 0
        warm, _ = _traced_run(tmp_path, "warm")
        assert cold["counters"]["howard.prepares"] > 0
        assert warm["counters"] == cold["counters"]

    def test_span_hierarchy_and_attribution(self, tmp_path):
        fabric, _ = _traced_run(tmp_path, "fab2", n_jobs=2)
        names = {span["name"] for span in fabric["spans"]}
        assert {"campaign", "prepare", "worker", "worker-run",
                "claim"} <= names
        attrib = attribution(fabric)
        assert attrib["root"] == "campaign"
        # The acceptance floor is 95% (gated in bench_telemetry and the
        # CI telemetry job); the unit test keeps headroom for slow CI.
        assert attrib["coverage"] >= 0.80

    def test_disabled_run_adds_nothing(self, tmp_path, spec):
        TELEMETRY.disable()
        before_counters = TELEMETRY.counter_snapshot()
        before_spans = len(TELEMETRY.spans)
        with ResultStore(tmp_path / "dark.sqlite") as store:
            run_campaign(spec, store)
        assert TELEMETRY.counter_snapshot() == before_counters
        assert len(TELEMETRY.spans) == before_spans

    def test_failed_traced_drain_turns_telemetry_off(self, tmp_path, spec):
        """A traced drain that raises still disables the collector, so
        a later untraced drain in the process records nothing."""
        def fail(done: int, total: int) -> None:
            raise RuntimeError("progress callback failed")

        TELEMETRY.disable()
        try:
            with ResultStore(tmp_path / "s.sqlite") as store:
                with pytest.raises(RuntimeError, match="progress callback"):
                    run_campaign(spec, store, progress=fail,
                                 trace_dir=tmp_path / "trace")
                assert not TELEMETRY.enabled
                before = TELEMETRY.counter_snapshot()
                run_campaign(spec, store)
                assert TELEMETRY.counter_snapshot() == before
        finally:
            TELEMETRY.disable()


class TestReportSection:
    def test_absent_without_counters(self, tmp_path, spec):
        with ResultStore(tmp_path / "s.sqlite") as store:
            run_campaign(spec, store)
            data = campaign_report_data(spec, store)
        assert "telemetry" not in data

    def test_engine_section(self, tmp_path, spec):
        with ResultStore(tmp_path / "s.sqlite") as store:
            run_campaign(spec, store, trace_dir=tmp_path / "trace")
            counters = merge_traces(trace_files(tmp_path / "trace"))[
                "counters"]
            data = campaign_report_data(spec, store, counters=counters)
            text = render_report_text(data)
        engine = data["telemetry"]["engine"]
        assert engine["skeleton_builds"] >= 1
        assert engine["lockstep_rows"] + engine["scalar_points"] == 6
        assert "engine telemetry:" in text
        assert "skeleton cache" in text


class TestTelemetryCli:
    def _trace_dir(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC_DICT))
        trace_dir = tmp_path / "trace"
        assert main(["campaign", "run", str(spec_path),
                     "--store", str(tmp_path / "s.sqlite"),
                     "--trace", str(trace_dir)]) == 0
        return spec_path, trace_dir

    def test_report_summary(self, tmp_path, capsys):
        _, trace_dir = self._trace_dir(tmp_path)
        capsys.readouterr()
        assert main(["telemetry", "report", str(trace_dir)]) == 0
        out = capsys.readouterr().out
        assert "contract counters (partition-invariant):" in out
        assert "span attribution (root 'campaign'" in out

    def test_report_json_and_chrome(self, tmp_path, capsys):
        _, trace_dir = self._trace_dir(tmp_path)
        chrome_path = tmp_path / "chrome.json"
        assert main(["telemetry", "report", str(trace_dir),
                     "--chrome", str(chrome_path)]) == 0
        capsys.readouterr()
        assert main(["telemetry", "report", str(trace_dir),
                     "--json", "-"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["attribution"]["root"] == "campaign"
        chrome = json.loads(chrome_path.read_text())
        merged = merge_traces(trace_files(trace_dir))
        assert merged_from_chrome(chrome) == merged

    def test_campaign_report_trace(self, tmp_path, capsys):
        spec_path, trace_dir = self._trace_dir(tmp_path)
        capsys.readouterr()
        assert main(["campaign", "report", str(spec_path),
                     "--store", str(tmp_path / "s.sqlite"),
                     "--trace", str(trace_dir)]) == 0
        assert "engine telemetry:" in capsys.readouterr().out

    def test_report_errors_on_empty_dir(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["telemetry", "report", str(empty)]) == 1
        assert "no trace" in capsys.readouterr().err


SEEDED_SPEC_DICT = {
    "name": "telemetry-seeded",
    "draws": 8,
    "models": ["strict"],
    "applications": [
        {"synthetic": {"n_stages": 3, "shape": "balanced", "scale": 8.0}},
    ],
    "platforms": [{"n_procs": 12}],
    "replications": [{"fixed": [3, 4, 5], "assignment": "blocks"}],
}


class TestSeedCounters:
    def test_strict_lcm60_drain_seeds_every_lockstep_row(self, tmp_path):
        spec = CampaignSpec.from_dict(SEEDED_SPEC_DICT)
        with ResultStore(tmp_path / "s.sqlite") as store:
            run_campaign(spec, store, trace_dir=tmp_path / "trace")
            counters = merge_traces(trace_files(tmp_path / "trace"))[
                "counters"]
            data = campaign_report_data(spec, store, counters=counters)
        rows = counters["howard.lockstep_rows"]
        assert counters["howard.seeded_rows"] == rows == spec.n_points
        assert "howard.uncertified" not in counters
        assert data["telemetry"]["not_done"]["uncertified_rows"] == 0
        assert "; 0 uncertified row(s); " in render_report_text(data)

    def test_mixed_pinned_drain_seeds_every_lockstep_row(self, tmp_path):
        # [2,3,2] (the mixed campaign's pinned counts): a small,
        # token-dense SCC (n/k = 30/7) is seeded and certified too.
        spec = CampaignSpec.from_dict(dict(
            SEEDED_SPEC_DICT, platforms=[{"n_procs": 8}],
            replications=[{"fixed": [2, 3, 2], "assignment": "blocks"}]))
        with ResultStore(tmp_path / "s.sqlite") as store:
            run_campaign(spec, store, trace_dir=tmp_path / "trace")
        counters = merge_traces(trace_files(tmp_path / "trace"))["counters"]
        assert counters["howard.lockstep_rows"] == spec.n_points
        assert counters["howard.seeded_rows"] == spec.n_points
        assert "howard.uncertified" not in counters

    def test_rejected_certificate_is_counted(self):
        import numpy as np

        from repro.maxplus import howard
        from repro.maxplus.graph import RatioGraph

        # Two 2-cycles through node 0 with equal ratios: the tie leaves a
        # non-policy edge at reduced cost 0, so the row is recomputed cold.
        g = RatioGraph(3, [(0, 1, 1.0, 1), (1, 0, 1.0, 1),
                           (0, 2, 1.0, 1), (2, 0, 1.0, 1)])
        plan = howard.prepare_howard(g)
        TELEMETRY.enable("seed")
        try:
            (res,) = howard.solve_prepared_many(plan, g.weight[None, :])
        finally:
            TELEMETRY.disable()
        counters = TELEMETRY.counter_snapshot()
        assert counters["howard.seeded_rows"] == 1
        assert counters["howard.uncertified"] == 1
        assert res == howard.solve_prepared(plan, g.weight)
        assert np.float64(res.value) == 1.0
