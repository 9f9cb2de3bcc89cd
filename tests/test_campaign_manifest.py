"""Digest manifests: resume, status and export without re-materializing.

A drain writes the packed digests of its spec's points to the store's
``manifests`` table.  Every reader re-derives a seeded sample of them
and falls back to full materialization on any doubt.  These tests pin
that the manifest changes no output, that a stale or malformed manifest
is caught and counted, and that sync and recovery carry no manifest.
"""

from __future__ import annotations

import dataclasses
import sqlite3
from pathlib import Path
from typing import Any, Callable

import pytest

from repro import Application, Instance, Platform, compute_period
from repro.campaign import (
    CampaignPoint,
    CampaignSpec,
    ResultStore,
    campaign_report_data,
    campaign_status,
    export_campaign_csv,
    export_campaign_json,
    export_campaign_report,
    instance_digest,
    merge_stores,
    pull,
    push,
    render_report_text,
    run_campaign,
    run_campaign_worker,
)
from repro.campaign.executor import _manifest_sample
from repro.campaign.store import manifest_key
from repro.engine import BatchEngine, skeleton
from repro.errors import SolverError
from repro.experiments.examples_paper import example_a
from repro.maxplus import cycle_ratio
from repro.telemetry import TELEMETRY, merge_traces, trace_files
from repro.utils import canonical_json
from repro.workloads import CATALOG

from .conftest import collecting
from .test_golden_digests import SPEC as GOLDEN_SPEC

SPEC_DICT = {
    "name": "manifest-test",
    "draws": 6,
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

#: More grid cells (18) than :data:`SAMPLE`, two points each.
MANY_CELLS = {
    "name": "manifest-cells",
    "draws": 2,
    "models": ["overlap", "strict"],
    "applications": [
        {"synthetic": {"n_stages": 3, "shape": shape}}
        for shape in ("balanced", "random", "shrinking")
    ],
    "platforms": [
        {"label": "u6", "n_procs": 6},
        {"label": "u8", "n_procs": 8},
        {"label": "t8", "n_procs": 8, "comp_time_range": [5.0, 15.0]},
    ],
    "max_paths": 200,
}

#: Points every manifest use re-derives (``executor._MANIFEST_SAMPLE``).
SAMPLE = 16


@pytest.fixture(scope="module")
def spec() -> CampaignSpec:
    spec = CampaignSpec.from_dict(SPEC_DICT)
    assert spec.n_points > 2 * SAMPLE
    return spec


@pytest.fixture(scope="module")
def reference(spec) -> dict[str, Any]:
    """Outputs of a plain serial drain into an in-memory store."""
    with ResultStore(":memory:") as store:
        run_campaign(spec, store)
        return _outputs(spec, store)


@pytest.fixture()
def instance_calls(monkeypatch) -> list[int]:
    """Indices of the points ``CampaignPoint.instance`` materializes."""
    calls: list[int] = []
    instance = CampaignPoint.instance

    def counted(self):
        calls.append(self.index)
        return instance(self)

    monkeypatch.setattr(CampaignPoint, "instance", counted)
    return calls


def _outputs(spec: CampaignSpec, store: ResultStore) -> dict[str, Any]:
    """Every read-side output, then a resume's report."""
    return {
        "status": canonical_json(campaign_status(spec, store)),
        "json": export_campaign_json(spec, store),
        "csv": export_campaign_csv(spec, store),
        "report": export_campaign_report(spec, store),
        "resume": run_campaign(spec, store).to_dict(),
    }


def _traced(step: Callable[[], Any]) -> tuple[Any, dict[str, int]]:
    """``step()`` and the telemetry counters it recorded."""
    TELEMETRY.enable()
    try:
        result = step()
    finally:
        TELEMETRY.disable()
    return result, TELEMETRY.counter_snapshot()


def _manifests(store: ResultStore) -> int:
    return int(store.connection.execute(
        "SELECT COUNT(*) FROM manifests").fetchone()[0])


def _entry(blob: bytes, i: int) -> bytes:
    return blob[32 * i: 32 * i + 32]


def _replaced(blob: bytes, i: int, entry: bytes) -> bytes:
    return blob[: 32 * i] + entry + blob[32 * i + 32:]


def _drained(spec: CampaignSpec, path: Path) -> None:
    with ResultStore(path) as store:
        run_campaign(spec, store)


class TestOutputsUnchanged:
    def test_identical_with_and_without_manifest(self, spec, reference,
                                                 tmp_path):
        path = tmp_path / "s.sqlite"
        _drained(spec, path)
        with ResultStore(path) as store:
            assert _manifests(store) == 1
            assert _outputs(spec, store) == reference
        conn = sqlite3.connect(path)
        conn.execute("DROP TABLE manifests")
        conn.commit()
        conn.close()
        with ResultStore(path) as store:
            assert _manifests(store) == 0
            assert _outputs(spec, store) == reference
            # the resume at the end of _outputs rewrote the manifest
            assert _manifests(store) == 1

    def test_readers_count_hits_and_never_write(self, spec, tmp_path):
        path = tmp_path / "s.sqlite"
        _drained(spec, path)
        with ResultStore(path) as store:
            key = manifest_key(spec)
            store.connection.execute("DELETE FROM manifests")
            readers = (campaign_status, export_campaign_json,
                       export_campaign_csv, export_campaign_report)
            _, counters = _traced(lambda: [read(spec, store)
                                           for read in readers])
            assert counters["store.manifest_misses"] == len(readers)
            assert store._manifest(key) is None
            run_campaign(spec, store)
            _, counters = _traced(lambda: [read(spec, store)
                                           for read in readers])
            assert counters["store.manifest_hits"] == len(readers)
            assert "store.manifest_misses" not in counters


class TestMaterialization:
    def test_readers_materialize_only_the_sample(self, spec, tmp_path,
                                                 instance_calls):
        with ResultStore(tmp_path / "s.sqlite") as store:
            run_campaign(spec, store)
            assert sorted(set(instance_calls)) == list(range(spec.n_points))
            samples = []
            for step in (run_campaign, campaign_status, export_campaign_json,
                         export_campaign_csv, export_campaign_report):
                instance_calls.clear()
                step(spec, store)
                assert len(instance_calls) == SAMPLE
                samples.append(sorted(instance_calls))
        # the sample is seeded by the manifest key: the same every time
        assert all(sample == samples[0] for sample in samples)

    def test_partial_drain_writes_full_manifest(self, spec, tmp_path,
                                                instance_calls):
        with ResultStore(tmp_path / "s.sqlite") as store:
            first = run_campaign(spec, store, max_points=5)
            assert first.evaluated == 5
            expected = b"".join(
                bytes.fromhex(instance_digest(pt.instance(), pt.model))
                for pt in spec.expand())
            assert store._manifest(manifest_key(spec)) == expected
            instance_calls.clear()
            second, counters = _traced(lambda: run_campaign(spec, store))
            assert (second.hits, second.evaluated, second.remaining) == (
                5, spec.n_points - 5, 0)
            assert counters["store.manifest_hits"] == 1
            # the sample plus the pending points, nothing else
            assert len(instance_calls) == SAMPLE + spec.n_points - 5

    def test_fabric_drains_write_manifest(self, spec, tmp_path):
        key = manifest_key(spec)
        with ResultStore(tmp_path / "w.sqlite") as worker_store:
            run_campaign_worker(spec, worker_store, "w-0")
            blob = worker_store._manifest(key)
        with ResultStore(tmp_path / "f.sqlite") as fabric_store:
            run_campaign(spec, fabric_store, n_jobs=2)
            assert fabric_store._manifest(key) == blob
        assert blob is not None and len(blob) == 32 * spec.n_points


class TestStaleManifest:
    def test_stale_sampled_entry_falls_back(self, spec, reference, tmp_path,
                                            instance_calls):
        with ResultStore(tmp_path / "s.sqlite") as store:
            run_campaign(spec, store)
            key = manifest_key(spec)
            blob = store._manifest(key)
            instance_calls.clear()
            campaign_status(spec, store)
            i = instance_calls[0]  # sampled first
            j = next(k for k in range(spec.n_points)
                     if _entry(blob, k) != _entry(blob, i))
            store._put_manifest(key, _replaced(blob, i, _entry(blob, j)))

            instance_calls.clear()
            exports, counters = _traced(lambda: (
                export_campaign_json(spec, store),
                export_campaign_csv(spec, store)))
            assert counters["store.manifest_misses"] == 2
            assert "store.manifest_hits" not in counters
            # each export re-derived every point
            assert instance_calls.count(j) == 2
            assert exports == (reference["json"], reference["csv"])
            assert run_campaign(spec, store).evaluated == 0
            assert store._manifest(key) == blob

    def test_stale_pending_entry_falls_back(self, spec, reference, tmp_path,
                                            instance_calls):
        with ResultStore(tmp_path / "s.sqlite") as store:
            run_campaign(spec, store, max_points=5)
            key = manifest_key(spec)
            blob = store._manifest(key)
            instance_calls.clear()
            campaign_status(spec, store)
            sampled = set(instance_calls)
            pending = [k for k in range(spec.n_points)
                       if k not in sampled
                       and _entry(blob, k).hex() not in store]
            # point i claims the digest of a later pending point j
            i, j = pending[0], pending[-1]
            store._put_manifest(key, _replaced(blob, i, _entry(blob, j)))

            report, counters = _traced(lambda: run_campaign(spec, store))
            assert counters["store.manifest_misses"] == 1
            assert report.evaluated == spec.n_points - 5
            assert store._manifest(key) == blob
            assert export_campaign_json(spec, store) == reference["json"]

    @pytest.mark.parametrize("change", ["short", "long"])
    def test_wrong_length_is_a_miss(self, spec, reference, tmp_path, change):
        with ResultStore(tmp_path / "s.sqlite") as store:
            run_campaign(spec, store)
            key = manifest_key(spec)
            blob = store._manifest(key)
            store._put_manifest(
                key, blob[:-32] if change == "short" else blob + blob[:32])
            text, counters = _traced(
                lambda: export_campaign_json(spec, store))
            assert counters["store.manifest_misses"] == 1
            assert text == reference["json"]


#: A one-point spec: every forked drain of it has an empty share.
ONE_POINT = {
    "name": "manifest-one",
    "draws": 1,
    "models": ["strict"],
    "applications": [{"synthetic": {"n_stages": 3, "shape": "balanced"}}],
    "platforms": [{"n_procs": 8}],
    "replications": [{"fixed": [1, 2, 3], "assignment": "blocks"}],
    "max_paths": 200,
}


def _prepare(case: str, spec: CampaignSpec, path: Path) -> None:
    """Leave the store at ``path`` in the state ``case`` names."""
    with ResultStore(path) as store:
        if case in ("cold", "one-point"):
            return
        run_campaign(spec, store, max_points=spec.n_points // 2)
        if case == "stale":
            key = manifest_key(spec)
            blob = store._manifest(key)
            sampled = set(_manifest_sample(key, spec.expand()))
            pending = [k for k in range(spec.n_points) if k not in sampled
                       and _entry(blob, k).hex() not in store]
            # point i claims the digest of a later pending point j
            i, j = pending[0], pending[-1]
            store._put_manifest(key, _replaced(blob, i, _entry(blob, j)))


def _drain_leg(spec: CampaignSpec, path: Path, n_jobs: int | None,
               trace: Path, max_points: int | None = None) -> dict[str, Any]:
    """One drain of a prepared store copy, and what it must agree on."""
    with ResultStore(path) as store:
        report = run_campaign(spec, store, n_jobs=n_jobs, trace_dir=trace,
                              max_points=max_points)
        outputs = {
            "report": {k: v for k, v in report.to_dict().items()
                       if k != "workers"},
            "manifest": store._manifest(manifest_key(spec)),
            "json": export_campaign_json(spec, store, allow_partial=True),
            "csv": export_campaign_csv(spec, store, allow_partial=True),
        }
    counters = merge_traces(trace_files(trace))["counters"]
    outputs["manifest_uses"] = {
        name: counters.get(name, 0)
        for name in ("store.manifest_hits", "store.manifest_misses")}
    assert counters.get("store.scans", 0) == 0
    return outputs


class TestShareParity:
    """Forked workers materialize and digest their own shares of spec
    order; the parent joins their records.  Every output must equal a
    serial drain's, from any starting state of the store."""

    @pytest.mark.parametrize("case", ["cold", "half", "stale", "one-point"])
    def test_forked_drains_equal_serial(self, spec, tmp_path, case):
        grid = CampaignSpec.from_dict(ONE_POINT) if case == "one-point" \
            else spec
        if case == "one-point":
            assert grid.n_points == 1
        prepared = tmp_path / "prepared.sqlite"
        _prepare(case, grid, prepared)
        legs = {}
        for n_jobs in (None, 2, 4):
            path = tmp_path / f"jobs-{n_jobs}.sqlite"
            path.write_bytes(prepared.read_bytes())
            legs[n_jobs] = _drain_leg(grid, path, n_jobs,
                                      tmp_path / f"trace-{n_jobs}")
        serial = legs[None]
        assert sum(serial["manifest_uses"].values()) == 1
        assert serial["report"]["complete"]
        assert serial["manifest"] is not None
        assert serial["manifest_uses"]["store.manifest_hits"] == (
            case == "half")
        assert legs[2] == serial
        assert legs[4] == serial

    @pytest.mark.parametrize("case", ["cold", "half"])
    def test_truncated_forked_drains_equal_serial(self, spec, tmp_path,
                                                  case):
        """A ``max_points`` drain hands its workers the indices of the
        first pending points in engine order: the same points a serial
        drain stores, and the same report and manifest."""
        prepared = tmp_path / "prepared.sqlite"
        _prepare(case, spec, prepared)
        legs = {}
        for n_jobs in (None, 2, 4):
            path = tmp_path / f"jobs-{n_jobs}.sqlite"
            path.write_bytes(prepared.read_bytes())
            legs[n_jobs] = _drain_leg(spec, path, n_jobs,
                                      tmp_path / f"trace-{n_jobs}",
                                      max_points=5)
        serial = legs[None]
        assert serial["report"]["evaluated"] == 5
        assert serial["report"]["remaining"] > 0
        assert sum(serial["manifest_uses"].values()) == 1
        assert legs[2] == serial
        assert legs[4] == serial


class TestMaterializationEdits:
    """A manifest is never trusted across a change in what its points
    materialize to, even one confined to a minority of the spec."""

    def test_sample_covers_every_cell(self, spec):
        for grid in (spec, CampaignSpec.from_dict(MANY_CELLS)):
            points = grid.expand()
            cells = {pt.cell for pt in points}
            sample = _manifest_sample(manifest_key(grid), points)
            assert len(sample) == max(SAMPLE, len(cells))
            assert {points[i].cell for i in sample} == cells

    def test_catalog_edit_changes_the_key(self, spec, tmp_path,
                                          monkeypatch):
        with ResultStore(tmp_path / "s.sqlite") as store:
            run_campaign(spec, store)
            entry = CATALOG["audio-pipeline"]
            app = entry.application
            monkeypatch.setitem(CATALOG, "audio-pipeline", dataclasses.replace(
                entry, application=Application(
                    works=[2 * w for w in app.works],
                    file_sizes=app.file_sizes, name=app.name)))
            edited = CampaignSpec.from_dict(SPEC_DICT)
            assert edited.to_dict() == spec.to_dict()
            assert manifest_key(edited) != manifest_key(spec)
            status, counters = _traced(lambda: campaign_status(edited, store))
            assert counters["store.manifest_misses"] == 1
            audio = sum(pt.application.workload == "audio-pipeline"
                        for pt in edited.expand())
            assert 0 < audio < edited.n_points
            assert status["done"] == edited.n_points - audio

    def test_one_cell_edit_is_sampled(self, tmp_path, monkeypatch):
        grid = CampaignSpec.from_dict(MANY_CELLS)
        cells = sorted({pt.cell for pt in grid.expand()})
        assert len(cells) > SAMPLE
        instance = CampaignPoint.instance
        edited_cell: list[tuple[str, str, str, str]] = []

        def edited(self):
            inst = instance(self)
            if self.cell not in edited_cell:
                return inst
            plat = inst.platform
            return Instance(inst.application,
                            Platform(2 * plat.speeds, plat.bandwidths,
                                     name=plat.name),
                            inst.mapping)

        with ResultStore(tmp_path / "s.sqlite") as store:
            run_campaign(grid, store)
            # an edit the manifest key cannot see, confined to one cell
            monkeypatch.setattr(CampaignPoint, "instance", edited)
            for cell in cells:
                edited_cell[:] = [cell]
                status, counters = _traced(
                    lambda: campaign_status(grid, store))
                assert counters["store.manifest_misses"] == 1, cell
                assert status["done"] == grid.n_points - grid.draws
            assert run_campaign(grid, store).evaluated == grid.draws


#: The perfbench campaign specs, whose manifests every resume checks.
_PERF_SPECS = Path(__file__).resolve().parents[1] / "perfbench" / "specs"

#: ``_manifest_sample(key, spec.expand())`` for three literal keys.  A
#: drift here makes a stored manifest fail its check on every resume.
SAMPLE_PINS = {
    ("mixed", ""): [49, 133, 165, 273, 385, 462, 531, 598, 701, 765, 874, 907, 1024, 1057, 1156, 1217],
    ("mixed", "k1"): [10, 146, 184, 271, 350, 425, 521, 624, 648, 779, 868, 889, 996, 1115, 1190, 1229],
    ("mixed", "sample-key"): [66, 133, 175, 310, 376, 472, 503, 599, 704, 790, 857, 946, 1035, 1112, 1137, 1236],
    ("shared_strict", ""): [197, 286, 287, 448, 515, 579, 620, 624, 736, 832, 979, 998, 1032, 1037, 1051, 1198],
    ("shared_strict", "k1"): [43, 115, 135, 149, 405, 474, 489, 566, 591, 665, 698, 949, 1027, 1029, 1103, 1125],
    ("shared_strict", "sample-key"): [267, 273, 384, 514, 589, 629, 662, 899, 928, 987, 1034, 1074, 1137, 1166, 1167, 1181],
    ("golden", ""): [1, 4, 6, 10, 14, 16, 19, 22, 25, 28, 32, 33, 38, 39, 43, 45, 48, 53, 55, 59, 62, 65, 66, 70, 72, 77, 78, 83, 85, 88, 92, 93, 97, 100, 103, 107],
    ("golden", "k1"): [0, 5, 6, 9, 12, 15, 20, 22, 26, 27, 31, 35, 36, 40, 44, 47, 48, 51, 56, 59, 60, 65, 68, 70, 74, 76, 79, 83, 86, 88, 91, 94, 96, 101, 104, 107],
    ("golden", "sample-key"): [2, 5, 8, 10, 14, 17, 20, 23, 24, 29, 32, 35, 37, 41, 44, 47, 48, 53, 55, 59, 62, 65, 67, 71, 74, 77, 80, 81, 85, 88, 90, 94, 96, 101, 104, 105],
}


class TestSamplePins:
    """The sampled indices are a function of the key and the spec's
    layout only, and they never drift."""

    @staticmethod
    def _spec(name: str) -> CampaignSpec:
        if name == "golden":
            return dataclasses.replace(CampaignSpec.from_dict(GOLDEN_SPEC),
                                       draws=3)
        return CampaignSpec.from_file(_PERF_SPECS / f"{name}.json")

    @pytest.mark.parametrize("name, key", sorted(SAMPLE_PINS))
    def test_sample_is_pinned(self, name, key):
        points = self._spec(name).expand()
        assert _manifest_sample(key, points) == SAMPLE_PINS[name, key]

    def test_repeated_cell_key_is_one_cell(self):
        """Two cells with one key (a model listed twice) are sampled as
        one cell, whose points are both runs."""
        grid = CampaignSpec.from_dict(
            dict(SPEC_DICT, models=["overlap", "overlap"]))
        points = grid.expand()
        runs = {pt.cell for pt in points}
        sample = _manifest_sample("k1", points)
        assert {points[i].cell for i in sample} == runs
        assert sample == [1, 3, 7, 10, 11, 15, 16, 17, 18, 19, 20, 24, 26,
                          27, 29, 35]


class TestOlderStores:
    def test_pre_manifest_store_resumes_and_exports(self, spec, reference,
                                                    tmp_path):
        path = tmp_path / "old.sqlite"
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE results ("
                     " digest TEXT PRIMARY KEY, payload TEXT NOT NULL)")
        with ResultStore(":memory:") as partial:
            run_campaign(spec, partial, max_points=5)
            conn.executemany("INSERT INTO results VALUES (?, ?)",
                             list(partial.items_text()))
        conn.commit()
        conn.close()
        with ResultStore(path) as store:
            assert _manifests(store) == 0
            report = run_campaign(spec, store)
            assert (report.hits, report.evaluated) == (5, spec.n_points - 5)
            assert _manifests(store) == 1
            assert export_campaign_json(spec, store) == reference["json"]
            assert export_campaign_csv(spec, store) == reference["csv"]

    def test_recover_drops_manifests(self, spec, reference, tmp_path):
        path = tmp_path / "s.sqlite"
        _drained(spec, path)
        store, salvaged = ResultStore.recover(path, force=True)
        with store:
            assert salvaged == spec.n_points
            assert _manifests(store) == 0
            assert export_campaign_json(spec, store) == reference["json"]
            assert run_campaign(spec, store).evaluated == 0
            assert _manifests(store) == 1


class TestSyncCarriesNoManifest:
    @pytest.mark.parametrize("how", ["pull", "push", "merge"])
    def test_synced_store_exports_same_bytes(self, spec, reference,
                                             tmp_path, how):
        src_path = tmp_path / "src.sqlite"
        dst_path = tmp_path / "dst.sqlite"
        _drained(spec, src_path)
        with ResultStore(src_path) as src, ResultStore(dst_path) as dst:
            if how == "pull":
                pull(dst, src_path)
            elif how == "push":
                push(src, dst_path)
            else:
                merge_stores(dst, src)
        with ResultStore(dst_path) as dst:
            assert len(dst) == spec.n_points
            assert _manifests(dst) == 0
            text, counters = _traced(lambda: export_campaign_json(spec, dst))
            assert counters["store.manifest_misses"] == 1
            assert text == reference["json"]
            # the destination's next drain writes its own manifest
            assert run_campaign(spec, dst).evaluated == 0
            assert _manifests(dst) == 1
            assert export_campaign_csv(spec, dst) == reference["csv"]


class TestReportNotDone:
    def test_not_done_section_from_traced_drain(self, spec, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            run_campaign(spec, store, trace_dir=tmp_path / "drain")
            run_campaign(spec, store, trace_dir=tmp_path / "resume")
            drain = merge_traces(trace_files(tmp_path / "drain"))["counters"]
            resume = merge_traces(trace_files(tmp_path / "resume"))[
                "counters"]
            data = campaign_report_data(spec, store, counters=drain)
            resumed = campaign_report_data(spec, store, counters=resume)
            plain = campaign_report_data(spec, store)
        assert "telemetry" not in plain
        not_done = data["telemetry"]["not_done"]
        assert not_done == {
            "manifest_hits": 0,
            "manifest_misses": 1,
            "patterns_solved": drain["poly.patterns_solved"],
            "patterns_pruned": drain["poly.patterns_pruned"],
            "uncertified_rows": 0,
            "lawler_fallbacks": 0,
            "lost_leases": 0,
        }
        assert not_done["patterns_solved"] > 0
        assert resumed["telemetry"]["not_done"]["manifest_hits"] == 1
        assert resumed["telemetry"]["not_done"]["manifest_misses"] == 0
        text = render_report_text(data)
        assert (f"not done       : {not_done['patterns_pruned']} Theorem-1 "
                f"pattern(s) pruned") in text
        assert "; 0 uncertified row(s); " in text

    def test_uncertified_rows_from_counters(self, spec, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            run_campaign(spec, store)
            data = campaign_report_data(
                spec, store, counters={"howard.uncertified": 3})
        assert data["telemetry"]["not_done"]["uncertified_rows"] == 3
        assert "; 3 uncertified row(s); " in render_report_text(data)

    def test_lawler_fallback_counted_and_reported(self, spec, tmp_path,
                                                  monkeypatch):
        # A Howard SolverError under solver="auto" switches the engine to
        # Lawler: counted, reported, and the period is the one
        # compute_period's own Lawler fallback returns.
        def diverge(*args, **kwargs):
            raise SolverError("forced non-convergence")

        inst = example_a()
        with monkeypatch.context() as m:
            m.setattr(skeleton, "solve_prepared", diverge)
            m.setattr(cycle_ratio, "max_cycle_ratio_howard", diverge)
            with collecting() as tel:
                got = BatchEngine().evaluate(inst, "strict", method="tpn")
            counters = tel.counter_snapshot()
            ref = compute_period(inst, "strict", method="tpn")
        assert counters["engine.lawler_fallbacks"] == 1
        assert got.tpn_solution.ratio.method == "lawler"
        assert ref.tpn_solution.ratio.method == "lawler"
        assert got.period == ref.period
        with ResultStore(tmp_path / "s.sqlite") as store:
            run_campaign(spec, store)
            data = campaign_report_data(spec, store, counters=counters)
        assert data["telemetry"]["not_done"]["lawler_fallbacks"] == 1
        assert "; 1 Lawler fallback(s); " in render_report_text(data)
