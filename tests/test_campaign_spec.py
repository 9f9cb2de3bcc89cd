"""Tests for campaign specs: expansion determinism and serialization."""

from __future__ import annotations

import pytest

from repro.campaign import (
    ApplicationAxis,
    CampaignSpec,
    PlatformAxis,
    ReplicationAxis,
)
from repro.errors import ValidationError

BASE = {
    "name": "spec-test",
    "draws": 3,
    "models": ["overlap", "strict"],
    "applications": [
        {"workload": "audio-pipeline"},
        {"synthetic": {"n_stages": 3, "shape": "comm-heavy"}},
    ],
    "platforms": [
        {"n_procs": 8},
        {"n_procs": 7, "kind": "times"},
    ],
    "replications": [
        {"policy": "balls"},
        {"fixed": [1, 2, 3], "assignment": "blocks"},
    ],
    "max_paths": 300,
}


def spec(**overrides) -> CampaignSpec:
    return CampaignSpec.from_dict({**BASE, **overrides})


class TestExpansion:
    def test_deterministic(self):
        a = spec().expand()
        b = spec().expand()
        assert [(p.index, p.cell, p.draw, p.seed) for p in a] == \
               [(p.index, p.cell, p.draw, p.seed) for p in b]

    def test_instances_rematerialize_identically(self):
        points = spec().expand()
        for p in points[:6]:
            inst_a, inst_b = p.instance(), p.instance()
            assert inst_a.to_dict() == inst_b.to_dict()

    def test_indices_sequential(self):
        points = spec().expand()
        assert [p.index for p in points] == list(range(len(points)))

    def test_infeasible_cells_excluded(self):
        # the fixed [1,2,3] axis fits the 3-stage synthetic app only
        points = spec().expand()
        fixed = [p for p in points if p.replication.policy == "fixed"]
        assert fixed and all(
            p.application.label == "synthetic-comm-heavy-3" for p in fixed
        )

    def test_seeds_survive_axis_growth(self):
        """Adding an axis never reseeds existing cells (store reuse)."""
        small = spec()
        grown = spec(platforms=BASE["platforms"] + [{"n_procs": 12}])
        small_seeds = {(p.cell, p.draw): p.seed for p in small.expand()}
        grown_seeds = {(p.cell, p.draw): p.seed for p in grown.expand()}
        for key, seed in small_seeds.items():
            assert grown_seeds[key] == seed

    def test_seeds_differ_across_cells_and_campaigns(self):
        points = spec().expand()
        assert len({p.seed for p in points}) == len(points)
        other = spec(name="other-name").expand()
        assert points[0].seed != other[0].seed

    def test_blocks_assignment_shares_topology(self):
        points = [p for p in spec().expand()
                  if p.replication.policy == "fixed"]
        mappings = {p.instance().mapping.assignments for p in points}
        assert len(mappings) == 1

    def test_n_points_matches_expand(self):
        s = spec()
        assert s.n_points == len(s.expand())


class TestSerialization:
    def test_dict_roundtrip(self):
        s = spec()
        clone = CampaignSpec.from_dict(s.to_dict())
        assert clone == s
        assert [p.seed for p in clone.expand()] == \
               [p.seed for p in s.expand()]

    def test_json_file(self, tmp_path):
        import json

        path = tmp_path / "spec.json"
        path.write_text(json.dumps(BASE))
        assert CampaignSpec.from_file(path) == spec()

    def test_toml_file(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "spec.toml"
        path.write_text(
            'name = "toml-test"\n'
            'draws = 2\n'
            'models = ["overlap"]\n'
            '[[applications]]\n'
            'workload = "video-transcode"\n'
            '[[platforms]]\n'
            'n_procs = 9\n'
            '[[replications]]\n'
            'policy = "greedy-spare"\n'
        )
        s = CampaignSpec.from_file(path)
        assert s.name == "toml-test"
        assert s.n_points == 2
        assert s.replications[0].policy == "greedy-spare"


class TestValidation:
    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            spec(applications=[{"workload": "nope"}])

    def test_unknown_model(self):
        with pytest.raises(ValidationError):
            spec(models=["bogus"])

    def test_empty_axis(self):
        with pytest.raises(ValidationError):
            spec(platforms=[])

    def test_duplicate_labels(self):
        with pytest.raises(ValidationError):
            spec(platforms=[{"n_procs": 8}, {"n_procs": 8}])

    def test_blocks_requires_fixed(self):
        with pytest.raises(ValidationError):
            ReplicationAxis(label="x", policy="balls", assignment="blocks")

    def test_bad_draws(self):
        with pytest.raises(ValidationError):
            spec(draws=0)

    def test_missing_section(self):
        with pytest.raises(ValidationError):
            CampaignSpec.from_dict({"name": "x", "draws": 1})

    def test_axis_kinds_validated(self):
        with pytest.raises(ValidationError):
            ApplicationAxis(label="x", kind="bogus")
        with pytest.raises(ValidationError):
            PlatformAxis(label="x", n_procs=4, kind="bogus")
        with pytest.raises(ValidationError):
            ReplicationAxis(label="x", policy="bogus")


class TestAxisDraws:
    def test_cluster_regime_shapes(self):
        import numpy as np

        axis = PlatformAxis.from_dict({
            "n_procs": 8, "clusters": 2,
            "cluster_factor_range": [10.0, 10.0],
            "intra_bandwidth_factor": 3.0,
            "speed_range": [1.0, 1.0], "bandwidth_range": [1.0, 1.0],
        })
        plat = axis.draw(np.random.default_rng(0))
        # degenerate ranges make the cluster structure exact
        assert np.allclose(plat.speeds, 10.0)
        assert plat.bandwidths[0, 1] == 3.0   # intra-cluster
        assert plat.bandwidths[0, 7] == 1.0   # cross-cluster

    def test_times_regime_uses_from_comm_times(self):
        import numpy as np

        axis = PlatformAxis.from_dict({
            "n_procs": 4, "kind": "times",
            "comp_time_range": [2.0, 2.0], "comm_time_range": [4.0, 4.0],
        })
        plat = axis.draw(np.random.default_rng(0))
        assert np.allclose(plat.speeds, 0.5)
        assert plat.bandwidths[0, 1] == 0.25


class TestMaterialization:
    """Per-axis constants are built once; per-point layouts keep their bytes."""

    def test_axis_application_built_once(self):
        for data in ({"workload": "audio-pipeline"},
                     {"synthetic": {"n_stages": 4, "shape": "random",
                                    "seed": 3}}):
            axis = ApplicationAxis.from_dict(data)
            assert axis.application() is axis.application()
            # a fresh, equal axis rebuilds an equal application
            assert ApplicationAxis.from_dict(data).application() == \
                axis.application()

    def test_blocks_points_share_one_mapping(self):
        points = [p for p in spec().expand()
                  if p.replication.assignment == "blocks"
                  and p.platform.n_procs == 8]
        mappings = {id(p.instance().mapping) for p in points}
        assert len(points) > 1 and len(mappings) == 1
        assert points[0].instance().mapping.assignments == (
            (0,), (1, 2), (3, 4, 5))

    @pytest.mark.parametrize("policy", ["balls", "greedy-spare", "fixed"])
    def test_layout_matches_elementwise_reference(self, policy):
        # reference: the numpy-slice layout with one int() per element
        import numpy as np

        from repro.experiments.generator import random_replication

        axis = ReplicationAxis.from_dict(
            {"policy": policy, "counts": [2, 1, 3], "assignment": "random"})
        for seed in range(40):
            rng = np.random.default_rng(seed)
            mapping = axis.draw_mapping(3, 9, rng, 300)
            ref_rng = np.random.default_rng(seed)
            counts = ((2, 1, 3) if policy == "fixed" else random_replication(
                3, 9, ref_rng, max_paths=300, method=policy))
            order = ref_rng.permutation(9)
            bounds = np.cumsum((0,) + counts)
            assert mapping.assignments == tuple(
                tuple(int(u) for u in order[bounds[i]: bounds[i + 1]])
                for i in range(3))
            assert all(type(u) is int for u in mapping.used_processors)
            # the generator is left in the same state
            assert rng.random() == ref_rng.random()

    def test_fixed_validation_still_runs_for_blocks(self):
        import numpy as np

        axis = ReplicationAxis.from_dict({"fixed": [2, 2],
                                          "assignment": "blocks"})
        rng = np.random.default_rng(0)
        assert axis.draw_mapping(2, 4, rng, 10).assignments == (
            (0, 1), (2, 3))
        with pytest.raises(ValidationError):
            axis.draw_mapping(2, 3, rng, 10)
        with pytest.raises(ValidationError):
            axis.draw_mapping(3, 8, rng, 10)
