"""Tests for the beyond-paper extensions (mapping search, dynamic platforms)."""

import numpy as np
import pytest

from repro import Application, Instance, Mapping, Platform, compute_period
from repro.extensions import (
    DynamicPlatformModel,
    greedy_mapping,
    local_search_mapping,
    random_mapping,
    simulate_dynamic,
)
from repro.extensions import mapping_opt
from repro.extensions.mapping_opt import _neighborhood_moves

from .conftest import collecting


def small_problem():
    app = Application(works=[4.0, 12.0, 4.0], file_sizes=[1.0, 1.0])
    plat = Platform.homogeneous(6, speed=1.0, bandwidth=1.0)
    return app, plat


class TestRandomMapping:
    def test_valid_and_deterministic(self):
        app, plat = small_problem()
        rng = np.random.default_rng(3)
        m1 = random_mapping(app, plat, rng)
        m2 = random_mapping(app, plat, np.random.default_rng(3))
        assert m1 == m2
        assert m1.n_stages == 3
        assert max(m1.used_processors) < 6


class TestGreedy:
    def test_replicates_the_heavy_stage(self):
        """Stage 1 is 3x heavier: greedy should replicate it first."""
        app, plat = small_problem()
        res = greedy_mapping(app, plat, "overlap")
        assert res.mapping.replication(1) >= 2
        # trace is monotone decreasing
        assert all(a >= b for a, b in zip(res.trace, res.trace[1:]))

    def test_beats_singleton_mapping(self):
        app, plat = small_problem()
        res = greedy_mapping(app, plat, "overlap")
        base = Instance(app, plat, Mapping([(0,), (1,), (2,)]))
        assert res.period <= compute_period(base, "overlap").period + 1e-12

    def test_needs_enough_processors(self):
        app, _ = small_problem()
        with pytest.raises(Exception):
            greedy_mapping(app, Platform.homogeneous(2))


class TestLocalSearch:
    def test_improves_or_matches_start(self):
        app, plat = small_problem()
        rng = np.random.default_rng(11)
        start = random_mapping(app, plat, rng)
        base = compute_period(Instance(app, plat, start), "overlap").period
        res = local_search_mapping(app, plat, "overlap", rng=rng, start=start,
                                   max_iters=20)
        assert res.period <= base + 1e-12
        assert res.evaluations > 0

    def test_every_move_of_a_valid_mapping_is_valid(self):
        # The scan takes candidate ``pos`` as moves[order[cursor + pos]]
        # (mapping_opt._climb), so no move may be invalid.
        rng = np.random.default_rng(12)
        checked = 0
        for _ in range(80):
            p = int(rng.integers(2, 9))
            n = int(rng.integers(1, min(p, 4) + 1))
            app = Application(works=[1.0] * n, file_sizes=[1.0] * (n - 1))
            plat = Platform.homogeneous(p)
            m = random_mapping(app, plat, rng)
            for move in _neighborhood_moves([list(s) for s in m.assignments]):
                Mapping([tuple(s) for s in move], n_processors=p)
                checked += 1
        assert checked > 500

    def test_serial_scan_builds_only_reached_candidates(self, monkeypatch):
        built = []

        class Counted(Mapping):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        app, plat = small_problem()
        start = random_mapping(app, plat, np.random.default_rng(11))
        monkeypatch.setattr(mapping_opt, "Mapping", Counted)
        res = local_search_mapping(app, plat, "overlap", start=start,
                                   rng=np.random.default_rng(5), max_iters=8)
        # One build per scanned candidate (the start is the caller's).
        assert 0 < len(built) <= res.evaluations

    def test_shared_engine_reused_across_searches(self):
        from repro.engine import BatchEngine

        app, plat = small_problem()
        engine = BatchEngine(max_rows=3001)
        # STRICT resolves to the TPN method, which exercises the cache.
        first = greedy_mapping(app, plat, "strict", engine=engine)
        with collecting() as tel:
            second = greedy_mapping(app, plat, "strict", engine=engine)
        assert first.period == second.period
        # The second search re-proposes the same mappings: all hits.
        assert tel.counters.get("engine.skeleton_builds", 0) == 0
        assert tel.counters["engine.cache_hits"] > 0

    def test_heterogeneous_prefers_fast_processors(self):
        app = Application(works=[1.0, 1.0], file_sizes=[0.001])
        plat = Platform(
            speeds=[10.0, 10.0, 0.1, 0.1],
            bandwidths=np.where(np.eye(4, dtype=bool), 0.0, 100.0),
        )
        res = greedy_mapping(app, plat, "overlap")
        used = set(res.mapping.used_processors[:2])
        assert used == {0, 1}


class TestDynamicPlatforms:
    def test_zero_spread_is_nominal(self):
        from repro.experiments import example_b

        dist = simulate_dynamic(
            example_b(), "overlap",
            DynamicPlatformModel(speed_spread=0.0, bandwidth_spread=0.0),
            n_epochs=5,
        )
        assert np.allclose(dist.periods, dist.nominal_period)
        assert dist.degradation == pytest.approx(0.0)

    def test_deterministic_given_seed(self):
        from repro.experiments import example_b

        mdl = DynamicPlatformModel(speed_spread=0.3, bandwidth_spread=0.3)
        a = simulate_dynamic(example_b(), "overlap", mdl, n_epochs=10, seed=4)
        b = simulate_dynamic(example_b(), "overlap", mdl, n_epochs=10, seed=4)
        assert np.array_equal(a.periods, b.periods)

    def test_slowdowns_hurt(self):
        """With only slowdowns possible (lognormal floor via negative...),
        use uniform noise and check the mean period is near nominal and
        the 95th percentile above it."""
        from repro.experiments import example_b

        mdl = DynamicPlatformModel(speed_spread=0.4, bandwidth_spread=0.4)
        dist = simulate_dynamic(example_b(), "overlap", mdl, n_epochs=60, seed=1)
        assert dist.quantile(0.95) >= dist.nominal_period * 0.9
        assert dist.mean_throughput > 0

    def test_lognormal_law(self):
        from repro.experiments import example_b

        mdl = DynamicPlatformModel(speed_spread=0.2, bandwidth_spread=0.2,
                                   law="lognormal")
        dist = simulate_dynamic(example_b(), "overlap", mdl, n_epochs=10, seed=2)
        assert np.all(dist.periods > 0)

    def test_unknown_law_rejected(self):
        with pytest.raises(ValueError):
            DynamicPlatformModel(law="cauchy")
