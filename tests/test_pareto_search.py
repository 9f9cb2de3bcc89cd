"""Tests for the multi-criteria Pareto portfolio (repro.search.pareto)."""

import numpy as np
import pytest

from repro import Application, Platform
from repro.errors import ValidationError
from repro.objectives import dominates
from repro.search import pareto_portfolio_search

from .conftest import collecting


def _app_plat(seed=5, n_procs=8):
    app = Application(works=[2.0, 9.0, 4.0, 6.0],
                      file_sizes=[3.0, 1.0, 2.0],
                      name="video-analytics")
    rng = np.random.default_rng(seed)
    bw = rng.uniform(2.0, 8.0, (n_procs, n_procs))
    np.fill_diagonal(bw, 0.0)
    plat = Platform(rng.uniform(1.0, 5.0, n_procs), bw)
    plat = plat.with_failure_rates(
        rng.uniform(0.01, 0.2, n_procs).tolist())
    return app, plat


def _search(**kw):
    app, plat = _app_plat()
    defaults = dict(objectives=("period", "latency"), n_restarts=3,
                    budget=150, max_iters=20, n_probes=4)
    defaults.update(kw)
    return pareto_portfolio_search(app, plat, "overlap", **defaults)


class TestBasics:
    def test_front_is_non_dominated(self):
        result = _search()
        front = result.front()
        assert front, "search must surface at least one mapping"
        vectors = [e.vector for e in front]
        for i, a in enumerate(vectors):
            for j, b in enumerate(vectors):
                if i != j:
                    assert not dominates(a, b)

    def test_budget_is_a_hard_cap(self):
        result = _search(budget=80)
        assert 0 < result.evaluations <= 80

    def test_objectives_canonicalized(self):
        result = _search(objectives="latency,period")
        assert result.objectives == ("period", "latency")

    def test_front_values_match_vectors(self):
        for entry in _search().front():
            assert entry.vector == entry.result.vector()
            assert entry.result.value("period") == entry.vector[0]

    def test_three_objectives(self):
        result = _search(
            objectives=("period", "latency", "reliability"))
        for entry in result.front():
            # reliability is negated into minimization space
            assert entry.vector[2] == -entry.result.value("reliability")
            assert 0.0 < entry.result.value("reliability") <= 1.0

    def test_period_only_degenerates_to_single_point(self):
        """One criterion: the archive collapses to the single best."""
        result = _search(objectives=("period",))
        assert len(result.front()) == 1

    def test_unknown_allocator_rejected(self):
        with pytest.raises(ValidationError):
            _search(allocator="simulated-annealing")


class TestDeterminism:
    def test_rerun_identical(self):
        a = _search().to_dict()
        b = _search().to_dict()
        assert a == b

    @pytest.mark.parametrize("model", ["overlap", "strict"])
    def test_serial_scan_evaluates_only_charged_points(self, model):
        # The serial climb evaluates one candidate at a time and stops at
        # the accepted move: no oracle call goes uncharged.
        app, plat = _app_plat(n_procs=10)
        with collecting() as tel:
            result = pareto_portfolio_search(
                app, plat, model, objectives=("period", "latency"),
                n_restarts=4, budget=400, max_iters=40)
        assert tel.counters["engine.points"] <= result.evaluations

    def test_seed_changes_trajectory(self):
        a = _search(root_seed=1)
        b = _search(root_seed=2)
        assert a.to_dict() != b.to_dict()


class TestAllocators:
    def test_both_strategies_run(self):
        eps = _search(allocator="epsilon-constraint")
        wts = _search(allocator="weighted-sum")
        assert eps.allocator == "epsilon-constraint"
        assert wts.allocator == "weighted-sum"
        assert eps.front() and wts.front()

    def test_weighted_sum_deterministic(self):
        a = _search(allocator="weighted-sum").to_dict()
        b = _search(allocator="weighted-sum").to_dict()
        assert a == b

    def test_records_cover_directions(self):
        result = _search()
        assert len(result.records) == len(result.directions)
        spent = sum(r.evaluations for r in result.records)
        assert spent <= result.evaluations
