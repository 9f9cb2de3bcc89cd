"""The repro.search portfolio subsystem: budget, seeding, determinism."""

import json
import zlib

import numpy as np
import pytest

from repro import Application, Platform
from repro.engine import BatchEngine
from repro.errors import ValidationError
from repro.experiments.io import portfolio_to_json, restarts_to_csv
from repro.extensions import (
    greedy_mapping,
    local_search_mapping,
    perturb_mapping,
    random_mapping,
)
from repro.search import (
    EvaluationBudget,
    PortfolioResult,
    pareto_portfolio_search,
    portfolio_search,
    portfolio_seeds,
)

from .conftest import collecting

APP = Application(works=[2.0, 9.0, 4.0], file_sizes=[3.0, 1.0],
                  name="test-portfolio")


def make_platform(seed=5, n=8):
    rng = np.random.default_rng(seed)
    speeds = rng.uniform(1.0, 5.0, n)
    bw = rng.uniform(2.0, 8.0, (n, n))
    np.fill_diagonal(bw, 0.0)
    return Platform(speeds, bw)


class TestEvaluationBudget:
    def test_take_caps_at_limit(self):
        b = EvaluationBudget(3)
        assert b.take() == 1
        assert b.take(5) == 2
        assert b.take() == 0
        assert b.spent == 3 and b.remaining == 0 and b.exhausted

    def test_unlimited(self):
        b = EvaluationBudget(None)
        assert b.take(10_000) == 10_000
        assert b.remaining is None and not b.exhausted

    def test_negative_take_rejected(self):
        with pytest.raises(ValueError):
            EvaluationBudget(5).take(-1)


class TestSearchBudgetHooks:
    def test_local_search_never_overdraws(self):
        for limit in (1, 3, 10, 50):
            pool = EvaluationBudget(limit)
            res = local_search_mapping(
                APP, make_platform(), "overlap",
                rng=np.random.default_rng(0), budget=pool)
            assert res.evaluations <= limit
            assert pool.spent == res.evaluations

    def test_local_search_zero_budget_returns_inf(self):
        res = local_search_mapping(
            APP, make_platform(), "overlap",
            rng=np.random.default_rng(0), budget=EvaluationBudget(0))
        assert res.period == float("inf") and res.evaluations == 0

    def test_budgeted_search_charges_identically_at_any_n_jobs(self):
        # ``n_jobs`` is ignored, so a finite budget buys the same
        # trajectory and charges with or without it.
        for limit in (30, 60, 120):
            serial_pool = EvaluationBudget(limit)
            serial = local_search_mapping(
                APP, make_platform(), "overlap",
                rng=np.random.default_rng(0), budget=serial_pool)
            ignored_pool = EvaluationBudget(limit)
            with pytest.warns(DeprecationWarning, match="n_jobs"):
                ignored = local_search_mapping(
                    APP, make_platform(), "overlap",
                    rng=np.random.default_rng(0), budget=ignored_pool,
                    n_jobs=2)
            assert serial.period == ignored.period
            assert serial.trace == ignored.trace
            assert serial.evaluations == ignored.evaluations
            assert serial_pool.spent == ignored_pool.spent

    def test_budget_refund(self):
        # Deprecated: still restores ``spent`` and rejects bad counts.
        b = EvaluationBudget(10)
        assert b.take(7) == 7
        with pytest.warns(DeprecationWarning, match="refund"):
            b.refund(3)
        assert b.spent == 4 and b.remaining == 6
        for bad in (5, -1):
            with pytest.warns(DeprecationWarning), pytest.raises(ValueError):
                b.refund(bad)
        assert b.spent == 4

    def test_greedy_never_overdraws(self):
        pool = EvaluationBudget(4)
        res = greedy_mapping(APP, make_platform(), "overlap", budget=pool)
        assert res.evaluations <= 4
        assert np.isfinite(res.period)  # the seed evaluation fit

    def test_unbudgeted_behavior_unchanged(self):
        a = local_search_mapping(APP, make_platform(), "overlap",
                                 rng=np.random.default_rng(3))
        b = local_search_mapping(APP, make_platform(), "overlap",
                                 rng=np.random.default_rng(3),
                                 budget=EvaluationBudget(None))
        assert a.period == b.period
        assert a.evaluations == b.evaluations
        assert a.trace == b.trace


def _local_search(**kw):
    res = local_search_mapping(APP, make_platform(), "strict",
                               rng=np.random.default_rng(0), max_iters=15,
                               **kw)
    return (res.mapping.assignments, res.period, res.trace), res.evaluations


def _portfolio(**kw):
    res = portfolio_search(APP, make_platform(), "strict", n_restarts=3,
                           budget=200, **kw)
    return res.to_dict(), res.evaluations


def _pareto(**kw):
    res = pareto_portfolio_search(APP, make_platform(), "strict",
                                  n_restarts=3, budget=150, max_iters=20,
                                  **kw)
    return res.to_dict(), res.evaluations


class TestDeprecatedNJobs:
    @pytest.mark.parametrize("run", [_local_search, _portfolio, _pareto],
                             ids=["local_search_mapping", "portfolio_search",
                                  "pareto_portfolio_search"])
    def test_n_jobs_is_ignored(self, run):
        """``n_jobs`` warns once and changes nothing: the climb still
        evaluates one charged candidate at a time."""
        serial, _ = run()
        with pytest.warns(DeprecationWarning, match="n_jobs") as caught, \
                collecting() as tel:
            ignored, evaluations = run(n_jobs=2)
        assert len(caught) == 1
        assert ignored == serial
        assert tel.counters["engine.points"] == evaluations


class TestPerturbMapping:
    def test_preserves_processor_set(self):
        rng = np.random.default_rng(0)
        plat = make_platform()
        mapping = random_mapping(APP, plat, rng)
        procs = sorted(u for s in mapping.assignments for u in s)
        for _ in range(50):
            kicked = perturb_mapping(mapping, rng, moves=3,
                                     n_processors=plat.n_processors)
            assert sorted(u for s in kicked.assignments for u in s) == procs

    def test_usually_changes_the_mapping(self):
        rng = np.random.default_rng(1)
        plat = make_platform()
        mapping = random_mapping(APP, plat, rng)
        changed = sum(
            perturb_mapping(mapping, rng, moves=2).assignments
            != mapping.assignments
            for _ in range(20)
        )
        assert changed >= 15

    def test_zero_moves_is_identity(self):
        mapping = random_mapping(APP, make_platform(),
                                 np.random.default_rng(2))
        assert perturb_mapping(
            mapping, np.random.default_rng(0), moves=0
        ).assignments == mapping.assignments


class TestPortfolioSeeds:
    def test_crc32_keyed_and_stable(self):
        seeds = portfolio_seeds(APP, "overlap", 4)
        key = zlib.crc32(b"portfolio|test-portfolio") & 0x7FFFFFFF
        ss = np.random.SeedSequence([20090302, key, 0])
        expected = [int(c.generate_state(1)[0]) for c in ss.spawn(4)]
        assert seeds == expected

    def test_model_and_root_seed_branch(self):
        base = portfolio_seeds(APP, "overlap", 3)
        assert portfolio_seeds(APP, "strict", 3) != base
        assert portfolio_seeds(APP, "overlap", 3, root_seed=1) != base

    def test_prefix_stable(self):
        assert portfolio_seeds(APP, "overlap", 6)[:3] == \
            portfolio_seeds(APP, "overlap", 3)


class TestPortfolioSearch:
    def test_deterministic_across_runs(self):
        plat = make_platform()
        a = portfolio_search(APP, plat, "overlap", n_restarts=3, budget=150)
        b = portfolio_search(APP, plat, "overlap", n_restarts=3, budget=150)
        assert a.to_json() == b.to_json()

    def test_budget_is_a_hard_cap(self):
        plat = make_platform()
        for budget in (1, 10, 60):
            res = portfolio_search(APP, plat, "overlap",
                                   n_restarts=3, budget=budget)
            assert res.evaluations <= budget
            assert sum(r.evaluations for r in res.restarts) == res.evaluations

    def test_matches_or_beats_single_start_at_equal_budget(self):
        plat = make_platform()
        budget = 300
        single = local_search_mapping(
            APP, plat, "overlap", rng=np.random.default_rng(0),
            max_iters=10_000, budget=EvaluationBudget(budget))
        port = portfolio_search(APP, plat, "overlap",
                                n_restarts=4, budget=budget,
                                max_iters=10_000)
        assert port.period <= single.period

    def test_restart_kinds_schedule(self):
        res = portfolio_search(APP, make_platform(), "overlap",
                               n_restarts=4, budget=400)
        kinds = [r.kind for r in res.restarts]
        assert kinds[0] == "greedy"
        assert "random" in kinds
        assert "perturbed-elite" in kinds

    def test_platform_too_small_fails_loudly(self):
        # With fewer processors than stages no valid mapping exists at
        # all (one processor serves at most one stage).
        plat = make_platform(n=2)
        with pytest.raises(ValidationError):
            greedy_mapping(APP, plat, "overlap")
        with pytest.raises(ValidationError):
            portfolio_search(APP, plat, "overlap", n_restarts=2, budget=40)

    def test_traces_monotone_and_mapping_consistent(self):
        from repro import Instance, compute_period

        res = portfolio_search(APP, make_platform(), "overlap",
                               n_restarts=3, budget=200)
        for r in res.restarts:
            assert all(x >= y for x, y in zip(r.trace, r.trace[1:]))
        recomputed = compute_period(
            Instance(APP, make_platform(), res.mapping), "overlap").period
        assert recomputed == res.period

    def test_shared_engine_and_n_jobs_keep_trajectory(self):
        plat = make_platform()
        serial = portfolio_search(APP, plat, "overlap",
                                  n_restarts=2, budget=120)
        with pytest.warns(DeprecationWarning, match="n_jobs"):
            shared = portfolio_search(APP, plat, "overlap",
                                      n_restarts=2, budget=120,
                                      engine=BatchEngine(max_rows=3001),
                                      n_jobs=2)
        assert serial.to_dict() == shared.to_dict()

    def test_zero_budget_returns_flagged_fallback(self):
        res = portfolio_search(APP, make_platform(), "overlap",
                               n_restarts=2, budget=0)
        assert res.period == float("inf")
        assert res.evaluations == 0
        assert res.mapping.assignments  # still a usable mapping object
        assert res.best_restart is None  # and the accessor doesn't raise
        # ...and the JSON stays strict RFC 8259: inf maps to null.
        data = json.loads(res.to_json())
        assert data["period"] is None
        assert "Infinity" not in res.to_json()


class TestPortfolioIO:
    def _result(self) -> PortfolioResult:
        return portfolio_search(APP, make_platform(), "overlap",
                                n_restarts=3, budget=150)

    def test_json_round_trip(self, tmp_path):
        res = self._result()
        path = tmp_path / "portfolio.json"
        text = portfolio_to_json(res, path)
        data = json.loads(path.read_text())
        assert data == json.loads(text) == res.to_dict()
        assert data["period"] == res.period
        assert data["assignments"] == [list(s) for s in res.mapping.assignments]
        assert len(data["restarts"]) == len(res.restarts)
        assert data["restarts"][0]["kind"] == res.restarts[0].kind

    def test_restarts_csv(self, tmp_path):
        res = self._result()
        path = tmp_path / "restarts.csv"
        text = restarts_to_csv(res, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == \
            "index,kind,seed,period,evaluations,trace,assignments,rungs"
        assert len(lines) == 1 + len(res.restarts)
        assert text == path.read_text()
        # period column survives a float round trip losslessly (repr)
        first = lines[1].split(",")
        assert float(first[3]) == res.restarts[0].period
