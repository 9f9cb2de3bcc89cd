"""Allocator layer: budget accounting, checkpoint resume, determinism."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Application, Platform
from repro.errors import ValidationError
from repro.extensions import SearchCheckpoint, local_search_mapping
from repro.search import (
    EvaluationBudget,
    FairShareAllocator,
    RacingAllocator,
    portfolio_search,
    resolve_allocator,
)

APP = Application(works=[2.0, 9.0, 4.0], file_sizes=[3.0, 1.0],
                  name="test-allocator")


def make_platform(seed=5, n=8):
    rng = np.random.default_rng(seed)
    speeds = rng.uniform(1.0, 5.0, n)
    bw = rng.uniform(2.0, 8.0, (n, n))
    np.fill_diagonal(bw, 0.0)
    return Platform(speeds, bw)


class TestBudgetProperties:
    """Hypothesis invariants of the shared evaluation pool."""

    @given(
        limit=st.integers(min_value=0, max_value=500),
        ops=st.lists(
            st.tuples(st.integers(0, 60), st.floats(0.0, 1.0)),
            max_size=50,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_never_overdraws_and_refunds_restore(self, limit, ops):
        # ``refund`` is deprecated but must keep its accounting until 4.0.
        pool = EvaluationBudget(limit)
        for ask, refund_frac in ops:
            granted = pool.take(ask)
            assert 0 <= granted <= ask
            assert pool.spent <= limit
            assert pool.spent + pool.remaining == limit
            refund = int(granted * refund_frac)
            with pytest.warns(DeprecationWarning, match="refund"):
                pool.refund(refund)
            assert pool.spent + pool.remaining == limit
            assert pool.spent >= 0
        assert pool.exhausted == (pool.remaining == 0)

    @given(
        limit=st.integers(min_value=0, max_value=500),
        asks=st.lists(st.integers(0, 60), max_size=50),
    )
    @settings(max_examples=200, deadline=None)
    def test_grants_sum_to_at_most_limit(self, limit, asks):
        pool = EvaluationBudget(limit)
        total = 0
        for ask in asks:
            granted = pool.take(ask)
            assert 0 <= granted <= ask
            assert pool.spent + pool.remaining == limit
            total += granted
        assert total <= limit
        assert pool.spent == total
        assert pool.exhausted == (pool.remaining == 0)

    @given(
        remaining=st.integers(min_value=1, max_value=100_000),
        n=st.integers(min_value=2, max_value=64),
        reserve=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=300, deadline=None)
    def test_rung_plan_fits_in_the_pool(self, remaining, n, reserve):
        """Planned rung spend (sizes x doubling slices) never exceeds
        the pool: sum(n_j * base * 2^j) <= remaining."""
        alloc = RacingAllocator(reserve=reserve)
        sizes = alloc.rung_sizes(n)
        assert sizes[0] == n and sizes[-1] == 2
        assert all(a > b for a, b in zip(sizes, sizes[1:]))
        base = alloc.base_slice(remaining, n)
        assert base >= 1
        planned = sum(s * (base << j) for j, s in enumerate(sizes))
        assert base == 1 or planned <= remaining


class TestCheckpointResume:
    """Paused + resumed climbs are bit-identical to uninterrupted ones."""

    def _uninterrupted(self, budget, seed=0):
        return local_search_mapping(
            APP, make_platform(), "overlap", rng=np.random.default_rng(seed),
            budget=EvaluationBudget(budget))

    def _chunked(self, grants, seed=0):
        """One climb fed its budget in pieces; returns merged totals."""
        res = local_search_mapping(
            APP, make_platform(), "overlap", rng=np.random.default_rng(seed),
            budget=EvaluationBudget(grants[0]))
        evals, trace = res.evaluations, res.trace
        for grant in grants[1:]:
            if res.checkpoint is None:
                break
            res = local_search_mapping(
                APP, make_platform(), "overlap", checkpoint=res.checkpoint,
                budget=EvaluationBudget(grant))
            evals += res.evaluations
            trace += res.trace
        return res, evals, trace

    @pytest.mark.parametrize("splits", [
        (40, 60), (1, 99), (99, 1), (10, 10, 10, 70), (25, 25, 25, 25),
    ])
    def test_resume_equals_uninterrupted(self, splits):
        full = self._uninterrupted(sum(splits))
        res, evals, trace = self._chunked(splits)
        assert res.period == full.period
        assert evals == full.evaluations
        assert trace == full.trace
        assert res.mapping.assignments == full.mapping.assignments
        assert (res.checkpoint is None) == (full.checkpoint is None)

    def test_starved_start_is_resumable(self):
        first = self._uninterrupted(0)
        assert first.period == float("inf") and first.evaluations == 0
        cp = first.checkpoint
        assert isinstance(cp, SearchCheckpoint) and not cp.started
        resumed = local_search_mapping(
            APP, make_platform(), "overlap", checkpoint=cp,
            budget=EvaluationBudget(80))
        full = self._uninterrupted(80)
        assert resumed.period == full.period
        assert resumed.trace == full.trace

    def test_finished_climb_has_no_checkpoint(self):
        res = local_search_mapping(
            APP, make_platform(), "overlap", rng=np.random.default_rng(1))
        assert res.checkpoint is None

    def test_checkpoint_carries_cumulative_totals(self):
        first = self._uninterrupted(30)
        assert first.checkpoint is not None
        assert first.checkpoint.evaluations == first.evaluations
        second = local_search_mapping(
            APP, make_platform(), "overlap", checkpoint=first.checkpoint,
            budget=EvaluationBudget(20))
        if second.checkpoint is not None:
            assert second.checkpoint.evaluations == \
                first.evaluations + second.evaluations
            assert second.checkpoint.trace == first.trace + second.trace


class TestAllocatorResolution:
    def test_names(self):
        assert resolve_allocator("fair-share").name == "fair-share"
        assert resolve_allocator("racing").name == "racing"

    def test_instance_passthrough(self):
        alloc = RacingAllocator(reserve=3)
        assert resolve_allocator(alloc) is alloc

    def test_unknown_rejected(self):
        with pytest.raises(ValidationError):
            resolve_allocator("typo")
        with pytest.raises(ValidationError):
            portfolio_search(APP, make_platform(), "overlap",
                             n_restarts=2, budget=10, allocator="typo")


class TestRacingPortfolio:
    def test_deterministic_across_runs(self):
        plat = make_platform()
        a = portfolio_search(APP, plat, "overlap", n_restarts=3, budget=300,
                             allocator="racing")
        b = portfolio_search(APP, plat, "overlap", n_restarts=3, budget=300,
                             allocator="racing")
        assert a.to_json() == b.to_json()
        assert a.allocator == "racing"

    def test_deterministic_across_n_jobs(self):
        # ``n_jobs`` is deprecated and ignored: racing rungs resume the
        # same checkpoints either way.
        plat = make_platform()
        serial = portfolio_search(APP, plat, "overlap", n_restarts=3,
                                  budget=300, allocator="racing")
        with pytest.warns(DeprecationWarning, match="n_jobs"):
            ignored = portfolio_search(APP, plat, "overlap", n_restarts=3,
                                       budget=300, allocator="racing",
                                       n_jobs=2)
        assert serial.to_json() == ignored.to_json()

    def test_budget_is_a_hard_cap_and_rungs_account(self):
        plat = make_platform()
        for budget in (1, 37, 150, 400):
            res = portfolio_search(APP, plat, "overlap", n_restarts=3,
                                   budget=budget, allocator="racing")
            assert res.evaluations <= budget
            assert sum(r.evaluations for r in res.restarts) == res.evaluations
            for r in res.restarts:
                assert sum(r.rungs) == r.evaluations
                assert all(n >= 0 for n in r.rungs)

    def test_promoted_climbs_have_multiple_rungs(self):
        res = portfolio_search(APP, make_platform(), "overlap", n_restarts=4,
                               budget=400, allocator="racing")
        assert max(len(r.rungs) for r in res.restarts) >= 2

    def test_unlimited_budget_runs_all_restarts_to_convergence(self):
        plat = make_platform()
        racing = portfolio_search(APP, plat, "overlap", n_restarts=3,
                                  budget=None, allocator="racing")
        fair = portfolio_search(APP, plat, "overlap", n_restarts=3,
                                budget=None)
        assert racing.period == fair.period
        assert [len(r.rungs) for r in racing.restarts] == \
            [1] * len(racing.restarts)

    def test_fair_share_unchanged_by_the_refactor(self):
        """The extracted FairShareAllocator is the default and reports
        single-rung restarts — the PR-2 schedule exactly."""
        plat = make_platform()
        default = portfolio_search(APP, plat, "overlap", n_restarts=3,
                                   budget=200)
        explicit = portfolio_search(APP, plat, "overlap", n_restarts=3,
                                    budget=200,
                                    allocator=FairShareAllocator())
        assert default.to_json() == explicit.to_json()
        assert default.allocator == "fair-share"
        assert all(len(r.rungs) == 1 for r in default.restarts)

    def test_json_round_trip_includes_allocator_and_rungs(self):
        res = portfolio_search(APP, make_platform(), "overlap", n_restarts=3,
                               budget=250, allocator="racing")
        data = json.loads(res.to_json())
        assert data["allocator"] == "racing"
        for record in data["restarts"]:
            assert sum(record["rungs"]) == record["evaluations"]

    def test_zero_budget_degrades_gracefully(self):
        res = portfolio_search(APP, make_platform(), "overlap", n_restarts=2,
                               budget=0, allocator="racing")
        assert res.period == float("inf")
        assert res.evaluations == 0
        assert res.mapping.assignments

    def test_record_indexes_are_unique(self):
        # Racing brackets launch restarts past n_restarts; the intensify
        # record must take the next unused index, never a duplicate.
        for budget in (100, 400):
            res = portfolio_search(APP, make_platform(), "overlap",
                                   n_restarts=3, budget=budget,
                                   allocator="racing", max_iters=1)
            indexes = [r.index for r in res.restarts]
            assert len(indexes) == len(set(indexes))

    def test_best_restart_produced_the_mapping(self):
        # Rungs interleave incumbent updates, so a tied lower-index climb
        # can end with a *different* mapping; provenance must match the
        # result's assignments.
        for seed in (5, 7, 11):
            for budget in (150, 400):
                res = portfolio_search(APP, make_platform(seed), "overlap",
                                       n_restarts=3, budget=budget,
                                       allocator="racing")
                best = res.best_restart
                assert best is not None
                assert best.assignments == res.mapping.assignments
                assert best.period == res.period
