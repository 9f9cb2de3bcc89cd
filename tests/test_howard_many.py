"""Lockstep Howard solver: bit-identity with the scalar path.

`solve_prepared_many` promises that row ``b`` of a batch equals
``solve_prepared(plan, weights[b])`` **bit for bit** — value bits,
extracted cycle (nodes *and* edge order), and round count — across cold
starts and exact-tie weights.  With one shared
:class:`~repro.maxplus.howard.HowardState` (the mode the engine runs),
row ``b`` equals the scalar solve warm-started from a copy of that
state.  These tests pin that contract on randomized topologies, plus
the state's cross-plan guard.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DeadlockError, SolverError
from repro.maxplus.graph import RatioGraph
from repro.maxplus.howard import (
    HowardState,
    prepare_howard,
    solve_prepared,
    solve_prepared_many,
)

from .conftest import copy_state


def random_live_graph(rng: np.random.Generator) -> RatioGraph | None:
    """A random live token graph, or ``None`` when the draw is dead."""
    n = int(rng.integers(2, 12))
    n_e = int(rng.integers(n, 4 * n))
    edges = []
    for _ in range(n_e):
        s, d = int(rng.integers(n)), int(rng.integers(n))
        if rng.random() < 0.35:
            w = float(rng.integers(0, 4))  # small ints -> exact ties
        else:
            w = float(rng.uniform(-5.0, 15.0))
        edges.append((s, d, w, int(rng.integers(0, 3))))
    g = RatioGraph(n, edges)
    return g if g.is_live() else None


def weight_batch(g: RatioGraph, rng: np.random.Generator, B: int) -> np.ndarray:
    """B stampings of ``g``'s weights: scaled, jittered, and duplicated."""
    rows = []
    for b in range(B):
        if b % 3 == 0:
            rows.append(g.weight * float(rng.uniform(0.5, 2.0)))
        elif b % 3 == 1:
            rows.append(g.weight + rng.normal(0.0, 1.0, g.n_edges))
        else:
            rows.append(g.weight.copy())  # exact duplicate of the base row
    return np.asarray(rows)


def assert_same_policies(a: HowardState, b: HowardState) -> None:
    assert a.bound_plan is b.bound_plan
    assert len(a.policies) == len(b.policies)
    for pa, pb in zip(a.policies, b.policies):
        assert (pa is None) == (pb is None)
        if pa is not None:
            assert pa.dtype == pb.dtype and np.array_equal(pa, pb)


class TestLockstepBitIdentity:
    def test_matches_per_row_scalar_solves(self):
        rng = np.random.default_rng(20260725)
        checked = 0
        for _ in range(120):
            g = random_live_graph(rng)
            if g is None:
                continue
            try:
                plan = prepare_howard(g)
                W = weight_batch(g, rng, B=6)
                scalar = [solve_prepared(plan, W[b]) for b in range(len(W))]
            except SolverError:
                continue  # acyclic draw
            many = solve_prepared_many(plan, W)
            for s, m in zip(scalar, many):
                assert s == m  # value bits, cycle nodes/edges, n_rounds
            checked += 1
        assert checked >= 30  # the generator must exercise real graphs

    def test_exact_tie_weights(self):
        # Two parallel critical cycles with exactly equal ratios: the
        # lockstep tie-breaking (CSR position, discovery order) must pick
        # the same cycle as the scalar walk.
        g = RatioGraph(4, [
            (0, 1, 2.0, 1), (1, 0, 2.0, 1),   # cycle A, ratio 2
            (2, 3, 2.0, 1), (3, 2, 2.0, 1),   # cycle B, ratio 2
            (0, 2, 1.0, 1), (2, 0, 1.0, 1),   # couples the SCCs
            (1, 1, 2.0, 1), (1, 1, 2.0, 1),   # tied parallel self-loops
        ])
        plan = prepare_howard(g)
        W = np.asarray([g.weight, g.weight * 3.0, g.weight])
        scalar = [solve_prepared(plan, w) for w in W]
        many = solve_prepared_many(plan, W)
        assert scalar == many

    def test_warm_started_sequences_match_scalar_states(self):
        # One shared state across consecutive batches: every row equals
        # the scalar solve seeded from a copy of the state as the batch
        # found it, and the state leaves with the last row's policies.
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(60):
            g = random_live_graph(rng)
            if g is None:
                continue
            try:
                plan = prepare_howard(g)
                base = weight_batch(g, rng, B=4)
                solve_prepared(plan, base[0])
            except SolverError:
                continue
            state = HowardState()
            for step in range(3):
                W = base * (1.0 + 0.07 * step)
                before = copy_state(state)
                many = solve_prepared_many(plan, W, state=state)
                for b in range(len(W)):
                    ref_state = copy_state(before)
                    ref = solve_prepared(plan, W[b], state=ref_state)
                    assert np.float64(many[b].value).tobytes() == \
                        np.float64(ref.value).tobytes()
                    assert many[b] == ref  # cycle nodes/edges, n_rounds
                assert_same_policies(state, ref_state)  # the last row's
            checked += 1
        assert checked >= 15

    def test_shared_state_values_match_cold(self):
        # Group seeding (one shared HowardState) may change rounds and
        # tie extraction, never the value.
        rng = np.random.default_rng(3)
        g = None
        while g is None:
            g = random_live_graph(rng)
        plan = prepare_howard(g)
        W = weight_batch(g, rng, B=8)
        cold = solve_prepared_many(plan, W)
        state = HowardState()
        warm_a = solve_prepared_many(plan, W, state=state)
        warm_b = solve_prepared_many(plan, W, state=state)  # reseeded
        for c, a, b in zip(cold, warm_a, warm_b):
            assert c.value == a.value == b.value

    def test_empty_batch_and_shape_validation(self):
        g = RatioGraph(2, [(0, 1, 1.0, 1), (1, 0, 2.0, 1)])
        plan = prepare_howard(g)
        assert solve_prepared_many(plan, np.empty((0, 2))) == []
        with pytest.raises(ValueError):
            solve_prepared_many(plan, np.ones(2))  # 1-D
        with pytest.raises(ValueError):
            solve_prepared_many(plan, np.ones((2, 3)))  # wrong E
        state = HowardState()
        with pytest.raises(ValueError):
            solve_prepared_many(plan, np.ones((2, 3)), state=state)
        assert state.bound_plan is None
        assert solve_prepared_many(plan, np.empty((0, 2)), state=state) == []


class TestHowardStateGuard:
    def make_plan(self, w: float):
        g = RatioGraph(3, [(0, 1, w, 1), (1, 2, w, 0), (2, 0, w, 1),
                           (1, 0, w / 2, 1)])
        return prepare_howard(g), g

    def test_cross_plan_reuse_raises(self):
        plan_a, g_a = self.make_plan(3.0)
        plan_b, _ = self.make_plan(5.0)
        state = HowardState()
        solve_prepared(plan_a, g_a.weight, state=state)
        assert state.bound_plan is plan_a
        with pytest.raises(SolverError, match="different HowardPlan"):
            solve_prepared(plan_b, g_a.weight, state=state)

    def test_cross_plan_reuse_raises_in_lockstep(self):
        plan_a, g_a = self.make_plan(3.0)
        plan_b, _ = self.make_plan(5.0)
        state = HowardState()
        solve_prepared_many(plan_a, g_a.weight[None, :], state=state)
        with pytest.raises(SolverError, match="different HowardPlan"):
            solve_prepared_many(plan_b, g_a.weight[None, :], state=state)

    def test_same_plan_reuse_is_fine(self):
        plan, g = self.make_plan(3.0)
        state = HowardState()
        first = solve_prepared(plan, g.weight, state=state)
        second = solve_prepared(plan, g.weight, state=state)
        assert first.value == second.value

    def test_failed_batch_leaves_states_untouched(self):
        plan_a, g_a = self.make_plan(3.0)
        state = HowardState()
        solve_prepared_many(plan_a, g_a.weight[None, :], state=state)
        before = [None if p is None else p.copy() for p in state.policies]
        plan_b, _ = self.make_plan(5.0)
        with pytest.raises(SolverError):
            solve_prepared_many(plan_b, g_a.weight[None, :], state=state)
        after = state.policies
        assert all(
            (a is None and b is None) or (a == b).all()
            for a, b in zip(before, after)
        )


class TestAcyclic:
    def test_acyclic_graph_raises_like_scalar(self):
        g = RatioGraph(3, [(0, 1, 1.0, 1), (1, 2, 1.0, 1)])
        plan = prepare_howard(g)
        with pytest.raises(SolverError, match="acyclic"):
            solve_prepared(plan, g.weight)
        with pytest.raises(SolverError, match="acyclic"):
            solve_prepared_many(plan, g.weight[None, :])

    def test_dead_graph_rejected_at_prepare(self):
        g = RatioGraph(2, [(0, 1, 1.0, 0), (1, 0, 1.0, 0)])
        with pytest.raises(DeadlockError):
            prepare_howard(g)
