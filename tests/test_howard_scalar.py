"""Scalar Howard kernel: both policy-improvement steps give the same bits.

``_scc_howard_csr`` improves the policy with a plain-Python loop on SCCs
of at most ``_LIST_STEP_MAX_EDGES`` edges and with the numpy
``reduceat`` step above.  These tests force each step on SCCs from both
sides of the cut and require the same value bits, extracted cycle,
round count and policy in every round.  They also pin the routing at
the cut and the rejection of non-finite weights by both solve entry
points.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import SolverError, ValidationError
from repro.experiments.examples_paper import example_c
from repro.maxplus import howard
from repro.maxplus.graph import RatioGraph
from repro.maxplus.howard import (
    prepare_howard,
    solve_prepared,
    solve_prepared_many,
)
from repro.petri.reduction import comm_patterns, pattern_plan

LISTS = 1 << 62  # cut forcing the list step on every SCC
NUMPY = -1  # cut forcing the numpy step on every SCC
EVALUATE = howard._evaluate  # the kernel's evaluation walk, unpatched


def ring_graph(rng: np.random.Generator, n: int, extra: int,
               int_weights: bool) -> RatioGraph:
    """A strongly connected live graph: a one-token ring plus ``extra`` edges.

    A quarter of the extra edges duplicate a ring edge (parallel edges);
    nodes that draw no extra edge keep a single out-edge.  An extra edge
    that does not jump forward carries at least one token, so every
    cycle carries one.
    """
    def weight() -> float:
        if int_weights:
            return float(rng.integers(0, 4))  # small ints -> exact ties
        return float(rng.uniform(-5.0, 15.0))

    edges = [(v, (v + 1) % n, weight(), int(v == n - 1)) for v in range(n)]
    for _ in range(extra):
        s = int(rng.integers(n))
        d = (s + 1) % n if rng.random() < 0.25 else int(rng.integers(n))
        tokens = int(rng.integers(1, 3)) if d <= s else int(rng.integers(0, 3))
        edges.append((s, d, weight(), tokens))
    return RatioGraph(n, edges)


def multi_sccs(plan: howard.HowardPlan) -> list[howard._PreparedScc]:
    return [c for c in plan.components if isinstance(c, howard._PreparedScc)]


def tol_of(w: np.ndarray) -> float:
    return 1e-9 * max(float(np.abs(w).max()), 1.0)


def solve_traced(monkeypatch, scc, w, tol, cut) -> tuple:
    """One scalar-kernel solve with the cut forced, as comparable data:
    value bits, cycle, round count and the policy of every round (each
    round's evaluation sees it; the last one is the converged policy)."""
    monkeypatch.setattr(howard, "_LIST_STEP_MAX_EDGES", cut)
    policies = []

    def traced(policy, *args):
        policies.append(list(policy))
        return EVALUATE(policy, *args)

    monkeypatch.setattr(howard, "_evaluate", traced)
    try:
        res = howard._scc_howard_csr(scc, w, tol)
    except SolverError as exc:
        return str(exc), policies
    return (np.float64(res.value).tobytes(), res.cycle_nodes,
            res.cycle_edges, res.n_rounds, policies)


def assert_steps_agree(monkeypatch, scc, rows) -> int:
    """Both steps on every row, from the cold start."""
    for w in rows:
        ref = solve_traced(monkeypatch, scc, w, tol_of(w), NUMPY)
        assert solve_traced(monkeypatch, scc, w, tol_of(w), LISTS) == ref
        assert len(ref[4]) == ref[3]  # one evaluation per round
    return len(rows)


def stampings(g: RatioGraph, rng: np.random.Generator, k: int) -> list[np.ndarray]:
    """``k`` weight vectors: the base, jittered copies and integer copies."""
    rows = [g.weight]
    for j in range(k - 1):
        if j % 2:
            rows.append(np.floor(g.weight + rng.integers(-1, 2, g.n_edges)))
        else:
            rows.append(g.weight + rng.normal(0.0, 1.0, g.n_edges))
    return rows


class TestStepParity:
    @pytest.mark.parametrize("seed", range(30))
    def test_below_the_cut(self, monkeypatch, seed):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(2, 48))
        g = ring_graph(rng, n, int(rng.integers(0, 2 * n)), seed % 2 == 0)
        assert g.n_edges <= howard._LIST_STEP_MAX_EDGES
        (scc,) = multi_sccs(prepare_howard(g))
        rows = [w[scc.gmap] for w in stampings(g, rng, 4)]
        assert assert_steps_agree(monkeypatch, scc, rows) == 4

    @pytest.mark.parametrize("seed", range(4))
    def test_above_the_cut(self, monkeypatch, seed):
        rng = np.random.default_rng(2000 + seed)
        cut = howard._LIST_STEP_MAX_EDGES
        n = cut // 2 + 20
        g = ring_graph(rng, n, n, seed % 2 == 0)
        assert g.n_edges > cut
        (scc,) = multi_sccs(prepare_howard(g))
        rows = [w[scc.gmap] for w in stampings(g, rng, 3)]
        assert assert_steps_agree(monkeypatch, scc, rows) == 3

    def test_theorem1_tori(self, monkeypatch):
        rng = np.random.default_rng(7)
        for u in range(1, 8):
            for v in range(1, 10):
                if u * v < 2:
                    continue
                (scc,) = multi_sccs(pattern_plan(u, v))
                rows = [np.repeat(d, 2)[scc.gmap] for d in (
                    rng.uniform(1.0, 20.0, u * v),
                    rng.integers(1, 4, u * v).astype(float),  # ties
                    np.full(u * v, 5.0),  # every cycle ties
                )]
                assert_steps_agree(monkeypatch, scc, rows)

    @pytest.mark.parametrize("heterogeneous", [False, True])
    def test_example_c_patterns(self, monkeypatch, heterogeneous):
        inst = example_c(heterogeneous=heterogeneous)
        checked = 0
        for i in range(inst.application.n_stages - 1):
            pats = comm_patterns(inst, i)
            (scc,) = multi_sccs(pattern_plan(pats[0].u, pats[0].v))
            rows = [np.repeat(p.durations.ravel(), 2)[scc.gmap] for p in pats]
            checked += assert_steps_agree(monkeypatch, scc, rows)
        assert checked > 0

    @pytest.mark.parametrize("tol", [5e-324, 0.0, -1.0])
    @pytest.mark.parametrize("seed", range(8))
    def test_extreme_tolerance(self, monkeypatch, seed, tol):
        # Tolerances that reach comparisons a default tol never decides:
        # below every rounding error, a policy cycle's root can see its
        # own edge as an improvement; at 0, policy edges (gain exactly
        # 0) stop counting as lambda ties; below 0, phase 1 fires
        # forever on both steps.
        rng = np.random.default_rng(3000 + seed)
        n = int(rng.integers(2, 24))
        g = ring_graph(rng, n, int(rng.integers(0, n)) * (seed % 4 != 0),
                       seed % 2 == 0)
        (scc,) = multi_sccs(prepare_howard(g))
        w = g.weight[scc.gmap]
        ref = solve_traced(monkeypatch, scc, w, tol, NUMPY)
        assert solve_traced(monkeypatch, scc, w, tol, LISTS) == ref
        if tol < 0:
            assert "did not converge" in ref[0]

    def test_cut_routes_by_edge_count(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("wrong improvement step for this SCC size")

        rng = np.random.default_rng(3)
        cut = howard._LIST_STEP_MAX_EDGES
        small = multi_sccs(pattern_plan(7, 9))[0]
        assert small.dst.size <= cut
        big_graph = ring_graph(rng, cut, cut // 2, False)
        (big,) = multi_sccs(prepare_howard(big_graph))
        assert big.dst.size > cut
        with monkeypatch.context() as m:
            m.setattr(howard, "_improve_numpy", forbidden)
            howard._scc_howard_csr(small, np.ones(small.dst.size), 1e-9)
        with monkeypatch.context() as m:
            m.setattr(howard, "_improve_lists", forbidden)
            w = big_graph.weight[big.gmap]
            howard._scc_howard_csr(big, w, tol_of(w))


def live_triangle() -> RatioGraph:
    return RatioGraph(3, [(0, 1, 2.0, 0), (1, 2, 3.0, 0), (2, 0, 4.0, 1),
                          (1, 0, 1.0, 1)])


class TestNonFiniteWeights:
    """Re-stamped weights are checked like ``RatioGraph`` checks its own."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("tol", [None, 1e-9])
    def test_scalar_entry_point(self, bad, tol):
        g = live_triangle()
        plan = prepare_howard(g)
        w = g.weight.copy()
        w[1] = bad
        with pytest.raises(ValidationError,
                           match=f"^edge 1 has non-finite weight {bad}$"):
            solve_prepared(plan, w, tol)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("tol", [None, 1e-9])
    def test_lockstep_entry_point(self, bad, tol):
        g = live_triangle()
        plan = prepare_howard(g)
        W = np.tile(g.weight, (4, 1))
        W[2, 3] = bad
        with pytest.raises(ValidationError,
                           match=f"^weight row 2: edge 3 has non-finite weight {bad}$"):
            solve_prepared_many(plan, W, tol)
