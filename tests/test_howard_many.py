"""Lockstep Howard solver: bit-identity with the scalar path.

`solve_prepared_many` promises that row ``b`` of a batch equals
``solve_prepared(plan, weights[b])`` **bit for bit** — value bits and
extracted cycle (nodes *and* edge order) — across randomized
topologies and exact-tie weights.  A row whose seeded start is
certified reports 1 round; every other row is the cold scalar solve,
round count included.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DeadlockError, SolverError
from repro.maxplus import howard
from repro.maxplus.graph import RatioGraph
from repro.maxplus.howard import (
    prepare_howard,
    solve_prepared,
    solve_prepared_many,
)


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


def hub_graph(rng: np.random.Generator) -> RatioGraph:
    """A ring of 10 nodes plus 40 out-edges from node 0: one node's
    out-degree far above ``4 * e / n``, the shape of a hub SCC."""
    n = 10
    edges = [(v, (v + 1) % n, float(rng.uniform(0.0, 10.0)), int(v % 3 == 0))
             for v in range(n)]
    for _ in range(40):
        edges.append((0, int(rng.integers(1, n)),
                      float(rng.integers(0, 12)), int(rng.integers(0, 3))))
    return RatioGraph(n, edges)


def certified_rows(plan, W) -> dict[int, set[int]]:
    """Per multi-node SCC (keyed by its first node), the rows whose
    seeded start the certificate accepts (one chunk: ``B <= 64``)."""
    out = {}
    tol = 1e-9 * np.maximum(np.abs(W).max(axis=1), 1.0)
    for comp in plan.components:
        if isinstance(comp, howard._PreparedScc):
            Wc = W[:, comp.gmap]
            cands = howard._certify_seeded(
                comp, Wc, tol, howard._seed_start(comp, Wc, tol))
            out[comp.node_map[0]] = {b for b, c in enumerate(cands) if c}
    return out


def critical_scc_certified(plan, certified, b, scalar) -> bool | None:
    """Whether the multi-node SCC holding row ``b``'s critical cycle
    certified the row (``None`` for a singleton's self-loop)."""
    node = scalar.cycle_nodes[0]
    for comp in plan.components:
        if isinstance(comp, howard._PreparedScc) and node in comp.node_map:
            return b in certified[comp.node_map[0]]
    return None


class TestLockstepBitIdentity:
    @pytest.mark.parametrize("B", [6, 40])
    def test_matches_per_row_scalar_solves(self, B):
        rng = np.random.default_rng(20260725)
        cases = []
        for _ in range(120):
            g = random_live_graph(rng)
            if g is not None:
                cases.append((g, weight_batch(g, rng, B)))
        hub = hub_graph(rng)
        cases.append((hub, weight_batch(hub, rng, B)))
        # Every row identical: all rows share one policy every round.
        cases.append((hub, np.tile(hub.weight, (B, 1))))
        # Integer copies: exact ties, which the certificate must reject.
        cases += [(g, np.round(W)) for g, W in cases]
        checked = 0
        kinds = {True: 0, False: 0, None: 0}
        for g, W in cases:
            try:
                plan = prepare_howard(g)
                scalar = [solve_prepared(plan, W[b]) for b in range(len(W))]
            except SolverError:
                continue  # acyclic draw
            many = solve_prepared_many(plan, W)
            certified = certified_rows(plan, W)
            for b, (s, m) in enumerate(zip(scalar, many)):
                assert np.float64(m.value).tobytes() == np.float64(s.value).tobytes()
                assert (m.cycle_nodes, m.cycle_edges) == (s.cycle_nodes, s.cycle_edges)
                kind = critical_scc_certified(plan, certified, b, s)
                kinds[kind] += 1
                # Certified: 1 round; otherwise the cold solve's count.
                assert m.n_rounds == (1 if kind else s.n_rounds)
            checked += 1
        assert checked >= 30  # the generator must exercise real graphs
        assert min(kinds.values()) > 0  # certified, cold and self-loop rows

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

    def test_empty_batch_and_shape_validation(self):
        g = RatioGraph(2, [(0, 1, 1.0, 1), (1, 0, 2.0, 1)])
        plan = prepare_howard(g)
        assert solve_prepared_many(plan, np.empty((0, 2))) == []
        with pytest.raises(ValueError):
            solve_prepared_many(plan, np.ones(2))  # 1-D
        with pytest.raises(ValueError):
            solve_prepared_many(plan, np.ones((2, 3)))  # wrong E


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
