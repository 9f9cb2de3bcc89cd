"""Token-edge seeded lockstep Howard against the cold scalar oracle.

Strict TPN SCCs with at least ``_SEED_NODES_PER_TOKEN`` nodes per token
edge start every lockstep row from the policy their token-edge
reduction proposes, and accept the row only under a certificate; an
uncertified row is recomputed with the cold scalar kernel.  Either way
each row must equal ``solve_prepared`` from a cold start in value bits,
cycle nodes and cycle edges.  These tests replay real strict topologies,
check the one-pass certificate (``_certify_seeded``) on hand-built start
policies, force random near-tie SCCs through the seeded kernel (where
the certificate must reject some rows), seed and certify slabs in row
chunks (around the chunk boundaries, and a large topology's
forward-pass budget), and pin the telemetry counters.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaign import CampaignSpec
from repro.core.throughput import compute_period
from repro.engine import BatchEngine
from repro.engine.skeleton import build_skeleton
from repro.errors import ValidationError
from repro.maxplus import howard
from repro.maxplus.graph import RatioGraph
from repro.maxplus.howard import (
    prepare_howard,
    solve_prepared,
    solve_prepared_many,
)

from .conftest import collecting

#: The near-tie harness's weight levels: sums of these tie exactly in
#: the rationals but not always in floats.
TIE_LEVELS = np.array([0.1, 0.2, 0.3, 0.7, 1.1])


def strict_instances(counts, n_procs, draws):
    """Points of a strict ``fixed`` blocks campaign (two apps, two
    platform regimes), like the ``shared_strict`` perfbench spec."""
    spec = CampaignSpec.from_dict({
        "name": "seed-replay",
        "draws": draws,
        "models": ["strict"],
        "applications": [
            {"label": "balanced", "synthetic": {
                "n_stages": len(counts), "shape": "balanced",
                "scale": 10.0, "seed": 0}},
            {"label": "random", "synthetic": {
                "n_stages": len(counts), "shape": "random",
                "scale": 10.0, "seed": 7}},
        ],
        "platforms": [
            {"label": "uniform", "n_procs": n_procs, "kind": "uniform"},
            {"label": "clustered", "n_procs": n_procs, "kind": "uniform",
             "clusters": 2, "cluster_factor_range": [0.5, 2.0],
             "intra_bandwidth_factor": 4.0},
        ],
        "replications": [
            {"label": "blocks", "fixed": list(counts), "assignment": "blocks"},
        ],
        "root_seed": 20090302,
    })
    return [point.instance() for point in spec.expand()]


def key(res):
    """Value bits, cycle nodes and cycle edges of one result."""
    return np.float64(res.value).tobytes(), res.cycle_nodes, res.cycle_edges


def seeded_components(plan):
    return [c for c in plan.components if getattr(c, "seed", None) is not None]


def solve_and_count(plan, weights, **kwargs):
    with collecting() as tel:
        out = solve_prepared_many(plan, weights, **kwargs)
    return out, tel.counter_snapshot()


class TestReplayAgainstCold:
    @pytest.mark.parametrize("counts,n_procs,draws", [
        ((3, 4, 5), 12, 8),   # the shared_strict topology: n 300, k 12
        ((4, 5, 7), 16, 4),   # lcm 140: n 700, k 16
    ])
    def test_rows_equal_cold_solve(self, counts, n_procs, draws):
        insts = strict_instances(counts, n_procs, draws)
        sk = build_skeleton(insts[0], "strict")
        assert seeded_components(sk.plan)
        W = sk.stamp_weights_many(insts)
        many, counters = solve_and_count(sk.plan, W)
        assert counters["howard.seeded_rows"] == len(W)
        assert counters.get("howard.uncertified", 0) == 0
        for b, res in enumerate(many):
            assert key(res) == key(solve_prepared(sk.plan, W[b]))
            # Every row is certified: its start is the fixed point.
            assert res.n_rounds == 1

    def test_engine_periods_equal_compute_period(self):
        # Two calls on one engine: the second group solve, in reverse
        # order, must not depend on the first.
        insts = strict_instances((3, 4, 5), 12, 6)
        engine = BatchEngine()
        with collecting() as tel:
            first = engine.evaluate(insts, "strict", method="tpn")
            second = engine.evaluate(insts[::-1], "strict", method="tpn")
        assert tel.counter_snapshot()["howard.seeded_rows"] == 2 * len(insts)
        for inst, a, b in zip(insts, first, second[::-1]):
            ref = compute_period(inst, "strict", method="tpn")
            assert a.period == ref.period == b.period
            assert a.tpn_solution.ratio == ref.tpn_solution.ratio


class TestRowChunking:
    def test_large_topology_chunks_its_forward_pass(self, monkeypatch):
        # [3,4,5,7]: n 2 940, k 19.  A budget of two rows' cells splits
        # five rows into three forward-pass chunks.
        insts = strict_instances((3, 4, 5, 7), 19, 2)[:5]
        sk = build_skeleton(insts[0], "strict")
        (comp,) = seeded_components(sk.plan)
        assert (comp.n, comp.seed.dag.tok.size) == (2940, 19)
        W = sk.stamp_weights_many(insts)
        whole = solve_prepared_many(sk.plan, W)
        chunks = []
        forward = howard.forward_matrix

        def counted(dag, Wc):
            chunks.append(len(Wc))
            return forward(dag, Wc)

        monkeypatch.setattr(howard, "forward_matrix", counted)
        monkeypatch.setattr(howard, "_SEED_CELL_BUDGET", 2 * 19 * 2941)
        chunked = solve_prepared_many(sk.plan, W)
        assert chunks == [2, 2, 1]
        assert chunked == whole
        for b, res in enumerate(chunked):
            assert key(res) == key(solve_prepared(sk.plan, W[b]))


    def test_rows_across_chunk_boundaries_equal_cold_solve(self, monkeypatch):
        # The shared_strict topology seeds and certifies 64-row chunks;
        # slabs just under, at and over one and two chunks must each
        # give every row the cold solve's value bits, nodes and edges.
        insts = strict_instances((3, 4, 5), 12, 33)
        sk = build_skeleton(insts[0], "strict")
        (comp,) = seeded_components(sk.plan)
        chunk = howard._seed_chunk_rows(comp, comp.seed)
        assert chunk == howard._SEED_CHUNK_ROWS == 64
        W = sk.stamp_weights_many(insts)[:2 * chunk + 3]
        cold = [key(solve_prepared(sk.plan, w)) for w in W]
        chunks = []
        certify = howard._certify_seeded

        def counted(scc, Wc, tol, policy):
            chunks.append(len(Wc))
            return certify(scc, Wc, tol, policy)

        monkeypatch.setattr(howard, "_certify_seeded", counted)
        for B in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
            chunks.clear()
            many = solve_prepared_many(sk.plan, W[:B])
            assert chunks == [min(chunk, B - b0) for b0 in range(0, B, chunk)]
            assert [key(res) for res in many] == cold[:B]
            assert all(res.n_rounds == 1 for res in many)


def single_scc(edges):
    """The one prepared SCC of a unit-token graph given as ``(src, dst,
    weight)`` triples, with its ``(1, e)`` CSR weight row."""
    g = RatioGraph(1 + max(max(s, d) for s, d, _ in edges),
                   [(s, d, w, 1) for s, d, w in edges])
    plan = prepare_howard(g)
    (comp,) = plan.components
    return g, plan, comp, g.weight[comp.gmap][None, :]


def csr_policy(comp, succ):
    """``(1, n)`` CSR-position policy sending global node ``v`` to
    ``succ[v]``."""
    local = {v: i for i, v in enumerate(comp.node_map)}
    pol = np.empty((1, comp.n), dtype=np.int64)
    for v, d in succ.items():
        i = local[v]
        seg = range(comp.start[i], comp.start[i + 1])
        (pol[0, i],) = [k for k in seg if comp.dst[k] == local[d]]
    return pol


def certify(comp, W, succ):
    (cand,) = howard._certify_seeded(comp, W, np.full(1, 1e-9),
                                     csr_policy(comp, succ))
    return cand


class TestCertifySeeded:
    def test_two_policy_cycles_are_uncertified(self):
        # Two 2-cycles of equal ratio joined by very negative edges: the
        # reduced costs alone would pass, the single-cycle clause fails.
        _, _, comp, W = single_scc([
            (0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0), (3, 2, 1.0),
            (1, 2, -100.0), (3, 0, -100.0),
        ])
        assert certify(comp, W, {0: 1, 1: 0, 2: 3, 3: 2}) is None

    def test_start_that_is_not_a_fixed_point_is_uncertified(self, monkeypatch):
        # One policy cycle (the Hamiltonian 0 -> 1 -> 2 -> 0, ratio 1),
        # but the edge 0 -> 2 closes the better cycle 0 -> 2 -> 0.
        edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (0, 2, 10.0)]
        g, plan, comp, W = single_scc(edges)
        hamiltonian = {0: 1, 1: 2, 2: 0}
        assert certify(comp, W, hamiltonian) is None
        best = certify(comp, W, {0: 2, 1: 2, 2: 0})
        assert best is not None and best[0] == 5.5 and best[3] == 1

        # Through solve_prepared_many: the seed proposes the Hamiltonian
        # start on every row, and every row is re-solved cold.
        monkeypatch.setattr(howard, "_SEED_NODES_PER_TOKEN", 0)
        plan = prepare_howard(g)
        (comp,) = seeded_components(plan)
        start = csr_policy(comp, hamiltonian)
        monkeypatch.setattr(howard, "_seed_start",
                            lambda scc, seed, Wc, tol: start.repeat(len(Wc), 0))
        rows = np.array([[1.0, 1.0, 1.0, 10.0], [1.0, 2.0, 1.0, 10.0],
                         [2.0, 1.0, 1.0, 4.0]])
        many, counters = solve_and_count(plan, rows)
        assert counters["howard.uncertified"] == counters["howard.seeded_rows"] == 3
        assert many == [solve_prepared(plan, w) for w in rows]

    def test_rotation_starts_at_the_cold_walks_entry(self):
        # Node 0 is off the critical cycle {1, 3}; its policy path enters
        # at 3, so the scalar walk from node 0 reports (3, 1), not (1, 3).
        edges = [(0, 3, 1.0), (3, 1, 10.0), (1, 3, 1.0), (1, 2, 1.0),
                 (2, 0, 1.0)]
        g, plan, comp, W = single_scc(edges)
        cand = certify(comp, W, {0: 3, 1: 3, 2: 0, 3: 1})
        cold = solve_prepared(plan, g.weight)
        assert cold.cycle_nodes == (3, 1)
        assert cand is not None
        assert (cand[0], cand[1], cand[2]) == (
            cold.value, cold.cycle_nodes, cold.cycle_edges)


def near_tie_trials(rng, n_trials, rows):
    """Random strongly connected unit-token graphs with tie-prone weights:
    n in 4..13, a Hamiltonian cycle plus up to 2n random edges."""
    for _ in range(n_trials):
        n = int(rng.integers(4, 14))
        perm = rng.permutation(n)
        edges = [(int(perm[i]), int(perm[(i + 1) % n])) for i in range(n)]
        for _ in range(int(rng.integers(1, 2 * n + 1))):
            edges.append((int(rng.integers(n)), int(rng.integers(n))))
        g = RatioGraph(n, [(s, d, 0.0, 1) for s, d in edges])
        yield g, TIE_LEVELS[rng.integers(0, TIE_LEVELS.size, (rows, len(edges)))]


class TestNearTieCertificate:
    def test_forced_seed_equals_cold_on_every_trial(self, monkeypatch):
        # Bypass the dispatch rule: every SCC with a choice is seeded.
        monkeypatch.setattr(howard, "_SEED_NODES_PER_TOKEN", 0)
        rng = np.random.default_rng(1)
        rows = seeded = uncertified = 0
        for g, W in near_tie_trials(rng, 400, rows=6):
            plan = prepare_howard(g)
            assert seeded_components(plan)
            many, counters = solve_and_count(plan, W)
            seeded += counters["howard.seeded_rows"]
            uncertified += counters.get("howard.uncertified", 0)
            for b, res in enumerate(many):
                assert key(res) == key(solve_prepared(plan, W[b]))
                rows += 1
        assert seeded == rows == 2400
        # Exact ties must reach the certificate, so that accepting every
        # row would return some tied cycle the cold solve does not.
        assert 0 < uncertified < rows

    def test_dispatch_rule_is_structural(self):
        # Unit tokens everywhere: n < 16 k, so nothing is seeded and the
        # unseeded lockstep keeps the cold round counts.
        rng = np.random.default_rng(2)
        for g, W in near_tie_trials(rng, 20, rows=3):
            plan = prepare_howard(g)
            assert not seeded_components(plan)
            many, counters = solve_and_count(plan, W)
            assert "howard.seeded_rows" not in counters
            assert many == [solve_prepared(plan, w) for w in W]


class TestTypedErrors:
    def test_bad_weight_shape_is_a_validation_error(self):
        plan = prepare_howard(RatioGraph(2, [(0, 1, 1.0, 1), (1, 0, 1.0, 1)]))
        with pytest.raises(ValidationError, match=r"shape \(B, 2\)"):
            solve_prepared_many(plan, np.ones((3, 5)))
        with pytest.raises(ValueError):
            solve_prepared_many(plan, np.ones(2))

    def test_unknown_skeleton_method_is_a_validation_error(self):
        insts = strict_instances((1, 2, 3), 6, 1)
        sk = build_skeleton(insts[0], "strict")
        with pytest.raises(ValidationError, match="unknown method 'karp'"):
            sk.solve(insts[0], solver="karp")
