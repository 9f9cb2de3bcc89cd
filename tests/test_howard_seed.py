"""Token-edge seeded lockstep Howard against the cold scalar oracle.

Strict TPN SCCs with at least ``_SEED_NODES_PER_TOKEN`` nodes per token
edge start every lockstep row from the policy their token-edge
reduction proposes, and accept the row only under a certificate; an
uncertified row is recomputed with the cold scalar kernel.  Either way
each row must equal ``solve_prepared`` from a cold start in value bits,
cycle nodes and cycle edges.  These tests replay real strict topologies,
force random near-tie SCCs through the seeded kernel (where the
certificate must reject some rows), chunk a large topology's forward
pass, and pin the telemetry counters.
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
            cold = solve_prepared(sk.plan, W[b])
            assert key(res) == key(cold)
            assert res.n_rounds <= cold.n_rounds

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
