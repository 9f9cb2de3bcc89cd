"""Token-edge seeded lockstep Howard against the cold scalar oracle.

Every multi-node SCC starts each lockstep row from the policy its
token-edge reduction proposes, and accepts the row only under a
certificate; each uncertified row is solved by the cold scalar kernel.
Either way each row must equal ``solve_prepared`` from a cold start in
value bits, cycle nodes and cycle edges.  These tests replay real strict
topologies (and tie-prone integer weights on the ``mixed`` campaign's
count groups), check the proposal's parts against references (the
dense reduced solve against scalar Howard, the chain-contracted forward
pass against brute-force longest paths), check the one-pass certificate
(``_certify_seeded``) on hand-built start policies, run random near-tie
SCCs with unit and with 0-2 tokens per edge (where the certificate must
reject some rows), seed and certify slabs in row chunks (around the
chunk boundaries, and a large topology's forward-pass budget), pin the
telemetry counters, and check that scalar solves never build the
token-edge reduction.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaign import CampaignSpec
from repro.core.throughput import compute_period
from repro.engine import BatchEngine
from repro.engine.skeleton import build_skeleton
from repro.errors import ValidationError
from repro.experiments.examples_paper import example_c
from repro.maxplus import _token_seed, howard
from repro.maxplus._token_seed import forward_matrix, reduced_solve, token_dag
from repro.maxplus.graph import RatioGraph
from repro.maxplus.howard import (
    max_cycle_ratio_howard,
    prepare_howard,
    solve_prepared,
    solve_prepared_many,
)
from repro.petri.reduction import pattern_plan

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
    """The multi-node SCCs: every one is seeded on a lockstep solve."""
    return [c for c in plan.components if isinstance(c, howard._PreparedScc)]


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
        # [3,4,5,7]: n 2 940 (1 270 kept, 2 530 two-edge chains), k 19.
        # A budget of two rows' cells splits five rows into three
        # forward-pass chunks.
        insts = strict_instances((3, 4, 5, 7), 19, 2)[:5]
        sk = build_skeleton(insts[0], "strict")
        (comp,) = seeded_components(sk.plan)
        assert (comp.n, comp.seed.n_kept, comp.seed.tok.size) == (2940, 1270, 19)
        assert comp.seed.chains.shape == (2530, 2)
        W = sk.stamp_weights_many(insts)
        whole = solve_prepared_many(sk.plan, W)
        chunks = []
        forward = howard.forward_matrix

        def counted(dag, Wc):
            chunks.append(len(Wc))
            return forward(dag, Wc)

        monkeypatch.setattr(howard, "forward_matrix", counted)
        monkeypatch.setattr(howard, "_SEED_CELL_BUDGET",
                            2 * (19 * 1271 + 2530 * 2))
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
        chunk = howard._seed_chunk_rows(comp.seed)
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


def dense_trials(rng, n_trials, rows):
    """Random strongly connected dense ``(rows, k, k)`` token-edge
    matrices: a Hamiltonian cycle plus random edges, ``-inf`` elsewhere,
    weights drawn from :data:`TIE_LEVELS` (so cycle ratios tie) and 1-3
    tokens per node."""
    for _ in range(n_trials):
        k = int(rng.integers(2, 11))
        mask = np.zeros((k, k), dtype=bool)
        perm = rng.permutation(k)
        mask[perm, np.roll(perm, -1)] = True
        mask |= rng.random((k, k)) < rng.uniform(0.0, 0.6)
        A = np.where(mask, TIE_LEVELS[rng.integers(0, TIE_LEVELS.size,
                                                   (rows, k, k))], -np.inf)
        yield A, rng.integers(1, 4, k).astype(float)


class TestDenseReducedSolve:
    def test_ratio_and_potentials_against_scalar_howard(self):
        rng = np.random.default_rng(3)
        for A, t in dense_trials(rng, 150, rows=4):
            B, k, _ = A.shape
            tol = np.full(B, 1e-9)
            lam, root, q = reduced_solve(A, t, tol, 64 * max(k, 8))
            for b in range(B):
                src, dst = np.nonzero(A[b] > -np.inf)
                g = RatioGraph(k, [(int(i), int(j), float(A[b, i, j]), int(t[i]))
                                   for i, j in zip(src, dst)])
                ref = max_cycle_ratio_howard(g).value
                assert lam[b] == pytest.approx(ref, rel=1e-12, abs=1e-12)
                # q is a potential of A - lam * t: zero on the critical
                # node, and every node's best edge is tight.
                assert q[b, root[b]] == 0.0
                best = (A[b] - (lam[b] * t)[:, None] + q[b][None, :]).max(axis=1)
                np.testing.assert_allclose(best, q[b], rtol=0, atol=1e-9)

    def test_rows_are_independent(self):
        rng = np.random.default_rng(4)
        A, t = next(dense_trials(rng, 1, rows=6))
        tol = np.full(6, 1e-9)
        whole = reduced_solve(A, t, tol, 64)
        for b in range(6):
            lam, root, q = reduced_solve(A[b:b + 1], t, tol[:1], 64)
            assert (lam[0], root[0]) == (whole[0][b], whole[1][b])
            assert np.array_equal(q[0], whole[2][b])


def chained_scc(rng):
    """A random live SCC whose zero-token part is a DAG of chains.

    Hubs ``0 .. h-1`` are joined forward by one or two parallel chains
    of 0-7 interior nodes (and by a few skip chains); the token edge
    ``h-1 -> 0`` closes every cycle.  Extra token edges leave or enter
    interior chain nodes, so some chains end or start at token
    endpoints.  Returns CSR-ordered ``(n, src, dst, tokens)``.
    """
    h = int(rng.integers(3, 7))
    edges: list[tuple[int, int, int]] = []
    interior: list[int] = []
    n = h

    def chain(u, v):
        nonlocal n
        prev = u
        for _ in range(int(rng.integers(0, 8))):
            edges.append((prev, n, 0))
            interior.append(n)
            prev, n = n, n + 1
        edges.append((prev, v, 0))

    for u in range(h - 1):
        for _ in range(int(rng.integers(1, 3))):
            chain(u, u + 1)
    for _ in range(int(rng.integers(0, 3))):
        u = int(rng.integers(0, h - 1))
        chain(u, int(rng.integers(u + 1, h)))
    edges.append((h - 1, 0, 1))
    for _ in range(int(rng.integers(1, 4))):
        if interior:
            tail = int(rng.choice(interior))
            head = int(rng.choice(interior + [0]))
            edges.append((tail, head, int(rng.integers(1, 3))))
    edges.sort(key=lambda edge: edge[0])
    src, dst, tokens = (np.array(col) for col in zip(*edges))
    return n, src, dst, tokens.astype(float)


def longest_zero_token_paths(n, src, dst, tokens, w):
    """``L[a][b]``: longest zero-token path from ``a`` to ``b`` (0 for
    ``a == b``, ``-inf`` if none), by ``n`` rounds of relaxation."""
    L = np.full((n, n), -np.inf)
    np.fill_diagonal(L, 0.0)
    zero = [(int(s), int(d), float(x))
            for s, d, t, x in zip(src, dst, tokens, w) if t == 0]
    for _ in range(n):
        for s, d, x in zero:
            L[:, d] = np.maximum(L[:, d], L[:, s] + x)
    return L


class TestContractedForwardMatrix:
    def test_against_brute_force_longest_paths(self):
        rng = np.random.default_rng(5)
        contracted = longest_chain = 0
        for _ in range(60):
            n, src, dst, tokens = chained_scc(rng)
            dag = token_dag(n, src, dst, tokens)
            contracted += n - dag.n_kept
            longest_chain = max(longest_chain, dag.chains.shape[1])
            W = rng.uniform(0.5, 10.0, (3, src.size))
            A, _ = forward_matrix(dag, W)
            tok = np.flatnonzero(tokens > 0)
            for b in range(3):
                L = longest_zero_token_paths(n, src, dst, tokens, W[b])
                ref = W[b, tok][:, None] + L[np.ix_(dst[tok], src[tok])]
                np.testing.assert_allclose(A[b], ref, rtol=1e-12)
                assert np.array_equal(A[b] == -np.inf, ref == -np.inf)
        # The trials do contract, through chains of several nodes.
        assert contracted > 0 and longest_chain >= 6

    def test_token_endpoints_are_kept(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n, src, dst, tokens = chained_scc(rng)
            dag = token_dag(n, src, dst, tokens)
            tok = tokens > 0
            kept = set(dag.kept.tolist())
            assert set(src[tok].tolist()) | set(dst[tok].tolist()) <= kept
            # Each CSR edge lies on exactly one contracted edge.
            real = dag.chains[dag.chains < src.size]
            assert sorted(real.tolist()) == list(range(src.size))


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
        plan = prepare_howard(g)
        (comp,) = seeded_components(plan)
        start = csr_policy(comp, hamiltonian)
        monkeypatch.setattr(howard, "_seed_start",
                            lambda scc, Wc, tol: start.repeat(len(Wc), 0))
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


class TestScalarColdFallback:
    def test_uncertified_rows_take_the_scalar_kernel(self, monkeypatch):
        # Integer weights tie, so most lcm-60 rows miss the certificate.
        # Each uncertified row of each 4-row chunk is solved by the cold
        # scalar kernel and equals the cold solve in every field, round
        # count included; a certified row reports 1 round.
        insts = strict_instances((3, 4, 5), 12, 3)
        sk = build_skeleton(insts[0], "strict")
        W = np.random.default_rng(8).integers(
            1, 11, (10, sk.plan.n_edges)).astype(float)
        rejected, scalar_rows = [], []
        certify, scalar = howard._certify_seeded, howard._scalar_candidate

        def certify_counted(scc, Wc, tol, policy):
            out = certify(scc, Wc, tol, policy)
            b0 = 4 * len(rejected)
            rejected.append([b0 + i for i, cand in enumerate(out) if cand is None])
            return out

        def scalar_counted(scc, w, tol):
            scalar_rows.append(w.tobytes())
            return scalar(scc, w, tol)

        monkeypatch.setattr(howard, "_SEED_CHUNK_ROWS", 4)
        monkeypatch.setattr(howard, "_certify_seeded", certify_counted)
        monkeypatch.setattr(howard, "_scalar_candidate", scalar_counted)
        many, counters = solve_and_count(sk.plan, W)
        cold_rows = [b for chunk in rejected for b in chunk]
        assert len(rejected) == 3 and 0 < len(cold_rows) < len(W)
        assert counters["howard.uncertified"] == len(cold_rows)
        (comp,) = seeded_components(sk.plan)
        assert scalar_rows == [W[b, comp.gmap].tobytes() for b in cold_rows]
        for b, (res, w) in enumerate(zip(many, W)):
            cold = solve_prepared(sk.plan, w)
            assert key(res) == key(cold)
            assert res.n_rounds == (cold.n_rounds if b in cold_rows else 1)


class TestTieProneMixedGroups:
    @pytest.mark.parametrize("counts", [(1, 4, 3), (2, 3, 2)])
    def test_integer_weights_equal_cold_solve(self, counts):
        # The mixed campaign's strict count groups with uniform integer
        # weights in 1..10: ties make the certificate reject some rows.
        insts = strict_instances(counts, 8, 2)
        sk = build_skeleton(insts[0], "strict")
        W = np.random.default_rng(sum(counts)).integers(
            1, 11, (96, sk.plan.n_edges)).astype(float)
        many, counters = solve_and_count(sk.plan, W)
        assert counters["howard.seeded_rows"] == \
            len(W) * len(seeded_components(sk.plan))
        assert 0 < counters["howard.uncertified"] < len(W)
        for res, w in zip(many, W):
            cold = solve_prepared(sk.plan, w)
            assert key(res) == key(cold)
            assert res.n_rounds in (1, cold.n_rounds)


def near_tie_trials(rng, n_trials, rows, tokens=None):
    """Random strongly connected graphs with tie-prone weights: n in
    4..13, a Hamiltonian cycle plus up to 2n random edges, each edge
    with one token, or ``rng.integers(*tokens)`` tokens; draws with a
    token-free cycle are redrawn."""
    while n_trials:
        n = int(rng.integers(4, 14))
        perm = rng.permutation(n)
        edges = [(int(perm[i]), int(perm[(i + 1) % n])) for i in range(n)]
        for _ in range(int(rng.integers(1, 2 * n + 1))):
            edges.append((int(rng.integers(n)), int(rng.integers(n))))
        g = RatioGraph(n, [(s, d, 0.0, 1 if tokens is None
                            else int(rng.integers(*tokens)))
                           for s, d in edges])
        if g.is_live():
            n_trials -= 1
            yield g, TIE_LEVELS[rng.integers(0, TIE_LEVELS.size,
                                             (rows, len(edges)))]


def assert_trials_equal_cold(trials, n_trials):
    """Every row of every trial equals the cold solve; some, not all,
    rows miss the certificate."""
    rows = seeded = uncertified = 0
    for g, W in trials:
        plan = prepare_howard(g)
        assert seeded_components(plan)
        many, counters = solve_and_count(plan, W)
        seeded += counters["howard.seeded_rows"]
        uncertified += counters.get("howard.uncertified", 0)
        for b, res in enumerate(many):
            assert key(res) == key(solve_prepared(plan, W[b]))
            rows += 1
    assert seeded == rows == 6 * n_trials
    # Exact ties must reach the certificate, so that accepting every
    # row would return some tied cycle the cold solve does not.
    assert 0 < uncertified < rows


class TestNearTieCertificate:
    def test_forced_seed_equals_cold_on_every_trial(self):
        rng = np.random.default_rng(1)
        assert_trials_equal_cold(near_tie_trials(rng, 400, rows=6), 400)

    def test_zero_to_two_tokens_per_edge(self):
        # Token-free edges make chains and several token edges per
        # cycle, like test_howard_many.random_live_graph's draws.
        rng = np.random.default_rng(2)
        trials = near_tie_trials(rng, 400, rows=6, tokens=(0, 3))
        assert_trials_equal_cold(trials, 400)


class TestLazyTokenDag:
    def test_scalar_solves_build_no_token_dag(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("token DAG built by a scalar solve")

        monkeypatch.setattr(howard, "token_dag", forbidden)
        monkeypatch.setattr(_token_seed, "token_dag", forbidden)
        g = RatioGraph(3, [(0, 1, 1.0, 0), (1, 2, 2.0, 1), (2, 0, 1.0, 0),
                           (1, 0, 5.0, 1)])
        plan = prepare_howard(g)
        solve_prepared(plan, g.weight)
        max_cycle_ratio_howard(g)
        inst = strict_instances((3, 4, 5), 12, 1)[0]
        compute_period(inst, "strict", method="tpn")
        pattern_plan.cache_clear()
        for u, v in ((2, 3), (3, 4)):
            solve_prepared(pattern_plan(u, v), np.ones(2 * u * v))
        compute_period(example_c(heterogeneous=True), "overlap")
        # The lockstep entry point is the one that builds it.
        with pytest.raises(AssertionError, match="token DAG"):
            solve_prepared_many(plan, g.weight[None, :])


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
