"""Tests for column decomposition and pattern graphs (Theorem 1)."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro import Application, Instance, Mapping, Platform
from repro.errors import SolverError
from repro.experiments import EXAMPLE_C_STRUCTURE, example_a, example_b, example_c
from repro.maxplus import howard, max_cycle_ratio
from repro.maxplus.lawler import max_cycle_ratio_lawler
from repro.petri import (
    CommPattern,
    build_tpn,
    column_subgraph,
    comm_patterns,
    computation_column,
)
from repro.petri.reduction import pattern_plan
from repro.telemetry import TELEMETRY

from .conftest import small_instances


class TestComputationColumns:
    def test_slowest_replica_dominates(self, replicated_middle):
        col = computation_column(replicated_middle, 1)
        assert col.contribution == pytest.approx(8.0 / 2.0)
        assert col.critical_proc in (1, 2)

    def test_unreplicated_stage(self, two_stage_chain):
        col = computation_column(two_stage_chain, 0)
        assert col.contribution == pytest.approx(2.0)
        assert col.per_processor == ((0, 2.0),)


class TestPatternStructure:
    def test_example_b_single_component(self):
        pats = comm_patterns(example_b(), 0)
        assert len(pats) == 1
        pat = pats[0]
        assert (pat.p, pat.u, pat.v, pat.window) == (1, 3, 4, 12)
        assert pat.senders == (0, 1, 2)
        # receiver grid order follows the round-robin step m_0 = 3 (mod 4):
        # P3, P6, P5, P4
        assert pat.receivers == (3, 6, 5, 4)

    def test_example_b_critical_ratio(self):
        pat = comm_patterns(example_b(), 0)[0]
        assert pat.critical_ratio() == pytest.approx(7000.0 / 2.0)
        assert pat.contribution() == pytest.approx(3500.0 / 12.0)

    def test_example_a_f1_pattern(self):
        pats = comm_patterns(example_a(), 1)
        assert len(pats) == 1
        pat = pats[0]
        assert (pat.p, pat.u, pat.v, pat.window) == (1, 2, 3, 6)
        assert pat.senders == (1, 2)
        # receivers step by m_1 = 2 mod 3: P3, P5, P4
        assert pat.receivers == (3, 5, 4)

    def test_example_c_components(self):
        """Figures 11/13: F1 has p=3 components of 7x9 patterns; P5 talks
        only to P26, P29, ..., P50 and P6 only to P27, P30, ..., P51."""
        pats = comm_patterns(example_c(), 1)
        assert len(pats) == 3
        for pat in pats:
            assert (pat.u, pat.v) == (7, 9)
            assert pat.window == 189
        by_first_sender = {pat.senders[0]: pat for pat in pats}
        assert sorted(by_first_sender) == [5, 6, 7]
        assert set(by_first_sender[5].receivers) == set(
            EXAMPLE_C_STRUCTURE["p5_receivers"]
        )
        assert set(by_first_sender[6].receivers) == set(
            EXAMPLE_C_STRUCTURE["p6_receivers"]
        )

    def test_pattern_c_count(self):
        """c = m / lcm(m_i, m_{i+1}) = 10395 / 189 = 55 (Figure 13)."""
        inst = example_c()
        pat = comm_patterns(inst, 1)[0]
        assert inst.num_paths // pat.window == 55

    def test_cell_pair_matches_duration(self):
        inst = example_b()
        pat = comm_patterns(inst, 0)[0]
        for a in range(pat.u):
            for b in range(pat.v):
                s, r = pat.cell_pair(a, b)
                assert pat.durations[a, b] == pytest.approx(
                    inst.comm_time(0, s, r)
                )


class TestReductionCorrectness:
    """The pattern quotient must match the full column sub-TPN exactly."""

    @given(small_instances(max_stages=3))
    @settings(max_examples=25, deadline=None)
    def test_pattern_ratio_equals_column_ratio(self, inst):
        net = build_tpn(inst, "overlap")
        m = inst.num_paths
        for i in range(inst.n_stages - 1):
            sub, _ = column_subgraph(net, 2 * i + 1)
            full = max_cycle_ratio(sub).value / m
            pats = comm_patterns(inst, i)
            quotient = max(p.contribution() for p in pats)
            assert quotient == pytest.approx(full, rel=1e-9)

    @given(small_instances(max_stages=3))
    @settings(max_examples=25, deadline=None)
    def test_comp_column_equals_subgraph(self, inst):
        net = build_tpn(inst, "overlap")
        m = inst.num_paths
        for i in range(inst.n_stages):
            sub, _ = column_subgraph(net, 2 * i)
            full = max_cycle_ratio(sub).value / m
            assert computation_column(inst, i).contribution == pytest.approx(
                full, rel=1e-9
            )

    def test_pattern_graph_token_structure(self):
        pat = comm_patterns(example_b(), 0)[0]
        g = pat.to_ratio_graph()
        # u*v nodes, 2 per-cell edges
        assert g.n_nodes == 12 and g.n_edges == 24
        # one token per wrap row + per wrap column: u + v
        assert int(np.sum(g.tokens)) == pat.u + pat.v
        assert g.is_live()


def _pattern(u, v, seed):
    """A ``u x v`` pattern with seeded durations; even seeds use small
    integers so several cycles tie exactly."""
    rng = np.random.default_rng(seed)
    if seed % 2 == 0:
        durations = rng.integers(1, 4, (u, v)).astype(float)
    else:
        durations = rng.uniform(0.1, 10.0, (u, v))
    durations[rng.random((u, v)) < 0.1] = 0.0  # infinite-bandwidth cells
    return CommPattern(file_index=0, component=0, p=1, u=u, v=v,
                       window=u * v, senders=tuple(range(u)),
                       receivers=tuple(range(u, u + v)), durations=durations)


#: Every shape up to Example C's 7x9, including (1, 1), (1, v) and (u, 1).
SHAPES = [(u, v) for u in range(1, 8) for v in range(1, 10)]


class TestPatternPlanCache:
    @pytest.mark.parametrize("seed", range(6))
    def test_durations_match_comm_time_bits(self, seed):
        rng = np.random.default_rng(seed)
        counts = rng.integers(1, 6, 3).tolist()
        p = sum(counts)
        bounds = np.cumsum([0] + counts).tolist()
        bandwidths = rng.uniform(0.5, 5.0, (p, p))
        bandwidths[rng.random((p, p)) < 0.4] = np.inf
        inst = Instance(
            Application(works=[1.0, 2.0, 3.0], file_sizes=rng.uniform(0, 9, 2).tolist()),
            Platform(rng.uniform(0.5, 3.0, p).tolist(), bandwidths),
            Mapping([range(bounds[i], bounds[i + 1]) for i in range(3)], n_processors=p),
        )
        for i in range(2):
            for pat in comm_patterns(inst, i):
                for a in range(pat.u):
                    for b in range(pat.v):
                        expected = inst.comm_time(i, *pat.cell_pair(a, b))
                        assert pat.durations[a, b].hex() == expected.hex()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_cached_plan_is_bit_identical(self, seed):
        for u, v in SHAPES:
            pat = _pattern(u, v, seed + 10 * u + 100 * v)
            expected = max_cycle_ratio(pat.to_ratio_graph()).value
            assert pat.critical_ratio().hex() == expected.hex(), (u, v)

    def test_example_c_pattern(self):
        for pat in comm_patterns(example_c(), 1):
            assert (pat.u, pat.v) == (7, 9)
            expected = max_cycle_ratio(pat.to_ratio_graph()).value
            assert pat.critical_ratio().hex() == expected.hex()

    def test_torus_edge_order(self):
        """Edge 2 * cell is the cell's down edge, 2 * cell + 1 its right
        edge, both weighted by the cell's duration."""
        pat = _pattern(2, 3, 1)
        g = pat.to_ratio_graph()
        cells = [(a, b) for a in range(2) for b in range(3)]
        edges = []
        for a, b in cells:
            w = float(pat.durations[a, b])
            edges.append((a * 3 + b, ((a + 1) % 2) * 3 + b, w, int(a == 1)))
            edges.append((a * 3 + b, a * 3 + (b + 1) % 3, w, int(b == 2)))
        assert [(e.src, e.dst, e.weight, e.tokens) for e in g.edges()] == edges

    def test_lawler_fallback(self, monkeypatch):
        pat = _pattern(3, 4, 7)
        expected = max_cycle_ratio_lawler(pat.to_ratio_graph())

        def failing(*args, **kwargs):
            raise SolverError("policy iteration did not converge")

        monkeypatch.setattr(howard, "solve_prepared", failing)
        assert pat.critical_ratio() == expected
        assert max_cycle_ratio(pat.to_ratio_graph()).value == expected

    def test_one_plan_per_shape(self):
        pattern_plan.cache_clear()
        TELEMETRY.enable("test")
        try:
            shapes = [(2, 3), (1, 1), (2, 3), (3, 2), (1, 1), (2, 3)]
            for seed, (u, v) in enumerate(shapes):
                _pattern(u, v, seed).critical_ratio()
            prepares = TELEMETRY.counter_snapshot().get("howard.prepares", 0)
        finally:
            TELEMETRY.disable()
        assert prepares == 3
        assert pattern_plan.cache_info().currsize == 3
        assert pattern_plan(2, 3) is pattern_plan(2, 3)
