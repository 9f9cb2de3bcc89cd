"""Tests for TPN construction (Sections 3.2 / 3.3 of the paper)."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings

from repro import (
    Application,
    CommModel,
    Instance,
    Mapping,
    Platform,
    ReplicationExplosionError,
)
from repro.engine import build_skeleton
from repro.experiments import example_a
from repro.maxplus.howard import _PreparedSingleton, prepare_howard
from repro.petri import PlaceKind, TimedEventGraph, build_tpn, validate_tpn
from repro.petri.builder import tpn_structure

from .conftest import small_instances


class TestExampleADimensions:
    """The net of Figure 4: m = 6 rows, 2n-1 = 7 columns."""

    def test_overlap_shape(self):
        net = build_tpn(example_a(), "overlap")
        assert (net.n_rows, net.n_columns) == (6, 7)
        assert net.n_transitions == 42

    def test_overlap_place_census(self):
        net = build_tpn(example_a(), "overlap")
        rep = validate_tpn(net)
        # flow: 6 rows x 6 column-gaps
        assert rep.places_by_kind[PlaceKind.FLOW] == 36
        # comp circuits: every row position of each column -> 4 columns x 6
        assert rep.places_by_kind[PlaceKind.RR_COMP] == 24
        # out circuits on comm columns: 3 columns x 6 rows
        assert rep.places_by_kind[PlaceKind.RR_OUT] == 18
        assert rep.places_by_kind[PlaceKind.RR_IN] == 18
        # one token per circuit: 7 comp + 7 out-ports... counted below
        assert rep.tokens == net.total_tokens()

    def test_overlap_token_count_equals_circuits(self):
        net = build_tpn(example_a(), "overlap")
        # circuits: comp per processor (7) + out ports (1+2+3=6... P0,P1,P2,
        # P3,P4,P5 have successors -> 6) + in ports (P1..P6 -> 6)
        assert net.total_tokens() == 7 + 6 + 6

    def test_strict_place_census(self):
        net = build_tpn(example_a(), "strict")
        rep = validate_tpn(net)
        assert rep.places_by_kind[PlaceKind.FLOW] == 36
        # one serialization circuit per processor, total 6 rows per column
        # span: each row of each processor contributes one place -> 4
        # stages x 6 rows = 24
        assert rep.places_by_kind[PlaceKind.RCS] == 24
        assert net.total_tokens() == 7  # one token per processor

    def test_transition_durations_follow_mapping(self):
        inst = example_a()
        net = build_tpn(inst, "overlap")
        # row 1 computation of S1 runs on P2 (round-robin)
        t = net.transition_at(1, 2)
        assert t.kind == "comp" and t.procs == (2,)
        assert t.duration == pytest.approx(inst.comp_time(1, 2))
        # row 1 transmission of F0 goes P0 -> P2 with time 192
        t = net.transition_at(1, 1)
        assert t.procs == (0, 2)
        assert t.duration == pytest.approx(192.0)

    def test_labels(self):
        net = build_tpn(example_a(), "overlap")
        assert net.transition_at(0, 0).label == "S0/P0 [row 0]"
        assert net.transition_at(1, 1).label == "F0:P0->P2 [row 1]"


class TestRowBudget:
    def test_explosion_guard(self):
        from repro.experiments import example_c

        with pytest.raises(ReplicationExplosionError) as err:
            build_tpn(example_c(), "overlap", max_rows=1000)
        assert err.value.m == 10395

    def test_budget_disabled(self):
        # max_rows=None builds even the big net (structure only, no solve)
        from repro.experiments import example_c

        net = build_tpn(example_c(), "overlap", max_rows=None)
        assert net.n_rows == 10395
        assert net.n_transitions == 10395 * 7


class TestInvariantsOnRandomInstances:
    @given(small_instances())
    @settings(max_examples=40, deadline=None)
    def test_both_models_validate(self, inst):
        for model in ("overlap", "strict"):
            net = build_tpn(inst, model)
            rep = validate_tpn(net)
            assert rep.n_transitions == inst.num_paths * (2 * inst.n_stages - 1)

    @given(small_instances())
    @settings(max_examples=25, deadline=None)
    def test_overlap_cycles_stay_in_columns(self, inst):
        """Section 4.1: any overlap cycle contains transitions of a single
        column — check via SCC membership."""
        net = build_tpn(inst, "overlap")
        graph = net.to_ratio_graph()
        for comp in graph.strongly_connected_components():
            cols = {net.transitions[t].column for t in comp}
            if len(comp) > 1:
                assert len(cols) == 1

    @given(small_instances())
    @settings(max_examples=25, deadline=None)
    def test_strict_token_count_is_processor_count(self, inst):
        net = build_tpn(inst, "strict")
        assert net.total_tokens() == sum(inst.replication_counts)


# ----------------------------------------------------------------------
# Parity of the array builder with the per-place construction
# ----------------------------------------------------------------------
def _reference_tpn(inst, model):
    """The per-place construction the array builder replaced: the
    reference for transition and place order, durations and resources."""
    model = CommModel.parse(model)
    mapping = inst.mapping
    n, m = inst.n_stages, mapping.num_paths
    n_cols = 2 * n - 1
    net = TimedEventGraph(n_rows=m, n_columns=n_cols)
    for j in range(m):
        for c in range(n_cols):
            i = c // 2
            u = mapping.processor_for(i, j)
            if c % 2 == 0:
                net.add_transition(j, c, inst.comp_time(i, u), "comp", i, (u,))
            else:
                v = mapping.processor_for(i + 1, j)
                net.add_transition(j, c, inst.comm_time(i, u, v), "comm", i, (u, v))
    for j in range(m):
        for c in range(n_cols - 1):
            net.add_place(j * n_cols + c, j * n_cols + c + 1, 0, PlaceKind.FLOW)

    def circuit(rows, col_out, col_in, kind, resource):
        k = len(rows)
        for idx in range(k):
            net.add_place(rows[idx] * n_cols + col_out,
                          rows[(idx + 1) % k] * n_cols + col_in,
                          1 if idx == k - 1 else 0, kind, resource)

    for i in range(n):
        procs = mapping.processors_of(i)
        for r, u in enumerate(procs):
            rows = list(range(r, m, len(procs)))
            if model.overlap:
                circuit(rows, 2 * i, 2 * i, PlaceKind.RR_COMP, f"P{u}:comp")
                if i < n - 1:
                    circuit(rows, 2 * i + 1, 2 * i + 1, PlaceKind.RR_OUT, f"P{u}:out")
                if i > 0:
                    circuit(rows, 2 * i - 1, 2 * i - 1, PlaceKind.RR_IN, f"P{u}:in")
            else:
                col_first = 2 * i - 1 if i > 0 else 2 * i
                col_last = 2 * i + 1 if i < n - 1 else 2 * i
                circuit(rows, col_last, col_first, PlaceKind.RCS, f"P{u}")
    return net


def _random_instance(seed):
    """1-5 stages on shuffled processors; every fourth seed has m_i = 1
    everywhere, odd seeds carry infinite-bandwidth links."""
    rng = np.random.default_rng(seed)
    n = 1 + seed % 5
    counts = [1] * n if seed % 4 == 0 else rng.integers(1, 5, n).tolist()
    p = sum(counts) + int(rng.integers(0, 3))
    perm = rng.permutation(p).tolist()
    bounds = np.cumsum([0] + counts).tolist()
    mapping = Mapping([perm[bounds[i]:bounds[i + 1]] for i in range(n)],
                      n_processors=p)
    bandwidths = rng.uniform(0.5, 5.0, (p, p))
    if seed % 2:
        bandwidths[rng.random((p, p)) < 0.4] = np.inf
    app = Application(works=rng.uniform(1.0, 10.0, n).tolist(),
                      file_sizes=rng.uniform(0.0, 10.0, n - 1).tolist())
    plat = Platform(rng.uniform(0.5, 3.0, p).tolist(), bandwidths)
    return Instance(app, plat, mapping)


def _assert_same_plan(a, b):
    assert (a.n_nodes, a.n_edges) == (b.n_nodes, b.n_edges)
    assert np.array_equal(a.tokens, b.tokens)
    assert len(a.components) == len(b.components)
    for ca, cb in zip(a.components, b.components):
        assert type(ca) is type(cb)
        if isinstance(ca, _PreparedSingleton):
            assert (ca.node, ca.self_loops) == (cb.node, cb.self_loops)
            continue
        assert (ca.n, ca.node_map) == (cb.n, cb.node_map)
        for name in ("edge_map", "order", "src", "dst", "tokens", "start"):
            x, y = getattr(ca, name), getattr(cb, name)
            assert x.dtype == y.dtype and np.array_equal(x, y), name


class TestArrayBuilderParity:
    @pytest.mark.parametrize("seed", range(24))
    @pytest.mark.parametrize("model", ["overlap", "strict"])
    def test_matches_per_place_construction(self, seed, model):
        inst = _random_instance(seed)
        ref = _reference_tpn(inst, model)
        net = build_tpn(inst, model)
        assert (net.n_rows, net.n_columns) == (ref.n_rows, ref.n_columns)
        assert net.transitions == ref.transitions
        # equal floats can still differ in bits (signed zeros)
        assert [struct.pack("<d", t.duration) for t in net.transitions] == [
            struct.pack("<d", t.duration) for t in ref.transitions]
        assert net.places == ref.places
        st = tpn_structure(inst.mapping, model)
        assert st.n_transitions == ref.n_transitions
        assert st.resources(inst.mapping.used_processors) == [p.resource for p in ref.places]
        assert [PlaceKind.ALL[k] for k in st.kind.tolist()] == [
            p.kind for p in ref.places]

    @pytest.mark.parametrize("seed", range(24))
    @pytest.mark.parametrize("model", ["overlap", "strict"])
    def test_skeleton_plan_matches_net_plan(self, seed, model):
        inst = _random_instance(seed)
        ref_graph = _reference_tpn(inst, model).to_ratio_graph()
        sk = build_skeleton(inst, model)
        _assert_same_plan(sk.plan, prepare_howard(ref_graph))
        _assert_same_plan(sk.plan, prepare_howard(build_tpn(inst, model).to_ratio_graph()))
        assert np.array_equal(sk.stamp_weights(inst), ref_graph.weight)

    def test_meta_and_budget(self):
        inst = example_a()
        net = build_tpn(inst, "strict")
        assert net.meta == {"model": "strict", "n_stages": 4, "m": 6,
                            "replication": (1, 2, 3, 1)}
        with pytest.raises(ReplicationExplosionError):
            tpn_structure(inst.mapping, "strict", max_rows=5)
