"""Tests for the RatioGraph structure (SCC, liveness, subgraphs)."""

import numpy as np
import pytest

from repro import DeadlockError, ValidationError
from repro.maxplus import RatioGraph
from repro.maxplus.graph import Edge
from repro.maxplus.howard import _PreparedSingleton, prepare_howard


def triangle(tokens=(1, 1, 1), weights=(1.0, 2.0, 3.0)) -> RatioGraph:
    return RatioGraph(3, [
        (0, 1, weights[0], tokens[0]),
        (1, 2, weights[1], tokens[1]),
        (2, 0, weights[2], tokens[2]),
    ])


class TestConstruction:
    def test_edge_views(self):
        g = triangle()
        e = g.edge(1)
        assert e == Edge(1, 1, 2, 2.0, 1)
        assert [x.src for x in g.edges()] == [0, 1, 2]

    def test_out_of_range_rejected(self):
        with pytest.raises(Exception):
            RatioGraph(2, [(0, 2, 1.0, 1)])

    def test_negative_tokens_rejected(self):
        with pytest.raises(Exception):
            RatioGraph(2, [(0, 1, 1.0, -1)])

    def test_nonfinite_weight_rejected(self):
        with pytest.raises(Exception):
            RatioGraph(2, [(0, 1, float("inf"), 1)])

    def test_adjacency(self):
        g = triangle()
        assert g.out_edges(0) == [0]
        assert g.in_edges(0) == [2]

    def test_parallel_edges_and_self_loops(self):
        g = RatioGraph(1, [(0, 0, 1.0, 1), (0, 0, 2.0, 1)])
        assert g.n_edges == 2
        assert g.out_edges(0) == [0, 1]


class TestScc:
    def test_triangle_is_one_component(self):
        comps = triangle().strongly_connected_components()
        assert len(comps) == 1
        assert sorted(comps[0]) == [0, 1, 2]

    def test_chain_is_singletons(self):
        g = RatioGraph(3, [(0, 1, 1.0, 0), (1, 2, 1.0, 0)])
        comps = g.strongly_connected_components()
        assert sorted(len(c) for c in comps) == [1, 1, 1]

    def test_two_cycles_bridge(self):
        g = RatioGraph(4, [
            (0, 1, 1.0, 1), (1, 0, 1.0, 1),      # component {0,1}
            (1, 2, 1.0, 0),                       # bridge
            (2, 3, 1.0, 1), (3, 2, 1.0, 1),       # component {2,3}
        ])
        comps = {frozenset(c) for c in g.strongly_connected_components()}
        assert comps == {frozenset({0, 1}), frozenset({2, 3})}

    def test_reverse_topological_order(self):
        g = RatioGraph(2, [(0, 1, 1.0, 0)])
        comps = g.strongly_connected_components()
        # Tarjan emits sinks first: {1} before {0}
        assert comps[0] == [1]

    def test_large_path_no_recursion_error(self):
        n = 50_000
        g = RatioGraph(n, [(i, i + 1, 1.0, 0) for i in range(n - 1)])
        assert len(g.strongly_connected_components()) == n


class TestLiveness:
    def test_live_graph(self):
        assert triangle().is_live()

    def test_token_free_cycle_detected(self):
        g = triangle(tokens=(0, 0, 0))
        assert not g.is_live()
        with pytest.raises(DeadlockError):
            g.token_free_topological_order()

    def test_token_free_self_loop_detected(self):
        g = RatioGraph(1, [(0, 0, 1.0, 0)])
        with pytest.raises(DeadlockError):
            g.token_free_topological_order()

    def test_one_token_breaks_cycle(self):
        g = triangle(tokens=(0, 0, 1))
        order = g.token_free_topological_order()
        assert order.index(0) < order.index(1) < order.index(2)


class TestSubgraphAndRatios:
    def test_subgraph_maps_back(self):
        g = RatioGraph(4, [
            (0, 1, 1.0, 1), (1, 0, 2.0, 1), (1, 2, 3.0, 0), (3, 3, 4.0, 1),
        ])
        sub, node_map, edge_map = g.subgraph([1, 0])
        assert sub.n_nodes == 2 and sub.n_edges == 2
        assert node_map == [1, 0]
        assert sorted(edge_map) == [0, 1]

    def test_cycle_ratio_of(self):
        g = triangle(weights=(1.0, 2.0, 3.0), tokens=(1, 0, 1))
        assert g.cycle_ratio_of([0, 1, 2]) == pytest.approx(3.0)

    def test_cycle_ratio_token_free_raises(self):
        g = triangle(tokens=(0, 0, 0))
        with pytest.raises(DeadlockError):
            g.cycle_ratio_of([0, 1, 2])


def mixed() -> RatioGraph:
    """Four SCCs: a 3-cycle, a self-loop, a pair with parallel edges and
    a source node, joined by token-free bridges."""
    return RatioGraph(7, [
        (0, 1, 1.0, 0), (1, 2, 2.0, 0), (2, 0, 3.0, 1), (2, 3, 1.0, 0),
        (3, 3, 4.0, 1), (3, 4, 1.0, 0), (4, 5, 1.0, 0), (5, 4, 2.0, 1),
        (5, 4, 7.0, 2), (6, 0, 1.0, 0), (1, 0, 5.0, 1),
    ])


def as_arrays(g: RatioGraph) -> RatioGraph:
    return RatioGraph.from_arrays(g.n_nodes, g.src, g.dst, g.weight, g.tokens)


class TestFromArrays:
    @pytest.mark.parametrize("edges", [
        [(0, 1, 1.0, 1), (0, 2, 1.0, 1)],                  # out of range
        [(0, 1, 1.0, 1), (-1, 0, 1.0, 1)],                 # negative node
        [(0, 1, 1.0, 1), (1, 0, 1.0, -1)],                 # negative tokens
        [(0, 1, float("nan"), 1)],                         # non-finite
        [(0, 1, 1.0, 1), (1, 0, float("-inf"), 1)],        # non-finite
        [(0, 1, float("inf"), -1), (0, 5, 1.0, 1)],        # first edge wins
    ])
    def test_same_errors_as_tuple_constructor(self, edges):
        with pytest.raises(ValidationError) as tuple_err:
            RatioGraph(2, edges)
        src, dst, weight, tokens = zip(*edges)
        with pytest.raises(ValidationError) as array_err:
            RatioGraph.from_arrays(2, src, dst, weight, tokens)
        assert str(array_err.value) == str(tuple_err.value)

    def test_negative_node_count(self):
        with pytest.raises(ValidationError, match="n_nodes"):
            RatioGraph.from_arrays(-1, [], [], [], [])

    def test_ragged_arrays_rejected(self):
        with pytest.raises(ValidationError, match="equal length"):
            RatioGraph.from_arrays(2, [0, 1], [1], [1.0, 1.0], [1, 1])

    def test_equals_tuple_constructor(self):
        g = mixed()
        h = as_arrays(g)
        assert list(h.edges()) == list(g.edges())
        assert (h.src.dtype, h.dst.dtype, h.weight.dtype, h.tokens.dtype) == (
            np.int64, np.int64, np.float64, np.int64)

    def test_empty(self):
        g = RatioGraph.from_arrays(3, [], [], [], [])
        assert g.n_edges == 0
        assert g.strongly_connected_components() == [[0], [1], [2]]


class TestStructureUnchanged:
    """Orders Howard's tie-breaking depends on, pinned on fixtures."""

    @pytest.mark.parametrize("build", [lambda g: g, as_arrays])
    def test_scc_order(self, build):
        assert build(mixed()).strongly_connected_components() == [
            [5, 4], [3], [2, 1, 0], [6]]
        bridge = RatioGraph(4, [
            (0, 1, 1.0, 1), (1, 0, 1.0, 1), (1, 2, 1.0, 0),
            (2, 3, 1.0, 1), (3, 2, 1.0, 1),
        ])
        assert build(bridge).strongly_connected_components() == [[3, 2], [1, 0]]
        assert build(triangle()).strongly_connected_components() == [[2, 1, 0]]

    def test_topological_order(self):
        assert mixed().token_free_topological_order() == [6, 0, 1, 2, 3, 4, 5]

    def test_adjacency_order(self):
        g = mixed()
        assert [g.out_edges(v) for v in range(7)] == [
            [0], [1, 10], [2, 3], [4, 5], [6], [7, 8], [9]]
        assert [g.in_edges(v) for v in range(7)] == [
            [2, 9, 10], [0], [1], [3, 4], [5, 7, 8], [6], []]

    def test_subgraph_maps(self):
        sub, node_map, edge_map = mixed().subgraph([5, 4, 3, 1])
        assert node_map == [5, 4, 3, 1]
        assert edge_map == [4, 5, 6, 7, 8]
        assert sub.src.tolist() == [2, 2, 1, 0, 0]
        assert sub.dst.tolist() == [2, 1, 0, 1, 1]
        assert sub.weight.tolist() == [4.0, 1.0, 1.0, 2.0, 7.0]

    def test_subgraph_outside_nodes_are_isolated(self):
        sub, node_map, edge_map = triangle().subgraph([2, 0, 7])
        assert node_map == [2, 0, 7] and sub.n_nodes == 3
        assert edge_map == [2] and (sub.src.tolist(), sub.dst.tolist()) == ([0], [1])

    def test_tpn_orders(self):
        from repro.experiments import example_a
        from repro.petri import build_tpn

        g = build_tpn(example_a(), "strict").to_ratio_graph()
        comps = g.strongly_connected_components()
        assert [len(c) for c in comps] == [42]
        assert comps[0][:10] == [7, 21, 16, 15, 14, 28, 25, 24, 23, 22]
        assert g.token_free_topological_order()[:12] == [
            0, 1, 2, 7, 3, 8, 4, 9, 14, 5, 10, 15]
        _, node_map, edge_map = g.subgraph(range(7, 14))
        assert node_map == list(range(7, 14))
        assert edge_map == [6, 7, 8, 9, 10, 11]


def _reference_plan(graph):
    """``prepare_howard``'s components by the per-SCC subgraph
    formulation: the reference for its vectorized edge grouping."""
    comps = []
    for comp in graph.strongly_connected_components():
        if len(comp) == 1:
            loops = tuple(i for i in graph.out_edges(comp[0])
                          if int(graph.dst[i]) == comp[0])
            if loops:
                comps.append(("loop", comp[0], loops))
            continue
        sub, node_map, edge_map = graph.subgraph(comp)
        order = np.argsort(sub.src, kind="stable")
        comps.append(("scc", tuple(node_map), edge_map, order.tolist(),
                      sub.dst[order].tolist(), sub.tokens[order].tolist()))
    return comps


def _plan_components(plan):
    out = []
    for c in plan.components:
        if isinstance(c, _PreparedSingleton):
            out.append(("loop", c.node, c.self_loops))
        else:
            out.append(("scc", c.node_map, c.edge_map.tolist(), c.order.tolist(),
                        c.dst.tolist(), c.tokens.astype(int).tolist()))
    return out


class TestPrepareMatchesSubgraphs:
    @pytest.mark.parametrize("seed", range(30))
    def test_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        edges = [(int(rng.integers(0, n)), int(rng.integers(0, n)),
                  float(rng.random()), int(rng.random() < 0.6))
                 for _ in range(int(rng.integers(0, 3 * n + 1)))]
        g = RatioGraph(n, edges)
        if not g.is_live():
            return
        assert _plan_components(prepare_howard(g)) == _reference_plan(g)

    @pytest.mark.parametrize("model", ["overlap", "strict"])
    def test_tpn_graphs(self, model):
        from repro.experiments import example_a, example_b
        from repro.petri import build_tpn

        for inst in (example_a(), example_b()):
            g = build_tpn(inst, model).to_ratio_graph()
            assert _plan_components(prepare_howard(g)) == _reference_plan(g)
