"""Warm-started Howard must match cold-started *values* everywhere.

The warm-start contract (ISSUE 2): seeding policy iteration from the
previous instance of a topology group may change round counts and — on
exact ties — which critical cycle is extracted, but never the period
value.  These tests pin that across the solver, the skeleton, the
engine and the sharded batch path, plus the opt-in default.
"""

import numpy as np
import pytest

from repro import Application, Instance, Mapping, Platform
from repro.engine import BatchEngine, evaluate
from repro.maxplus.graph import RatioGraph
from repro.maxplus.howard import HowardState, prepare_howard, solve_prepared


def _topology(counts):
    n, p = len(counts), sum(counts)
    bounds = np.cumsum((0,) + tuple(counts))
    mapping = Mapping(
        [tuple(range(bounds[i], bounds[i + 1])) for i in range(n)],
        n_processors=p,
    )
    app = Application(works=[1.0] * n, file_sizes=[1.0] * (n - 1))
    return app, mapping, p


def _random_instances(counts, n_instances, seed, jitter=None):
    """iid draws, or (with jitter) a slowly-varying neighborhood."""
    app, mapping, p = _topology(counts)
    rng = np.random.default_rng(seed)
    base_comp = rng.uniform(5.0, 15.0, p)
    base_comm = rng.uniform(5.0, 15.0, (p, p))
    out = []
    for _ in range(n_instances):
        if jitter is None:
            comp = rng.uniform(5.0, 15.0, p)
            comm = rng.uniform(5.0, 15.0, (p, p))
        else:
            comp = base_comp * rng.uniform(1 - jitter, 1 + jitter, p)
            comm = base_comm * rng.uniform(1 - jitter, 1 + jitter, (p, p))
        np.fill_diagonal(comm, 0.0)
        out.append(Instance(app, Platform.from_comm_times(comp, comm), mapping))
    return out


class TestSolverState:
    def _graph(self):
        return RatioGraph(
            4,
            [(0, 1, 3.0, 1), (1, 2, 4.0, 1), (2, 0, 5.0, 1),
             (2, 3, 1.0, 0), (3, 0, 2.0, 1), (1, 0, 1.0, 2)],
        )

    def test_state_reuse_matches_cold_value(self):
        g = self._graph()
        plan = prepare_howard(g)
        cold = solve_prepared(plan, g.weight)
        state = HowardState()
        first = solve_prepared(plan, g.weight, state=state)
        again = solve_prepared(plan, g.weight, state=state)
        assert first.value == cold.value == again.value

    def test_converged_policy_resolves_in_one_round(self):
        g = self._graph()
        plan = prepare_howard(g)
        state = HowardState()
        solve_prepared(plan, g.weight, state=state)
        assert solve_prepared(plan, g.weight, state=state).n_rounds == 1

    def test_state_tracks_changing_weights(self):
        g = self._graph()
        plan = prepare_howard(g)
        state = HowardState()
        rng = np.random.default_rng(7)
        for _ in range(20):
            w = rng.uniform(0.5, 10.0, g.n_edges)
            assert solve_prepared(plan, w, state=state).value == \
                solve_prepared(plan, w).value


class TestEngineWarmStart:
    def test_flag_defaults_off(self):
        assert BatchEngine().warm_start is False
        eng = BatchEngine()
        insts = _random_instances((2, 3), 5, seed=0)
        for inst in insts:
            eng.evaluate(inst, "strict", method="tpn")
        assert eng._warm_states == {}  # cold engines carry no state

    @pytest.mark.parametrize("counts", [(2, 3), (2, 3, 5, 1), (4, 6)])
    def test_randomized_sweep_identical_periods(self, counts):
        insts = _random_instances(counts, 40, seed=3)
        cold = BatchEngine()
        warm = BatchEngine(warm_start=True)
        cold_p = [cold.evaluate(i, "strict", method="tpn").period
                  for i in insts]
        warm_p = [warm.evaluate(i, "strict", method="tpn").period
                  for i in insts]
        assert cold_p == warm_p  # exact equality, not approx

    def test_slowly_varying_sweep_identical_periods(self):
        insts = _random_instances((6, 10, 15), 30, seed=11, jitter=0.01)
        cold = BatchEngine()
        warm = BatchEngine(warm_start=True)
        for inst in insts:
            assert warm.evaluate(inst, "strict", method="tpn").period == \
                cold.evaluate(inst, "strict", method="tpn").period

    def test_mixed_topologies_keep_separate_states(self):
        a = _random_instances((2, 3), 10, seed=5)
        b = _random_instances((4, 6), 10, seed=6)
        interleaved = [x for pair in zip(a, b) for x in pair]
        cold = [BatchEngine().evaluate(i, "strict", method="tpn").period
                for i in interleaved]
        warm_engine = BatchEngine(warm_start=True)
        warm = [warm_engine.evaluate(i, "strict", method="tpn").period
                for i in interleaved]
        assert cold == warm
        assert len(warm_engine._warm_states) == 2

    def test_eviction_drops_warm_state_with_skeleton(self):
        eng = BatchEngine(warm_start=True, cache_limit=1)
        a = _random_instances((2, 3), 2, seed=5)
        b = _random_instances((4, 6), 2, seed=6)
        for inst in (*a, *b):
            eng.evaluate(inst, "strict", method="tpn")
        assert len(eng._skeletons) == 1
        assert len(eng._warm_states) <= 1

    def test_overlap_model_unaffected(self):
        # Polynomial path has no Howard solve; flag must be harmless.
        insts = _random_instances((2, 3), 5, seed=9)
        warm = BatchEngine(warm_start=True)
        cold = BatchEngine()
        for inst in insts:
            assert warm.evaluate(inst, "overlap").period == \
                cold.evaluate(inst, "overlap").period


class TestBatchWarmStart:
    def test_evaluate_defaults_cold(self):
        insts = _random_instances((2, 3), 6, seed=1)
        baseline = evaluate(insts, "strict", method="tpn")
        flagged = evaluate(insts, "strict", method="tpn",
                           warm_start=True)
        assert [r.period for r in baseline] == [r.period for r in flagged]

    def test_sharded_warm_start_identical_periods(self):
        insts = _random_instances((2, 3, 5, 1), 24, seed=2)
        serial = evaluate(insts, "strict", method="tpn")
        sharded = evaluate(insts, "strict", method="tpn",
                           warm_start=True, n_jobs=2)
        assert [r.period for r in serial] == [r.period for r in sharded]
