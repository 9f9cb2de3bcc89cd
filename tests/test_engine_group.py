"""Group (lockstep) evaluation path of the batch engine.

Pins the group-path contracts: sequence evaluation
(`BatchEngine.evaluate` on a list, module `evaluate`) is bit-identical
to per-pair evaluation and to `compute_period`; the batched
`CycleTimePlan.verdict_many` equals the scalar verdict; and a
caller-owned `engine=` combined with a parallel `n_jobs` evaluates
in-process pairs on that engine and sharded chunks on worker engines.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Application, Instance, Mapping, Platform
from repro.core.throughput import compute_period
from repro.engine import (
    MIN_GROUP_ROWS,
    BatchEngine,
    build_cycle_time_plan,
    evaluate,
)
from repro.errors import ValidationError

from .conftest import collecting


def group_sweep(counts, n_instances, seed=0, works=None):
    """Instances sharing one mapping topology, drawn times."""
    rng = np.random.default_rng(seed)
    counts = list(counts)
    n, p = len(counts), sum(counts)
    bounds = np.cumsum([0] + counts)
    mapping = Mapping(
        [tuple(range(bounds[i], bounds[i + 1])) for i in range(n)],
        n_processors=p,
    )
    app = Application(
        works=works if works is not None else [1.0] * n,
        file_sizes=[1.0] * (n - 1),
    )
    out = []
    for _ in range(n_instances):
        comp = rng.uniform(5.0, 15.0, p)
        comm = rng.uniform(5.0, 15.0, (p, p))
        np.fill_diagonal(comm, 0.0)
        out.append(Instance(app, Platform.from_comm_times(comp, comm), mapping))
    return out


def assert_same_result(a, b):
    assert a.period == b.period
    assert a.throughput == b.throughput
    assert a.mct == b.mct
    assert a.has_critical_resource == b.has_critical_resource
    assert a.method == b.method
    assert a.m == b.m
    if a.tpn_solution is not None:
        assert a.tpn_solution.ratio == b.tpn_solution.ratio


class TestGroupBitIdentity:
    def test_group_matches_compute_period(self):
        insts = group_sweep((2, 3, 1), 16, seed=1)
        grouped = evaluate(insts, "strict", method="tpn")
        for inst, res in zip(insts, grouped):
            assert_same_result(res, compute_period(inst, "strict", method="tpn"))

    def test_group_matches_per_pair_engine(self):
        insts = group_sweep((6, 10, 15), 12, seed=2)
        scalar_engine = BatchEngine()
        with collecting() as tel:
            scalar = [scalar_engine.evaluate(i, "strict") for i in insts]
        per_pair = tel.counter_snapshot()
        group_engine = BatchEngine()
        with collecting() as tel:
            grouped = group_engine.evaluate(insts, "strict")
        lockstep = tel.counter_snapshot()
        for s, g in zip(scalar, grouped):
            assert_same_result(s, g)
        # Cache-counter parity with the per-pair loop: evaluated points,
        # hits and misses (skeleton builds).
        assert lockstep["engine.group_solves"] == 1
        for name in ("engine.points", "engine.cache_hits",
                     "engine.skeleton_builds"):
            assert lockstep[name] == per_pair[name], name

    def test_mixed_topology_stream_preserves_order(self):
        a = group_sweep((2, 3, 1), 5, seed=3)
        b = group_sweep((3, 2, 1), 4, seed=4)
        interleaved = [a[0], a[1], b[0], b[1], b[2], a[2], a[3], a[4], b[3]]
        engine = BatchEngine()
        grouped = engine.evaluate(interleaved, "strict")
        for inst, res in zip(interleaved, grouped):
            assert_same_result(res, compute_period(inst, "strict", method="tpn"))

    def test_stream_and_batch_agree_with_group_path(self):
        insts = group_sweep((2, 3, 1), MIN_GROUP_ROWS * 4, seed=5)
        engine_path = BatchEngine().evaluate(insts, "strict", method="tpn")
        batched = evaluate(insts, "strict", method="tpn")
        assert len(engine_path) == len(batched) == len(insts)
        for s, b in zip(engine_path, batched):
            assert_same_result(s, b)

    def test_sharded_matches_serial_group_path(self):
        insts = group_sweep((2, 3, 1), 24, seed=6)
        serial = evaluate(insts, "strict", method="tpn")
        sharded = evaluate(insts, "strict", method="tpn", n_jobs=2)
        for s, p in zip(serial, sharded):
            assert_same_result(s, p)

    def test_overlap_auto_routes_polynomial_per_pair(self):
        insts = group_sweep((2, 2, 1), 6, seed=8)
        grouped = BatchEngine().evaluate(insts, "overlap")
        for inst, res in zip(insts, grouped):
            assert res.method == "polynomial"
            assert res.period == compute_period(inst, "overlap").period


class TestVerdictMany:
    @pytest.mark.parametrize("model", ["strict", "overlap"])
    def test_matches_scalar_verdict(self, model):
        insts = group_sweep((2, 3, 1), 9, seed=9, works=[2.0, 3.0, 5.0])
        plan = build_cycle_time_plan(insts[0], model)
        periods = np.asarray(
            [compute_period(i, model, method="tpn").period for i in insts]
        )
        mct, crit, gap = plan.verdict_many(insts, periods)
        for b, inst in enumerate(insts):
            s_mct, s_crit, s_gap = plan.verdict(inst, float(periods[b]))
            assert float(mct[b]) == s_mct
            assert bool(crit[b]) == s_crit
            assert float(gap[b]) == s_gap


class TestEvaluateGroupValidation:
    def test_single_topology_group_is_fine(self):
        insts = group_sweep((2, 1), 3, seed=14)
        res = BatchEngine().evaluate(insts, "strict")
        for inst, r in zip(insts, res):
            assert r.period == compute_period(inst, "strict", method="tpn").period


class TestEngineJobsValidation:
    def test_engine_with_parallel_jobs(self):
        # Too small to shard: the caller's engine does the work.
        small = group_sweep((2, 1), 3, seed=10)
        engine = BatchEngine()
        res = evaluate(small, "strict", engine=engine, n_jobs=2)
        assert len(engine._skeletons) == 1
        for r, inst in zip(res, small):
            assert_same_result(r, engine.evaluate(inst, "strict"))
        # Sharded: worker engines, same results as the serial call.
        big = group_sweep((2, 1), 12, seed=12)
        sharded = evaluate(big, "strict", engine=BatchEngine(), n_jobs=2)
        for a, b in zip(sharded, evaluate(big, "strict")):
            assert_same_result(a, b)

    def test_engine_with_serial_jobs_is_fine(self):
        insts = group_sweep((2, 1), 4, seed=11)
        engine = BatchEngine()
        with collecting() as tel:
            res = evaluate(insts, "strict", engine=engine, n_jobs=1)
        assert len(res) == 4 and tel.counters["engine.points"] == 4
        # The caller's engine did the work: its cache now holds the group.
        assert len(engine._skeletons) == 1

    @pytest.mark.parametrize("chunk_size", [0, -1])
    def test_bad_chunk_size_raises(self, chunk_size):
        # A negative chunk size used to return no results at all.
        insts = group_sweep((2, 1), 8, seed=15)
        with pytest.raises(ValidationError, match="chunk_size"):
            evaluate(insts, "strict", n_jobs=2, chunk_size=chunk_size)
        with pytest.raises(ValidationError, match="chunk_size"):
            evaluate(insts[:2], "strict", chunk_size=chunk_size)

    def test_negative_n_jobs_raises(self):
        insts = group_sweep((2, 1), 8, seed=16)
        with pytest.raises(ValidationError, match="n_jobs"):
            evaluate(insts, "strict", n_jobs=-1)
        # Small batches (serial fallback) are validated the same way.
        with pytest.raises(ValidationError, match="n_jobs"):
            evaluate(insts[:2], "strict", n_jobs=-2)
