"""Bit-identity of the cached cycle-time plan vs the scalar classifier.

The batched engine replaces per-evaluation ``classify_critical_resource``
calls with a :class:`~repro.engine.classify.CycleTimePlan` cached per
topology signature.  These tests pin the contract that makes that swap
invisible: every float — per-processor components, ``M_ct``, the
relative gap and the critical verdict — equals the scalar path's
**exactly** (``==``, never approx), thanks to the plan's byte-stable
summation order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Instance, Mapping
from repro.algorithms.bounds import classify_critical_resource
from repro.core.cycle_time import cycle_times
from repro.core.throughput import compute_period
from repro.engine import BatchEngine, build_cycle_time_plan
from repro.experiments.examples_paper import example_a, example_b
from repro.experiments.generator import random_instance

MODELS = ("overlap", "strict")


def _random_instances(n: int, seed: int = 20090302):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        stages = int(rng.integers(2, 8))
        procs = int(rng.integers(stages, stages + 10))
        comp = None if rng.integers(0, 2) else (5.0, 15.0)
        out.append(random_instance(
            stages, procs, comp, (0.0, 20.0), rng, max_paths=150,
        ))
    return out


class TestPlanBitIdentity:
    @pytest.mark.parametrize("model", MODELS)
    def test_components_equal_scalar(self, model):
        for inst in _random_instances(40):
            plan = build_cycle_time_plan(inst, model)
            cin, ccomp, cout = plan.components(inst)
            report = cycle_times(inst, model)
            assert plan.n_entries == len(report.per_processor)
            for i, ct in enumerate(report.per_processor):
                assert cin[i] == ct.cin
                assert ccomp[i] == ct.ccomp
                assert cout[i] == ct.cout
            assert plan.mct(inst) == report.mct

    @pytest.mark.parametrize("model", MODELS)
    def test_verdict_equals_scalar_classifier(self, model):
        for inst in _random_instances(15, seed=7):
            plan = build_cycle_time_plan(inst, model)
            period = compute_period(inst, model, max_rows=151).period
            mct, critical, gap = plan.verdict(inst, period)
            ref = classify_critical_resource(inst, model, period)
            assert mct == ref.mct
            assert critical == ref.has_critical_resource
            assert gap == ref.relative_gap

    @pytest.mark.parametrize("model", MODELS)
    def test_paper_examples(self, model):
        for inst in (example_a(), example_b()):
            plan = build_cycle_time_plan(inst, model)
            assert plan.mct(inst) == cycle_times(inst, model).mct

    def test_plan_is_topology_reusable(self):
        """One plan built from any representative serves the whole group."""
        base, *rest = [
            inst for inst in _random_instances(30, seed=3)
        ]
        plan = build_cycle_time_plan(base, "strict")
        # Re-stamp instances sharing the mapping but with fresh times.
        from repro.core.instance import Instance
        from repro.core.platform import Platform

        rng = np.random.default_rng(11)
        p = base.platform.n_processors
        for _ in range(10):
            comp = rng.uniform(1.0, 9.0, p)
            comm = rng.uniform(1.0, 9.0, (p, p))
            np.fill_diagonal(comm, 0.0)
            sib = Instance(base.application,
                           Platform.from_comm_times(comp, comm),
                           base.mapping)
            assert plan.mct(sib) == cycle_times(sib, "strict").mct


class TestEnginePlanCache:
    def test_engine_results_equal_scalar_path(self):
        engine = BatchEngine()
        for inst in _random_instances(10, seed=5):
            for model in MODELS:
                got = engine.evaluate(inst, model)
                ref = compute_period(inst, model)
                assert got.period == ref.period
                assert got.mct == ref.mct
                assert got.has_critical_resource == ref.has_critical_resource
                assert got.relative_gap == ref.relative_gap

    def test_plan_cached_per_signature(self):
        engine = BatchEngine()
        inst = example_a()
        engine.evaluate(inst, "overlap")
        engine.evaluate(inst, "overlap")
        engine.evaluate(inst, "strict")
        # one plan per (model, replication counts) signature: a
        # relabelled mapping with the same counts reuses it
        relabelled = Instance(inst.application, inst.platform, Mapping(
            [tuple(reversed(a)) for a in inst.mapping.assignments]))
        assert relabelled.mapping != inst.mapping
        engine.evaluate(relabelled, "overlap")
        assert len(engine._ct_plans) == 2

    def test_plan_cache_bounded(self):
        engine = BatchEngine(cache_limit=3)
        for inst in _random_instances(8, seed=9):
            engine.evaluate(inst, "overlap")
        assert len(engine._ct_plans) <= 3
