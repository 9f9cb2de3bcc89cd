"""Topologies keyed by replica counts: relabelling invariance.

The TPN of a replicated mapping depends on the model and the per-stage
replica counts only; processor ids merely pick which speed or bandwidth
a firing duration reads.  The engine therefore keys skeletons and
cycle-time plans by ``(model, replication_counts)`` and lays both out
over replica *slots*.  These tests pin that:

* relabelled instances (same counts, other processors, platforms of
  other sizes) share one skeleton and one plan, and every result field
  stays ``==`` ``compute_period``;
* lockstep rows equal per-row scalar solves, and the shared slot gather
  equals the per-instance operands;
* :func:`build_tpn` still names processors: transition processor tuples
  and place resource names are the literals the processor-keyed builder
  produced;
* one engine fed relabelled points over several calls returns
  ``compute_period``'s results, whatever it evaluated before.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro import Application, Instance, Mapping, Platform, compute_period
from repro.engine import (
    BatchEngine,
    build_cycle_time_plan,
    build_skeleton,
    evaluate,
    topology_signature,
)
from repro.errors import ValidationError
from repro.experiments.examples_paper import example_a, example_b, example_c
from repro.petri.builder import SlotTimes, build_tpn

from .conftest import collecting


def relabelled(counts, n_instances, seed, sizes=(None,), integer=False):
    """Instances with replica ``counts`` on random processors.

    Platform sizes cycle through ``sizes`` (``None``: exactly
    ``sum(counts)`` processors); each instance draws its own processor
    permutation, times and, with ``integer``, small integer times that
    make exact cycle ties likely.
    """
    rng = np.random.default_rng(seed)
    n, used = len(counts), sum(counts)
    app = Application(works=[1.0] * n, file_sizes=[1.0] * (n - 1))
    out = []
    for k in range(n_instances):
        p = sizes[k % len(sizes)] or used
        procs = rng.permutation(p).tolist()
        bounds = np.cumsum((0,) + tuple(counts))
        mapping = Mapping(
            [procs[bounds[i]: bounds[i + 1]] for i in range(n)], n_processors=p
        )
        if integer:
            comp = rng.integers(1, 4, p).astype(float)
            comm = rng.integers(1, 4, (p, p)).astype(float)
        else:
            comp = rng.uniform(1.0, 20.0, p)
            comm = rng.uniform(1.0, 20.0, (p, p))
        np.fill_diagonal(comm, 0.0)
        out.append(Instance(app, Platform.from_comm_times(comp, comm), mapping))
    return out


def assert_same_result(scalar, batched):
    assert batched.period == scalar.period
    assert batched.mct == scalar.mct
    assert batched.has_critical_resource == scalar.has_critical_resource
    assert batched.relative_gap == scalar.relative_gap
    assert batched.m == scalar.m
    if scalar.tpn_solution is not None:
        assert batched.tpn_solution.ratio == scalar.tpn_solution.ratio


COUNTS = [(2, 3, 1), (1, 2, 2, 1), (3, 1, 2)]


class TestRelabellingInvariance:
    def test_signature_is_model_and_counts(self):
        a, b = relabelled((2, 3, 1), 2, seed=0, sizes=(6, 9))
        assert a.mapping.assignments != b.mapping.assignments
        assert topology_signature(a, "strict") == ("strict", (2, 3, 1))
        assert topology_signature(a, "strict") == topology_signature(b, "strict")

    @pytest.mark.parametrize("counts", COUNTS)
    @pytest.mark.parametrize("model,method", [
        ("strict", "tpn"), ("overlap", "tpn"), ("overlap", "polynomial")])
    def test_one_skeleton_and_plan_per_count_vector(self, counts, model, method):
        # platforms of different sizes in one group: the case a
        # processor-space stamping had to handle row by row
        insts = relabelled(counts, 12, seed=sum(counts), sizes=(None, 9, 13))
        assert len({i.mapping.assignments for i in insts}) > 1
        assert len({i.platform.n_processors for i in insts}) == 3
        engine = BatchEngine()
        with collecting() as tel:
            batched = engine.evaluate(insts, model, method=method)
            singles = [engine.evaluate(i, model, method=method) for i in insts]
        builds = tel.counters.get("engine.skeleton_builds", 0)
        assert builds == (1 if method == "tpn" else 0)
        assert tel.counters["engine.plan_builds"] == 1
        for inst, b, s in zip(insts, batched, singles):
            scalar = compute_period(inst, model, method=method)
            assert_same_result(scalar, b)
            assert_same_result(scalar, s)

    def test_cold_results_independent_of_group_company(self):
        insts = relabelled((2, 3, 1), 10, seed=3, sizes=(6, 8))
        together = evaluate(insts, "strict")
        alone = [evaluate([i], "strict")[0] for i in insts]
        for a, b in zip(together, alone):
            assert_same_result(b, a)

    @pytest.mark.parametrize("counts", COUNTS)
    @pytest.mark.parametrize("model", ["overlap", "strict"])
    def test_lockstep_rows_equal_scalar_solves(self, counts, model):
        insts = relabelled(counts, 9, seed=11, sizes=(None, 10))
        sk = build_skeleton(insts[0], model)
        times = SlotTimes.of(insts)
        assert sk.solve_many(times) == [sk.solve(i) for i in insts]
        assert sk.solve_many(insts) == [sk.solve(i) for i in insts]
        stamped = sk.stamp_durations_many(times)
        for b, inst in enumerate(insts):
            assert stamped[b].tobytes() == sk.stamp_durations(inst).tobytes()

    @pytest.mark.parametrize("model", ["overlap", "strict"])
    def test_verdict_many_equals_scalar_verdict(self, model):
        insts = relabelled((2, 3, 1), 9, seed=5, sizes=(None, 7, 12))
        plan = build_cycle_time_plan(insts[0], model)
        periods = np.linspace(5.0, 40.0, len(insts))
        mct, crit, gap = plan.verdict_many(SlotTimes.of(insts), periods)
        for b, inst in enumerate(insts):
            assert (mct[b], crit[b], gap[b]) == plan.verdict(inst, periods[b])

    def test_slot_times_read_each_instance_operands(self):
        insts = relabelled((1, 2, 2), 4, seed=2, sizes=(None, 8))
        times = SlotTimes.of(insts)
        assert SlotTimes.of(times) is times
        for b, inst in enumerate(insts):
            used = list(inst.mapping.used_processors)
            assert np.array_equal(times.speeds[b], inst.platform.speeds[used])
            assert np.array_equal(
                times.bandwidths[b], inst.platform.bandwidths[np.ix_(used, used)])
            assert times.works[b].tolist() == list(inst.application.works)
            assert times.sizes[b].tolist() == list(inst.application.file_sizes)
        with pytest.raises(ValidationError):
            SlotTimes.of([])

    @pytest.mark.parametrize("other", [(2, 1, 2), (1, 2, 3)],
                             ids=["permuted", "wrong-total"])
    def test_slot_times_reject_mixed_counts(self, other):
        """A permuted count vector has the same slot total, so only the
        count check keeps it from gathering another topology's slots."""
        group = relabelled((1, 2, 2), 2, seed=2) + relabelled(other, 1, seed=3)
        with pytest.raises(ValidationError, match="replica counts"):
            SlotTimes.of(group)


def _net_digest(inst, model):
    net = build_tpn(inst, model)
    procs = [list(t.procs) for t in net.transitions]
    resources = [p.resource for p in net.places]
    return hashlib.sha256(json.dumps([procs, resources]).encode()).hexdigest()


class TestBuildTpnNamesProcessors:
    # sha256 of json [transition procs, place resources], captured from
    # the processor-keyed builder
    DIGESTS = {
        ("a", "overlap"): "c3708d0d217e69f87bbd7a6c461ed8b7efa05ad1cf762da0d0ce7a084af8da8a",
        ("a", "strict"): "cb0122bee9e3fe52ce4092acf4b6a097d2fe941396506d3dac191899fadb59c2",
        ("b", "overlap"): "8ff9524816771c3af6646941f701297d9ed7ed21717cec59bde1e84e5fcc8c99",
        ("b", "strict"): "eff41bfc28d205a8ae820d1c89692519a4d47742017326fcc7ed6ee7752a6514",
        ("c", "overlap"): "dfcee89581ed951f4fd5589f30f2fc4888ca5b1b2073fbeb6fc851426cb8c8b6",
        ("c", "strict"): "d32c752f3464dff3bd7cf792d7f829b695d9ac76448444c9cd93e465d68aad20",
    }
    EXAMPLES = {"a": example_a, "b": example_b, "c": example_c}

    @pytest.mark.parametrize("name,model", sorted(DIGESTS))
    def test_procs_and_resources_unchanged(self, name, model):
        inst = self.EXAMPLES[name]()
        assert _net_digest(inst, model) == self.DIGESTS[name, model]

    def test_example_a_literals(self):
        net = build_tpn(example_a(), "overlap")
        assert [t.procs for t in net.transitions[:14]] == [
            (0,), (0, 1), (1,), (1, 3), (3,), (3, 6), (6,),
            (0,), (0, 2), (2,), (2, 4), (4,), (4, 6), (6,)]
        assert sorted({p.resource for p in net.places}) == [
            "", "P0:comp", "P0:out", "P1:comp", "P1:in", "P1:out",
            "P2:comp", "P2:in", "P2:out", "P3:comp", "P3:in", "P3:out",
            "P4:comp", "P4:in", "P4:out", "P5:comp", "P5:in", "P5:out",
            "P6:comp", "P6:in"]
        strict = build_tpn(example_a(), "strict")
        assert sorted({p.resource for p in strict.places}) == [
            "", "P0", "P1", "P2", "P3", "P4", "P5", "P6"]

    def test_relabelled_nets_share_structure_not_names(self):
        a, b = relabelled((2, 3, 1), 2, seed=4, sizes=(6, 9))
        na, nb = build_tpn(a, "strict"), build_tpn(b, "strict")
        assert [(p.src, p.dst, p.tokens, p.kind) for p in na.places] == [
            (p.src, p.dst, p.tokens, p.kind) for p in nb.places]
        for net, inst in ((na, a), (nb, b)):
            used = inst.mapping.used_processors
            assert {p.resource for p in net.places} == {""} | {
                f"P{u}" for u in used}


class TestRelabelledGroupsAcrossCalls:
    @pytest.mark.parametrize("integer", [False, True])
    def test_values_equal_compute_period(self, integer):
        # interleaved count groups, each with relabelled members, fed to
        # one engine in several calls (group and scalar paths): every
        # result equals compute_period, whatever the engine evaluated
        # before
        insts = [
            inst
            for k, counts in enumerate(COUNTS * 2)
            for inst in relabelled(counts, 7, seed=20 + k, sizes=(None, 11),
                                   integer=integer)
        ]
        engine = BatchEngine()
        got = []
        for start in range(0, len(insts), 9):
            got.extend(engine.evaluate(insts[start: start + 9], "strict"))
        got.extend(engine.evaluate(i, "strict") for i in insts[:5])
        for inst, res in zip(insts + insts[:5], got):
            ref = compute_period(inst, "strict")
            assert res.period == ref.period
            assert res.mct == ref.mct
            assert res.tpn_solution.ratio == ref.tpn_solution.ratio
