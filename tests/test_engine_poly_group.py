"""Theorem-1 group path: same-signature OVERLAP runs as one array pass.

A run of at least ``MIN_GROUP_ROWS`` OVERLAP pairs that share a replica
count vector is gathered into slot space once and evaluated by one
batched Theorem-1 pass plus one ``verdict_many``.  These tests pin that
every result equals the per-instance path and the oracle bit for bit
(components with ``p > 1``, ``u = 1`` / ``v = 1`` tori, infinite links,
platforms of different sizes in one group), that errors and the Lawler
fallback behave as on the per-instance path, and that the telemetry
counters and the fault site keep their meaning.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Application, Instance, Mapping, Platform
from repro.algorithms.overlap_poly import overlap_period
from repro.engine import MAX_GROUP_ROWS, BatchEngine
from repro.errors import SolverError, ValidationError
from repro.faults import FAULTS, FaultPlan
from repro.maxplus import howard

from .conftest import collecting
from .test_overlap_value import torus_instance

#: Count vectors covering ``p > 1`` components, ``u = 1`` and ``v = 1``
#: tori, unreplicated stages and a single stage.
COUNTS = [
    (2, 4, 6),  # p = 2: 1x2 tori, then 2x3
    (6, 3),  # p = 3: 2x1 tori
    (3, 6, 2),  # 1x2, then p = 2: 3x1
    (4, 2, 4, 2),  # p = 2 on every file
    (5, 1, 3),  # unreplicated middle stage
    (7, 9),  # one 7x9 torus
    (4,),  # no file at all
]

CONTRACT_COUNTERS = (
    "engine.points",
    "engine.points.polynomial",
    "engine.paths",
    "poly.patterns_solved",
    "poly.patterns_pruned",
)


def draw_group(counts, n, seed, sizes=(0, 1, 3), comm_bound=False):
    """``n`` instances with replica ``counts`` on random processors.

    Platform sizes cycle through ``sum(counts) + sizes[k]``; about one
    link in six is infinitely fast; ``comm_bound`` makes the
    computation columns negligible, so patterns must be solved.
    """
    rng = np.random.default_rng(seed)
    n_stages, used = len(counts), sum(counts)
    bounds = np.cumsum((0,) + tuple(counts)).tolist()
    out = []
    for k in range(n):
        p = used + sizes[k % len(sizes)]
        procs = rng.permutation(p).tolist()
        bw = rng.uniform(0.2, 5.0, (p, p))
        bw[rng.random((p, p)) < 0.15] = np.inf
        np.fill_diagonal(bw, 0.0)
        works = rng.uniform(1.0, 20.0, n_stages) * (1e-6 if comm_bound else 1.0)
        out.append(Instance(
            Application(works=works.tolist(),
                        file_sizes=rng.uniform(0.5, 9.0, n_stages - 1).tolist()),
            Platform(rng.uniform(0.5, 3.0, p).tolist(), bw),
            Mapping([procs[bounds[i]: bounds[i + 1]] for i in range(n_stages)],
                    n_processors=p),
        ))
    return out


def fields(res):
    """Every ``PeriodResult`` field, floats as hex (bit identity)."""
    return (
        res.period.hex(), res.throughput.hex(), res.mct.hex(),
        res.relative_gap.hex(), res.has_critical_resource, res.m,
        res.method, res.model, res.breakdown, res.tpn_solution,
        type(res.period), type(res.mct),
    )


def per_point(insts):
    engine = BatchEngine()
    return [engine.evaluate(inst, "overlap") for inst in insts]


class TestBitIdentity:
    @pytest.mark.parametrize("counts", COUNTS)
    @pytest.mark.parametrize("comm_bound", [False, True])
    def test_group_equals_per_point_and_oracle(self, counts, comm_bound):
        insts = draw_group(counts, 24, seed=sum(counts) + comm_bound,
                           comm_bound=comm_bound)
        grouped = BatchEngine().evaluate(insts, "overlap")
        for inst, g, s in zip(insts, grouped, per_point(insts)):
            assert fields(g) == fields(s)
            assert g.method == "polynomial"
            assert g.period.hex() == overlap_period(inst).period.hex()

    def test_infinite_links_give_zero_durations(self):
        """Every link infinitely fast: ``size / inf == 0.0`` per cell, so
        the computation columns alone set the period."""
        insts = draw_group((2, 4, 6), 6, seed=5)
        fast = []
        for inst in insts:
            p = inst.platform.speeds.size
            bw = np.full((p, p), np.inf)
            np.fill_diagonal(bw, 0.0)
            fast.append(Instance(inst.application, Platform(inst.platform.speeds, bw),
                                 inst.mapping))
        grouped = BatchEngine().evaluate(fast, "overlap")
        for inst, g, s in zip(fast, grouped, per_point(fast)):
            assert fields(g) == fields(s)
            assert g.period == max(c.value for c in overlap_period(inst).columns
                                   if c.kind == "comp")

    def test_signed_zero_period(self):
        """Zero works and sizes: the row max picks among equal zeros as
        the per-instance routine's ``max`` does, so the sign survives."""
        mapping = Mapping([(0, 1), (2, 3)], n_processors=4)
        bw = np.full((4, 4), 2.0)
        np.fill_diagonal(bw, 0.0)
        insts = [
            Instance(Application(works=works, file_sizes=[0.0]),
                     Platform([1.0] * 4, bw), mapping)
            for works in ([-0.0, 0.0], [0.0, -0.0], [-0.0, 0.0])
        ]
        grouped = BatchEngine().evaluate(insts, "overlap")
        assert [fields(g) for g in grouped] == [fields(s) for s in per_point(insts)]
        assert [g.period.hex() for g in grouped] == [
            overlap_period(inst).period.hex() for inst in insts
        ]

    def test_long_run_is_slabbed(self):
        insts = draw_group((3, 6, 2), MAX_GROUP_ROWS + 5, seed=11, comm_bound=True)
        grouped = BatchEngine().evaluate(insts, "overlap")
        assert [fields(g) for g in grouped] == [fields(s) for s in per_point(insts)]

    def test_interleaved_topologies_keep_order(self):
        a, b = draw_group((2, 4, 6), 5, seed=1), draw_group((6, 3), 4, seed=2)
        stream = [a[0], a[1], b[0], b[1], b[2], a[2], a[3], a[4], b[3]]
        grouped = BatchEngine().evaluate(stream, "overlap")
        assert [fields(g) for g in grouped] == [fields(s) for s in per_point(stream)]

    def test_method_tpn_on_overlap_stays_tpn(self):
        insts = draw_group((2, 4, 2), 4, seed=3)
        grouped = BatchEngine().evaluate(insts, "overlap", method="tpn")
        assert {g.method for g in grouped} == {"tpn"}
        for inst, g in zip(insts, grouped):
            assert g.period == BatchEngine().evaluate(inst, "overlap", method="tpn").period


class TestErrors:
    def test_polynomial_on_strict_raises(self):
        insts = draw_group((2, 4, 6), 4, seed=4)
        with pytest.raises(ValidationError, match="only applies to the OVERLAP"):
            BatchEngine().evaluate(insts, "strict", method="polynomial")

    def test_lawler_fallback(self, monkeypatch):
        insts = draw_group((2, 4, 6), 8, seed=6, comm_bound=True)

        def failing(*args, **kwargs):
            raise SolverError("policy iteration did not converge")

        monkeypatch.setattr(howard, "solve_prepared", failing)
        grouped = BatchEngine().evaluate(insts, "overlap")
        for inst, g, s in zip(insts, grouped, per_point(insts)):
            assert fields(g) == fields(s)
            assert g.period.hex() == overlap_period(inst).period.hex()


class TestTelemetryAndFaults:
    def test_counters_equal_per_point_totals(self):
        insts = [inst for k, counts in enumerate(COUNTS)
                 for inst in draw_group(counts, 9, seed=20 + k, comm_bound=k % 2 == 1)]
        with collecting() as tel:
            per_point(insts)
        scalar = tel.counter_snapshot()
        with collecting() as tel:
            BatchEngine().evaluate(insts, "overlap")
        grouped = tel.counter_snapshot()
        for name in CONTRACT_COUNTERS:
            assert grouped[name] == scalar[name], name
        assert grouped["poly.patterns_solved"] > 0
        assert grouped["poly.patterns_pruned"] > 0
        # group_rows_mean keeps describing lockstep slabs only
        assert "engine.group_solves" not in grouped
        assert "engine.group_rows" not in grouped

    def test_exact_tie_is_solved_in_a_group(self):
        """A bound equal to the incumbent keeps its pattern live, as on
        the per-instance path."""
        tied = [torus_instance(1, 4, "equal", 0, comp=2.0)] * 3
        with collecting() as tel:
            grouped = BatchEngine().evaluate(tied, "overlap")
        assert tel.counters["poly.patterns_solved"] == 3
        assert [fields(g) for g in grouped] == [fields(s) for s in per_point(tied)]

    def test_fault_site_fires_once_per_group(self):
        a, b = draw_group((2, 4, 6), 5, seed=7), draw_group((6, 3), 3, seed=8)
        FAULTS.arm(FaultPlan.single("engine.evaluate", "stall", at=10**6))
        try:
            BatchEngine().evaluate(a + b, "overlap")
            assert FAULTS.hits("engine.evaluate") == 2
            BatchEngine().evaluate(a[0], "overlap")
            assert FAULTS.hits("engine.evaluate") == 3
        finally:
            FAULTS.disarm()
