"""The period-only Theorem-1 routine against its oracle.

:func:`overlap_period_value` skips every pattern whose contribution bound
is strictly below a contribution already computed.  ``max`` is exact, so
its result must equal ``overlap_period(inst).period`` bit for bit: on
every pattern shape up to Example C's 7x9 (random, integer and all-equal
durations, with the computation columns below, at and above the pattern
contribution), on the paper's examples and on seeded random instances,
comm-bound ones, infinite links and unreplicated stages included.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Application, Instance, Mapping, Platform
from repro.algorithms.overlap_poly import overlap_period, overlap_period_value
from repro.errors import SolverError
from repro.experiments import example_a, example_b, example_c
from repro.maxplus import howard

from .conftest import collecting

#: Every pattern shape up to Example C's 7x9.
SHAPES = [(u, v) for u in range(1, 8) for v in range(1, 10)]

#: Computation column level, as a multiple of the pattern contribution.
COMP_LEVELS = (0.0, 0.5, 1.0, 1.0 + 2.0**-40, 2.0)


def assert_same_period(inst):
    value = overlap_period_value(inst)
    assert type(value) is float
    assert value.hex() == overlap_period(inst).period.hex()


def pattern_counts(inst):
    return sum(inst.mapping.comm_structure(i)[0] for i in range(inst.n_stages - 1))


def torus_instance(u, v, kind, seed, comp=0.0):
    """Two stages on ``u`` and ``v`` processors: one ``u x v`` pattern.

    ``kind`` picks the transfer times: ``"random"`` (with some infinite
    links), ``"integer"`` (powers of two, so cycle sums tie exactly) or
    ``"equal"``.  Stage 0's computation column contributes ``comp``.
    """
    rng = np.random.default_rng(seed)
    p = u + v
    if kind == "random":
        bw = rng.uniform(0.1, 10.0, (p, p))
        bw[rng.random((p, p)) < 0.1] = np.inf
    elif kind == "integer":
        bw = 2.0 ** -rng.integers(0, 4, (p, p)).astype(float)
    else:
        bw = np.full((p, p), 0.5)
    np.fill_diagonal(bw, 0.0)
    works = [max(comp, 1e-12) * u, 1e-12 * v]
    return Instance(
        Application(works=works, file_sizes=[1.0]),
        Platform([1.0] * p, bw),
        Mapping([range(u), range(u, p)], n_processors=p),
    )


class TestTorusShapes:
    @pytest.mark.parametrize("kind", ["random", "integer", "equal"])
    def test_every_shape(self, kind):
        for u, v in SHAPES:
            seed = 10 * u + 100 * v
            contribution = overlap_period(torus_instance(u, v, kind, seed)).period
            for level in COMP_LEVELS:
                inst = torus_instance(u, v, kind, seed, comp=level * contribution)
                assert_same_period(inst)

    def test_exact_tie_is_solved(self):
        """All-equal durations make the bound exact; a computation column
        equal to the contribution must not prune the pattern."""
        tied = torus_instance(1, 4, "equal", 0, comp=2.0)  # 4 * 2.0 / 4
        assert [c.value for c in overlap_period(tied).columns] == [2.0, 2.0, 1e-12]
        with collecting() as tel:
            assert_same_period(tied)
        assert tel.counters["poly.patterns_solved"] == 1


class TestPaperExamples:
    @pytest.mark.parametrize("make", [example_a, example_b, example_c])
    def test_examples(self, make):
        assert_same_period(make())


def random_instance(seed, comm_bound=False):
    """Seeded instance of 2-5 stages, replica counts 1-6, some infinite
    links; ``comm_bound`` makes the computation columns negligible."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    counts = rng.integers(1, 7, n).tolist()
    used = sum(counts)
    p = used + int(rng.integers(0, 4))
    procs = rng.permutation(p).tolist()
    bounds = np.cumsum([0] + counts).tolist()
    bw = rng.uniform(0.2, 5.0, (p, p))
    bw[rng.random((p, p)) < 0.15] = np.inf
    np.fill_diagonal(bw, 0.0)
    works = rng.uniform(1.0, 20.0, n) * (1e-6 if comm_bound else 1.0)
    return Instance(
        Application(works=works.tolist(), file_sizes=rng.uniform(0.5, 9.0, n - 1).tolist()),
        Platform(rng.uniform(0.5, 3.0, p).tolist(), bw),
        Mapping([procs[bounds[i]: bounds[i + 1]] for i in range(n)], n_processors=p),
    )


class TestRandomInstances:
    @pytest.mark.parametrize("comm_bound", [False, True])
    def test_seeded(self, comm_bound):
        unreplicated = 0
        for seed in range(150):
            inst = random_instance(seed, comm_bound)
            unreplicated += 1 in inst.mapping.replication_counts
            assert_same_period(inst)
        assert unreplicated > 0

    def test_counters_cover_every_pattern(self):
        insts = [random_instance(seed, seed % 2 == 1) for seed in range(60)]
        with collecting() as tel:
            for inst in insts:
                overlap_period_value(inst)
        solved = tel.counters.get("poly.patterns_solved", 0)
        pruned = tel.counters.get("poly.patterns_pruned", 0)
        assert solved + pruned == sum(pattern_counts(i) for i in insts)
        assert solved > 0 and pruned > 0

    def test_lawler_fallback(self, monkeypatch):
        insts = [random_instance(seed, True) for seed in range(8)] + [example_b()]
        expected = [overlap_period(inst).period for inst in insts]

        def failing(*args, **kwargs):
            raise SolverError("policy iteration did not converge")

        monkeypatch.setattr(howard, "solve_prepared", failing)
        for inst, howard_period in zip(insts, expected):
            value = overlap_period_value(inst)
            assert value.hex() == overlap_period(inst).period.hex()
            assert value == pytest.approx(howard_period, rel=1e-9)
