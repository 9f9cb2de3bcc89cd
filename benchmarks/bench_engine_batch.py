"""Batched vs per-call throughput evaluation on a shared-topology sweep.

The experiment behind :mod:`repro.engine`: 500 instances share one
mapping topology (``m_i = (2, 3, 5, 1)``, ``m = lcm = 30``) and differ
only in their drawn computation/communication times — exactly the shape
of a Table 2 family sweep or one mapping-search neighborhood.  The
per-call loop rebuilds the TPN, re-reduces it to a ratio graph and
re-runs the solver's structural phases 500 times; the engine builds one
skeleton and re-stamps edge weights per instance.  The asserted
contract is deterministic: results are bit-identical and the engine
performs exactly **one** skeleton build for the whole sweep (the
per-call path performs ``n``).  Wall-clock speedup is reported, never
gated — BENCH_4/5.json record the old wall-clock floors failing on CI
hardware with no code defect.

A second, seeded sweep draws *random* replica assignments (random
processors on platforms of several sizes) over ``K`` distinct count
vectors, in shuffled order.  Topologies are keyed by replica counts, so
it must cost exactly ``K`` skeleton builds (``relabelled_builds``),
with every result bit-identical to ``compute_period``.

A third, seeded sweep evaluates random-assignment overlap instances on
the Theorem-1 path.  The engine computes the period only and skips
every pattern whose contribution bound stays below the running max; it
records how many pattern solves remain (``poly_patterns_solved``) and
whether every period is bit-identical to ``compute_period``
(``poly_identical``).  The same instances evaluated in
``order_for_engine`` order take one Theorem-1 array pass per count
vector; every result field must equal the shuffled sweep's, realigned
(``poly_group_identical``), and the engine-ordered pass records its
microseconds per point (wall-clock, not gated).

Run standalone (asserts identity and the single-build contract)::

    PYTHONPATH=src python benchmarks/bench_engine_batch.py

or under pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_engine_batch.py \
        -o python_files='bench_*.py' -o python_functions='bench_*'
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro import Application, Instance, Mapping, Platform
from repro.campaign import order_for_engine
from repro.core.throughput import compute_period
from repro.engine import BatchEngine, evaluate
from repro.telemetry import TELEMETRY

try:  # pytest package context vs standalone `python benchmarks/...`
    from .conftest import report
except ImportError:  # pragma: no cover - standalone fallback
    from conftest import report

#: Per-stage replication of the shared topology; lcm = 30 rows.
REPLICATION = (2, 3, 5, 1)
N_INSTANCES = 500


def make_sweep(n_instances: int = N_INSTANCES, seed: int = 0) -> list[Instance]:
    """Instances sharing one mapping topology, times drawn U(5, 15)."""
    rng = np.random.default_rng(seed)
    counts = list(REPLICATION)
    n, p = len(counts), sum(counts)
    bounds = np.cumsum([0] + counts)
    mapping = Mapping(
        [tuple(range(bounds[i], bounds[i + 1])) for i in range(n)],
        n_processors=p,
    )
    app = Application(works=[1.0] * n, file_sizes=[1.0] * (n - 1))
    instances = []
    for _ in range(n_instances):
        comp = rng.uniform(5.0, 15.0, p)
        comm = rng.uniform(5.0, 15.0, (p, p))
        np.fill_diagonal(comm, 0.0)
        instances.append(
            Instance(app, Platform.from_comm_times(comp, comm), mapping)
        )
    return instances


#: Count vectors of the random-assignment sweep (K = 6).
RELABELLED_COUNTS = ((2, 3, 1), (1, 2, 2), (3, 1, 2), (1, 1, 4), (2, 2, 2), (1, 3))
N_RELABELLED = 120


def make_relabelled_sweep(
    n_instances: int = N_RELABELLED, seed: int = 1
) -> list[Instance]:
    """Random-assignment mappings over :data:`RELABELLED_COUNTS`.

    Each instance picks a count vector, a platform of 6 to 11
    processors and a random processor permutation; times are U(5, 15).
    """
    rng = np.random.default_rng(seed)
    instances = []
    for _ in range(n_instances):
        counts = RELABELLED_COUNTS[int(rng.integers(len(RELABELLED_COUNTS)))]
        p = int(rng.integers(6, 12))
        procs = rng.permutation(p).tolist()
        bounds = np.cumsum((0,) + counts).tolist()
        mapping = Mapping([procs[bounds[i]: bounds[i + 1]]
                           for i in range(len(counts))], n_processors=p)
        comp = rng.uniform(5.0, 15.0, p)
        comm = rng.uniform(5.0, 15.0, (p, p))
        np.fill_diagonal(comm, 0.0)
        app = Application(works=[1.0] * len(counts),
                          file_sizes=[1.0] * (len(counts) - 1))
        instances.append(Instance(app, Platform.from_comm_times(comp, comm), mapping))
    return instances


def run_relabelled() -> dict:
    """Skeleton builds and identity of the random-assignment sweep.

    Deterministic: the count of distinct count vectors drawn is ``K``
    and the engine must build exactly one skeleton per vector.
    """
    instances = make_relabelled_sweep()
    TELEMETRY.enable("bench")
    try:
        batched = evaluate(instances, "strict", method="tpn", engine=BatchEngine())
    finally:
        TELEMETRY.disable()
    counters = TELEMETRY.counter_snapshot()
    return {
        "n": len(instances),
        "count_vectors": len({i.mapping.replication_counts for i in instances}),
        "assignments": len({i.mapping.assignments for i in instances}),
        "relabelled_builds": counters.get("engine.skeleton_builds", 0),
        "relabelled_identical": all(
            b.period == s.period and b.mct == s.mct
            and b.tpn_solution.ratio == s.tpn_solution.ratio
            for b, s in zip(
                batched,
                (compute_period(i, "strict", method="tpn") for i in instances),
            )
        ),
    }


#: Replica counts of the overlap sweep: several components per file.
OVERLAP_COUNTS = ((2, 4, 6), (3, 6, 2), (4, 2, 4, 2), (6, 4), (1, 3, 6))
N_OVERLAP = 120


def run_overlap(n_instances: int = N_OVERLAP, seed: int = 2) -> dict:
    """Pattern solves and identity of a seeded Theorem-1 sweep."""
    rng = np.random.default_rng(seed)
    instances = []
    for _ in range(n_instances):
        counts = OVERLAP_COUNTS[int(rng.integers(len(OVERLAP_COUNTS)))]
        p = sum(counts) + int(rng.integers(0, 4))
        procs = rng.permutation(p).tolist()
        bounds = np.cumsum((0,) + counts).tolist()
        mapping = Mapping([procs[bounds[i]: bounds[i + 1]]
                           for i in range(len(counts))], n_processors=p)
        comm = rng.uniform(1.0, 15.0, (p, p))
        np.fill_diagonal(comm, 0.0)
        # file sizes up to 20x: comm-bound files whose patterns must be solved
        app = Application(works=rng.uniform(1.0, 10.0, len(counts)).tolist(),
                          file_sizes=rng.uniform(0.5, 20.0, len(counts) - 1).tolist())
        instances.append(Instance(
            app, Platform.from_comm_times(rng.uniform(5.0, 15.0, p), comm),
            mapping))
    TELEMETRY.enable("bench")
    try:
        batched = evaluate(instances, "overlap", engine=BatchEngine())
    finally:
        TELEMETRY.disable()
    counters = TELEMETRY.counter_snapshot()
    solved = counters.get("poly.patterns_solved", 0)
    pruned = counters.get("poly.patterns_pruned", 0)
    # The same instances in engine order: one Theorem-1 pass per count
    # vector instead of the shuffled sweep's short runs.
    order = order_for_engine([(inst, "overlap") for inst in instances])
    grouped = [instances[k] for k in order]
    elapsed = []
    for _ in range(3):
        t0 = time.perf_counter()
        ordered = evaluate(grouped, "overlap", engine=BatchEngine())
        elapsed.append(time.perf_counter() - t0)
    realigned = [None] * len(instances)
    for pos, k in enumerate(order):
        realigned[k] = ordered[pos]
    return {
        "poly_patterns": solved + pruned,
        "poly_patterns_solved": solved,
        "poly_identical": all(
            b.period == compute_period(i, "overlap").period
            for b, i in zip(batched, instances)
        ),
        "poly_group_identical": all(
            _result_bits(a) == _result_bits(b) for a, b in zip(batched, realigned)
        ),
        # wall-clock, best of 3 on a fresh engine: reported, never gated
        "poly_group_us_per_point": 1e6 * min(elapsed) / len(instances),
    }


def _result_bits(res) -> tuple:
    """Every ``PeriodResult`` field, floats by their bits."""
    return tuple(
        value.hex() if isinstance(value, float) else value
        for value in (getattr(res, f.name) for f in dataclasses.fields(res))
    )


def run_comparison(n_instances: int = N_INSTANCES) -> dict:
    """Time per-call vs batched evaluation; verify identity; return stats."""
    instances = make_sweep(n_instances)
    # Warm both paths so one-time import/alloc costs don't skew the race.
    compute_period(instances[0], "strict", method="tpn")
    engine = BatchEngine()
    engine.evaluate(instances[0], "strict", method="tpn")
    engine = BatchEngine()  # fresh cache: the timed run pays the one build

    t0 = time.perf_counter()
    scalar = [compute_period(i, "strict", method="tpn") for i in instances]
    t1 = time.perf_counter()
    batched = evaluate(instances, "strict", method="tpn", engine=engine)
    t2 = time.perf_counter()

    identical = all(
        s.period == b.period
        and s.mct == b.mct
        and s.has_critical_resource == b.has_critical_resource
        and s.tpn_solution.ratio == b.tpn_solution.ratio
        for s, b in zip(scalar, batched)
    )
    per_call_s, batch_s = t1 - t0, t2 - t1
    counters = count_cache_work(instances)
    relabelled = run_relabelled()
    overlap = run_overlap()
    return {
        "n": len(instances),
        "per_call_s": per_call_s,
        "batch_s": batch_s,
        "speedup": per_call_s / batch_s,
        "identical": identical,
        # Deterministic structural-work contract: the whole sweep costs
        # one skeleton build; the per-call path pays n of them.
        "skeleton_builds": counters.get("engine.skeleton_builds", 0),
        "cache_hits": counters.get("engine.cache_hits", 0),
        # Random assignments over K count vectors: K builds, same bits.
        "count_vectors": relabelled["count_vectors"],
        "relabelled_assignments": relabelled["assignments"],
        "relabelled_builds": relabelled["relabelled_builds"],
        "relabelled_identical": relabelled["relabelled_identical"],
        # Theorem-1 sweep: pattern solves left after bound pruning.
        **overlap,
    }


def count_cache_work(instances: list[Instance]) -> dict[str, int]:
    """Telemetry counters of one batched pass on a fresh engine.

    Untimed: collection stays off during the timed race above.
    """
    TELEMETRY.enable("bench")
    try:
        evaluate(instances, "strict", method="tpn", engine=BatchEngine())
    finally:
        TELEMETRY.disable()
    return TELEMETRY.counter_snapshot()


def bench_engine_batch_speedup(benchmark):
    instances = make_sweep(100)
    scalar = [compute_period(i, "strict", method="tpn") for i in instances]

    def batched():
        return evaluate(instances, "strict", method="tpn")

    results = benchmark(batched)
    assert all(s.period == b.period for s, b in zip(scalar, results))
    stats = run_comparison(200)
    assert stats["identical"]
    assert stats["skeleton_builds"] == 1
    report(benchmark, "Engine: batched vs per-call (shared topology, m=30)",
           [("results identical", "yes", stats["identical"]),
            ("skeleton builds (deterministic)", 1, stats["skeleton_builds"]),
            ("speedup (reported, not gated)", "-",
             f"{stats['speedup']:.2f}x")])


def bench_engine_multiworker_determinism(benchmark):
    instances = make_sweep(60)
    serial = evaluate(instances, "strict", method="tpn")

    def sharded():
        return evaluate(instances, "strict", method="tpn", n_jobs=2)

    results = benchmark.pedantic(sharded, rounds=1, iterations=1)
    assert all(s.period == r.period for s, r in zip(serial, results))
    report(benchmark, "Engine: 2-worker shard returns identical results",
           [("order preserved", "yes", True),
            ("bit-identical", "yes", True)])


def main() -> int:
    stats = run_comparison()
    print(f"shared-topology sweep: {stats['n']} instances, strict model, "
          f"replication {REPLICATION} (m = 30)")
    print(f"per-call loop : {stats['per_call_s']:.3f} s "
          f"({1000 * stats['per_call_s'] / stats['n']:.2f} ms/instance)")
    print(f"evaluate(): {stats['batch_s']:.3f} s "
          f"({1000 * stats['batch_s'] / stats['n']:.2f} ms/instance)")
    print(f"speedup       : {stats['speedup']:.2f}x "
          f"(wall-clock: reported, never gated; cache: "
          f"{stats['skeleton_builds']} build, {stats['cache_hits']} hits)")
    print(f"bit-identical : {stats['identical']}")
    print(f"random assignments: {stats['relabelled_builds']} skeleton builds "
          f"for {stats['count_vectors']} count vectors, bit-identical "
          f"{stats['relabelled_identical']}")
    assert stats["identical"], "batched results diverged from per-call"
    assert stats["skeleton_builds"] == 1, (
        f"{stats['skeleton_builds']} skeleton builds for one shared "
        f"topology (expected exactly 1)"
    )
    print(f"overlap sweep: {stats['poly_patterns_solved']} of "
          f"{stats['poly_patterns']} pattern solves left after pruning, "
          f"bit-identical {stats['poly_identical']}")
    print(f"engine-ordered overlap sweep: "
          f"{stats['poly_group_us_per_point']:.1f} us/point, equal to the "
          f"shuffled sweep {stats['poly_group_identical']}")
    assert stats["relabelled_identical"], "random-assignment results diverged"
    assert stats["poly_identical"], "Theorem-1 periods diverged"
    assert stats["poly_group_identical"], "Theorem-1 group results diverged"
    assert stats["relabelled_builds"] == stats["count_vectors"], (
        f"{stats['relabelled_builds']} skeleton builds for "
        f"{stats['count_vectors']} count vectors"
    )
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
