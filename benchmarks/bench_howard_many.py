"""Lockstep Howard (`solve_prepared_many`) vs the PR-3 scalar-solve engine.

The PR-4 experiment: a single-topology batch — the shape every sweep,
campaign cell and neighborhood scan reduces to — evaluated two ways:

* **PR-3 path**: one ``BatchEngine.evaluate`` call per instance.  The
  skeleton and Howard plan are cached, but every stamping runs its own
  policy iteration with the per-node Python chain walk;
* **Lockstep group path**: one ``BatchEngine.evaluate`` call on the
  whole list.  The whole batch stamps into a single ``(B, E)`` weight matrix and
  :func:`repro.maxplus.howard.solve_prepared_many` runs policy
  iteration for all rows in lockstep.

The sweep drifts smoothly (per-resource sinusoids, like a campaign's
platform axis), so the batch is the canonical warm-cache workload.
Asserted facts (all deterministic — wall-clock is reported, never
gated; BENCH_4/5.json record the old >= 4x wall-clock contract failing
on CI hardware with no code defect, which is why PR 6 retired it):

* the lockstep path does the batch in ``max_b rounds(b)`` outer
  vectorized sweeps where the scalar path spends ``sum_b rounds(b)``
  sequential policy rounds; on this seeded drift sweep the ratio is a
  pure function of the inputs and must stay >= ``MIN_ROUND_RATIO``;
* both formulations follow **identical policy trajectories** (equal
  per-row round counts);
* group results are **bit-identical** to ``compute_period`` — period,
  ``mct``, ``has_critical_resource`` and the extracted critical cycle —
  on the existing regression topologies (the (2, 3, 5, 1) shared-sweep
  topology of ``bench_engine_batch`` and the choice-rich (6, 10, 15) of
  ``bench_campaign``); this part is deterministic and also pinned by
  ``tests/test_engine_group.py``.

A second experiment, the seed sweep, runs the token-edge seed and its
certificate over real strict SCC shapes — the ``mixed`` campaign's
largest n/k (7.5, counts [1,4,3]) and the lcm 60 / 140 / 420
topologies — solving 32-row lockstep slabs against per-row cold
``solve_prepared`` calls, once with the campaign's weights and once
with tie-prone uniform-random integer weights (whose rows often miss
the certificate and are solved by the cold scalar kernel).  Every
lockstep row must equal the cold solve bit for bit (value, cycle
nodes and edges); the uncertified row count is a deterministic
contract, wall-clock (per row, and per slab for the seed and the
certificate separately) and rounds per row are reported, never gated.

A third experiment, the slab sweep, solves 256 rows of the lcm-60
(``shared_strict``) topology in slabs of 32, 64, 128 and 256 rows —
the campaign executor hands the engine up to ``MAX_GROUP_ROWS`` = 256
rows per claimed window — and reports µs per row and the
``tracemalloc`` peak of one ``solve_prepared_many`` call per slab
size.  Every slab size must return the same rows, and the 256-row peak
must stay within ``SLAB_PEAK_GROWTH`` of the 64-row peak: the seeded
path works in bounded row chunks, so its memory is flat in the slab
size.  The peak is deterministic; wall-clock is reported, never gated.

Run standalone (asserts round ratio and identity)::

    PYTHONPATH=src python benchmarks/bench_howard_many.py

or under pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_howard_many.py \
        -o python_files='bench_*.py' -o python_functions='bench_*'
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np

from repro import Application, Instance, Mapping, Platform
from repro.campaign import CampaignSpec
from repro.core.throughput import compute_period
from repro.engine import BatchEngine
from repro.engine.skeleton import build_skeleton
from repro.maxplus import howard
from repro.maxplus.howard import solve_prepared, solve_prepared_many
from repro.telemetry import TELEMETRY

try:  # pytest package context vs standalone `python benchmarks/...`
    from .conftest import report
except ImportError:  # pragma: no cover - standalone fallback
    from conftest import report

#: Replication of the benchmark topology: m = lcm = 60, 420 transitions.
REPLICATION = (4, 6, 10, 1)
#: Single-topology batch size (the acceptance floor is B >= 64).
N_INSTANCES = 192
#: Deterministic work contract: total scalar policy rounds over the
#: batch divided by the lockstep outer-sweep count (= the max per-row
#: rounds, since rows march together until the last one converges).
#: On the seeded drift sweep every row converges in one round, so the
#: ratio equals B = 192; the floor leaves 4x headroom for future
#: topology/tolerance changes before the contract trips.
MIN_ROUND_RATIO = N_INSTANCES / 4
#: Regression topologies for the bit-identity sweep.
IDENTITY_TOPOLOGIES = ((2, 3, 5, 1), (6, 10, 15))
N_IDENTITY = 24
#: Timing repetitions (best-of, both paths measured identically).
REPEATS = 5
#: Seed sweep: (label, replica counts, processors, campaign draws).
SEED_SHAPES = (
    ("mixed n/k 7.5", (1, 4, 3), 8, 16),
    ("lcm 60", (3, 4, 5), 12, 16),
    ("lcm 140", (4, 5, 7), 16, 8),
    ("lcm 420", (3, 4, 5, 7), 19, 4),
)
#: Rows per lockstep slab in the seed sweep, fixed so its per-row
#: figures compare across versions; :func:`slab_sweep` covers the
#: campaign executor's slabs of up to ``MAX_GROUP_ROWS`` rows.
SEED_SLAB = 32
#: Generator seed of the seed sweep's uniform-random integer weightings.
SEED_UNIFORM_RNG = 23
#: Slab sweep: rows per ``solve_prepared_many`` call, and the lcm-60
#: campaign draws giving 4 x 64 = 256 rows (one full engine slab).
SLAB_SIZES = (32, 64, 128, 256)
SLAB_DRAWS = 64
#: Largest allowed ratio of the 256-row peak to the 64-row peak.
SLAB_PEAK_GROWTH = 1.5


def drift_sweep(counts=REPLICATION, n_instances=N_INSTANCES, seed=0,
                amp=0.35) -> list[Instance]:
    """A single-topology sweep over smoothly drifting platforms."""
    rng = np.random.default_rng(seed)
    counts = list(counts)
    n, p = len(counts), sum(counts)
    bounds = np.cumsum([0] + counts)
    mapping = Mapping(
        [tuple(range(bounds[i], bounds[i + 1])) for i in range(n)],
        n_processors=p,
    )
    app = Application(works=[1.0] * n, file_sizes=[1.0] * (n - 1))
    base_c = rng.uniform(5.0, 15.0, p)
    ph_c = rng.uniform(0.0, 2 * np.pi, p)
    base_m = rng.uniform(5.0, 15.0, (p, p))
    ph_m = rng.uniform(0.0, 2 * np.pi, (p, p))
    out = []
    for r in range(n_instances):
        t = 2 * np.pi * 3 * r / n_instances
        comp = base_c * (1 + amp * np.sin(t + ph_c))
        comm = base_m * (1 + amp * np.sin(t + ph_m))
        np.fill_diagonal(comm, 0.0)
        out.append(Instance(app, Platform.from_comm_times(comp, comm), mapping))
    return out


def _race(fn_a, fn_b, repeats: int = REPEATS) -> tuple[float, float]:
    """Best-of timings with interleaved, order-alternating repetitions.

    Interleaving the two contenders — and swapping which one goes first
    on every repetition — keeps CPU frequency scaling and cache
    temperature from systematically favoring either side.
    """
    best_a = best_b = float("inf")
    for rep in range(repeats):
        pair = (fn_a, fn_b) if rep % 2 == 0 else (fn_b, fn_a)
        times = []
        for fn in pair:
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        t_a, t_b = (times if rep % 2 == 0 else times[::-1])
        best_a = min(best_a, t_a)
        best_b = min(best_b, t_b)
    return best_a, best_b


def check_identity() -> dict:
    """Group results vs ``compute_period`` on the regression topologies."""
    checked = 0
    for counts in IDENTITY_TOPOLOGIES:
        insts = drift_sweep(counts, N_IDENTITY, seed=7)
        grouped = BatchEngine().evaluate(insts, "strict", method="tpn")
        for inst, res in zip(insts, grouped):
            ref = compute_period(inst, "strict", method="tpn")
            assert res.period == ref.period
            assert res.mct == ref.mct
            assert res.has_critical_resource == ref.has_critical_resource
            assert res.tpn_solution.ratio == ref.tpn_solution.ratio
            checked += 1
    return {"topologies": len(IDENTITY_TOPOLOGIES), "checked": checked,
            "identical": True}


def run_comparison(n_instances: int = N_INSTANCES) -> dict:
    """Time the PR-3 per-instance path vs the lockstep group path."""
    instances = drift_sweep(n_instances=n_instances)
    # Warm both engines on one instance so the timed runs compare the
    # solve paths, not the one-time skeleton build.
    scalar_engine = BatchEngine()
    scalar_engine.evaluate(instances[0], "strict")
    group_engine = BatchEngine()
    group_engine.evaluate(instances[0], "strict")

    scalar_s, group_s = _race(
        lambda: [scalar_engine.evaluate(i, "strict") for i in instances],
        lambda: group_engine.evaluate(instances, "strict"),
    )

    scalar = [scalar_engine.evaluate(i, "strict") for i in instances]
    # Untimed pass: cache counters come from telemetry, which stays off
    # during the race above.
    TELEMETRY.enable("bench")
    try:
        grouped = group_engine.evaluate(instances, "strict")
    finally:
        TELEMETRY.disable()
    counters = TELEMETRY.counter_snapshot()
    identical = all(
        s.period == g.period
        and s.mct == g.mct
        and s.has_critical_resource == g.has_critical_resource
        and s.tpn_solution.ratio == g.tpn_solution.ratio
        for s, g in zip(scalar, grouped)
    )

    # Policy-round totals of both formulations (identical trajectories).
    sk = group_engine.skeleton(instances[0], "strict")
    weights = sk.stamp_weights_many(instances)
    rounds_scalar = sum(
        solve_prepared(sk.plan, weights[b]).n_rounds
        for b in range(len(instances))
    )
    per_row = [r.n_rounds for r in solve_prepared_many(sk.plan, weights)]
    rounds_many = sum(per_row)
    rounds_outer = max(per_row)

    return {
        "n": len(instances),
        "replication": list(REPLICATION),
        "scalar_s": scalar_s,
        "group_s": group_s,
        "speedup": scalar_s / group_s,
        "identical": identical,
        "rounds_scalar": rounds_scalar,
        "rounds_lockstep": rounds_many,
        "rounds_lockstep_outer": rounds_outer,
        "round_ratio": rounds_scalar / rounds_outer,
        "cache": {
            "hits": counters.get("engine.cache_hits", 0),
            "misses": counters.get("engine.skeleton_builds", 0),
            "evaluated": counters.get("engine.points", 0),
        },
    }


def strict_points(counts, n_procs, draws) -> list[Instance]:
    """Instances of a strict ``fixed`` blocks campaign (two synthetic
    apps x two platform regimes), like the ``shared_strict`` spec."""
    apps = [
        {"label": shape, "synthetic": {"n_stages": len(counts),
                                       "shape": shape, "scale": 10.0,
                                       "seed": seed}}
        for shape, seed in (("balanced", 0), ("random", 7))
    ]
    spec = CampaignSpec.from_dict({
        "name": "seed-sweep", "draws": draws, "models": ["strict"],
        "applications": apps,
        "platforms": [
            {"label": "uniform", "n_procs": n_procs, "kind": "uniform"},
            {"label": "clustered", "n_procs": n_procs, "kind": "uniform",
             "clusters": 2, "cluster_factor_range": [0.5, 2.0],
             "intra_bandwidth_factor": 4.0},
        ],
        "replications": [{"label": "blocks", "fixed": list(counts),
                          "assignment": "blocks"}],
        "root_seed": 20090302,
    })
    return [point.instance() for point in spec.expand()]


def _slabs(plan, W):
    """Solve ``W`` in executor-sized slabs."""
    out = []
    for b0 in range(0, len(W), SEED_SLAB):
        out += solve_prepared_many(plan, W[b0:b0 + SEED_SLAB])
    return out


def _seed_split(plan, W) -> tuple[float, float]:
    """Best-of-3 ms per slab of the largest seeded SCC's seed
    (:func:`howard._seed_start`) and certificate
    (:func:`howard._certify_seeded`), averaged over the slabs."""
    scc = max((c for c in plan.components if isinstance(c, howard._PreparedScc)),
              key=lambda c: c.n)
    seed_s = cert_s = 0.0
    slabs = range(0, len(W), SEED_SLAB)
    for b0 in slabs:
        Wc = W[b0:b0 + SEED_SLAB][:, scc.gmap]
        tol = 1e-9 * np.maximum(np.abs(W[b0:b0 + SEED_SLAB]).max(axis=1), 1.0)
        best_seed = best_cert = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            start = howard._seed_start(scc, Wc, tol)
            t1 = time.perf_counter()
            howard._certify_seeded(scc, Wc, tol, start)
            t2 = time.perf_counter()
            best_seed = min(best_seed, t1 - t0)
            best_cert = min(best_cert, t2 - t1)
        seed_s += best_seed
        cert_s += best_cert
    return 1000 * seed_s / len(slabs), 1000 * cert_s / len(slabs)


def seed_sweep() -> dict:
    """Seeded lockstep slabs vs per-row cold solves, real strict SCCs.

    Every shape runs twice: with its campaign weights, and with
    uniform-random integer weights in 1..10 (seeded).  Integer weights
    tie exactly, so many of their rows miss the certificate and are
    solved by the cold scalar kernel; continuous draws would certify
    every row.  Both weightings must equal the cold scalar solve.
    """
    shapes = []
    identical = True
    uncertified_total = 0
    rng = np.random.default_rng(SEED_UNIFORM_RNG)
    for label, counts, n_procs, draws in SEED_SHAPES:
        insts = strict_points(counts, n_procs, draws)
        sk = build_skeleton(insts[0], "strict")
        scc = max((c for c in sk.plan.components
                   if isinstance(c, howard._PreparedScc)), key=lambda c: c.n)
        k = int(np.count_nonzero(scc.tokens))
        W_campaign = sk.stamp_weights_many(insts)
        weightings = (
            ("campaign", W_campaign),
            ("uniform", rng.integers(1, 11, W_campaign.shape).astype(float)),
        )
        for weighting, W in weightings:
            cold_s, lockstep_s = _race(
                lambda: [solve_prepared(sk.plan, w) for w in W],
                lambda: _slabs(sk.plan, W), repeats=3)
            TELEMETRY.enable("bench")
            try:
                lockstep = _slabs(sk.plan, W)
            finally:
                TELEMETRY.disable()
            uncertified = TELEMETRY.counter_snapshot().get("howard.uncertified", 0)
            uncertified_total += uncertified
            seed_ms, cert_ms = _seed_split(sk.plan, W)
            cold = [solve_prepared(sk.plan, w) for w in W]
            same = _row_keys(lockstep) == _row_keys(cold)
            identical &= same
            rows = len(W)
            shapes.append({
                "label": label, "weighting": weighting, "counts": list(counts),
                "n": scc.n, "k": k, "n_per_k": scc.n / k,
                "rows": rows,
                "cold_ms_per_row": 1000 * cold_s / rows,
                "lockstep_ms_per_row": 1000 * lockstep_s / rows,
                "seed_ms_per_slab": seed_ms,
                "certificate_ms_per_slab": cert_ms,
                "uncertified": uncertified,
                "cold_rounds_per_row": sum(r.n_rounds for r in cold) / rows,
                "lockstep_rounds_per_row":
                    sum(r.n_rounds for r in lockstep) / rows,
                "identical": same,
            })
    return {"shapes": shapes, "identical": identical,
            "uncertified": uncertified_total}


def _row_keys(results) -> list:
    """Value bits, cycle nodes and cycle edges of each result."""
    return [(np.float64(r.value).tobytes(), r.cycle_nodes, r.cycle_edges)
            for r in results]


def slab_sweep() -> dict:
    """µs per row and ``tracemalloc`` peak by slab size (lcm 60)."""
    insts = strict_points((3, 4, 5), 12, SLAB_DRAWS)
    sk = build_skeleton(insts[0], "strict")
    W = sk.stamp_weights_many(insts)
    slabs = []
    reference = None
    identical = True
    for size in SLAB_SIZES:
        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            out = []
            for b0 in range(0, len(W), size):
                out += solve_prepared_many(sk.plan, W[b0:b0 + size])
            best = min(best, time.perf_counter() - t0)
        keys = _row_keys(out)
        reference = keys if reference is None else reference
        identical &= keys == reference
        tracemalloc.start()
        try:
            solve_prepared_many(sk.plan, W[:size])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        slabs.append({"rows": size, "us_per_row": 1e6 * best / len(W),
                      "peak_mib": round(peak / 2 ** 20, 3)})
    peaks = {s["rows"]: s["peak_mib"] for s in slabs}
    return {"rows": len(W), "slabs": slabs, "identical": identical,
            "peak_mib_256": peaks[256],
            "flat": peaks[256] <= SLAB_PEAK_GROWTH * peaks[64]}


def _check_slab_sweep(stats: dict) -> None:
    if not stats["identical"]:
        raise AssertionError("slab sizes returned different rows")
    if not stats["flat"]:
        raise AssertionError(
            f"256-row peak {stats['peak_mib_256']} MiB exceeds "
            f"{SLAB_PEAK_GROWTH:g}x the 64-row peak")


def bench_howard_slab_sweep(benchmark):
    stats = benchmark.pedantic(slab_sweep, rounds=1, iterations=1)
    _check_slab_sweep(stats)
    report(benchmark, "Seeded lockstep by slab size (lcm 60)",
           [(f"{s['rows']}-row slabs: us/row, peak MiB", "-",
             f"{s['us_per_row']:.0f}, {s['peak_mib']:.2f}")
            for s in stats["slabs"]]
           + [("rows identical across slabs", "yes", stats["identical"])])


def bench_howard_seed_sweep(benchmark):
    stats = benchmark.pedantic(seed_sweep, rounds=1, iterations=1)
    assert stats["identical"]
    report(benchmark, "Token-edge seed: seeded lockstep vs per-row cold",
           [(f"{s['label']} {s['weighting']} (n/k {s['n_per_k']:.1f}) ms/row",
             f"{s['cold_ms_per_row']:.2f}",
             f"{s['lockstep_ms_per_row']:.2f}") for s in stats["shapes"]]
           + [("uncertified rows", "-", stats["uncertified"]),
              ("rows == cold", "yes", stats["identical"])])


def bench_howard_many_speedup(benchmark):
    instances = drift_sweep()
    engine = BatchEngine()
    engine.evaluate(instances[0], "strict")

    def grouped():
        return engine.evaluate(instances, "strict")

    results = benchmark(grouped)
    scalar_engine = BatchEngine()
    scalar = [scalar_engine.evaluate(i, "strict") for i in instances]
    assert all(s.period == g.period for s, g in zip(scalar, results))
    stats = run_comparison()
    assert stats["identical"]
    assert stats["round_ratio"] >= MIN_ROUND_RATIO
    report(benchmark, "Lockstep Howard: group batch vs PR-3 per-instance",
           [("results identical", "yes", stats["identical"]),
            ("round ratio (deterministic)", f">= {MIN_ROUND_RATIO:g}",
             f"{stats['round_ratio']:.1f}"),
            ("speedup (reported, not gated)", "-",
             f"{stats['speedup']:.2f}x"),
            ("rounds (scalar == lockstep)",
             stats["rounds_scalar"], stats["rounds_lockstep"])])


def bench_howard_many_bit_identity(benchmark):
    stats = benchmark.pedantic(check_identity, rounds=1, iterations=1)
    report(benchmark, "Lockstep Howard: bit-identity vs compute_period",
           [("topologies", len(IDENTITY_TOPOLOGIES), stats["topologies"]),
            ("pairs checked", "all equal", stats["checked"])])


def main() -> int:
    stats = run_comparison()
    ident = check_identity()
    print(f"bit-identity vs compute_period: {ident['checked']} pairs over "
          f"{ident['topologies']} regression topologies: OK")
    print(f"single-topology drift sweep: B = {stats['n']}, replication "
          f"{REPLICATION} (m = 60, 420 transitions), strict model")
    print(f"PR-3 per-instance path : {stats['scalar_s']:.3f} s "
          f"({1000 * stats['scalar_s'] / stats['n']:.2f} ms/instance)")
    print(f"lockstep group path    : {stats['group_s']:.3f} s "
          f"({1000 * stats['group_s'] / stats['n']:.2f} ms/instance)")
    print(f"speedup                : {stats['speedup']:.2f}x "
          f"(wall-clock: reported, never gated)")
    print(f"policy rounds          : {stats['rounds_scalar']} scalar == "
          f"{stats['rounds_lockstep']} lockstep "
          f"({stats['rounds_lockstep_outer']} outer sweeps)")
    print(f"round ratio            : {stats['round_ratio']:.1f} "
          f"(deterministic floor {MIN_ROUND_RATIO:g})")
    print(f"bit-identical          : {stats['identical']}")
    sweep = seed_sweep()
    print(f"token-edge seed sweep (per-row cold solve -> "
          f"{SEED_SLAB}-row lockstep slabs):")
    for s in sweep["shapes"]:
        print(f"  {s['label']:<14} {s['weighting']:<8} "
              f"{str(tuple(s['counts'])):<13} n {s['n']:>5} "
              f"k {s['k']:>3} n/k {s['n_per_k']:>6.1f}: "
              f"{s['cold_ms_per_row']:7.2f} -> "
              f"{s['lockstep_ms_per_row']:7.2f} ms/row, rounds/row "
              f"{s['cold_rounds_per_row']:.2f} -> "
              f"{s['lockstep_rounds_per_row']:.2f}; per slab seed "
              f"{s['seed_ms_per_slab']:.2f} + certificate "
              f"{s['certificate_ms_per_slab']:.2f} ms; "
              f"uncertified {s['uncertified']}/{s['rows']}")
    print(f"uncertified rows       : {sweep['uncertified']}")
    print(f"rows == cold           : {sweep['identical']}")
    slab = slab_sweep()
    print(f"slab sweep (lcm 60, {slab['rows']} rows):")
    for s in slab["slabs"]:
        print(f"  {s['rows']:>3}-row slabs: {s['us_per_row']:7.1f} us/row, "
              f"solve_prepared_many peak {s['peak_mib']:6.2f} MiB")
    print(f"rows equal across slabs: {slab['identical']}")
    _check_slab_sweep(slab)
    assert sweep["identical"], "lockstep rows diverged from the cold solve"
    assert stats["identical"], "group results diverged from the scalar path"
    assert stats["rounds_scalar"] == stats["rounds_lockstep"], \
        "lockstep trajectory diverged from the scalar trajectory"
    assert stats["round_ratio"] >= MIN_ROUND_RATIO, (
        f"round ratio {stats['round_ratio']:.1f} below the deterministic "
        f"{MIN_ROUND_RATIO:g} floor"
    )
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
