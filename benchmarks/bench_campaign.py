"""Campaign ordering vs round-robin contiguous chunking: skeleton builds.

The campaign executor reorders pending points by topology signature
(groups in first-seen order, sweep order preserved inside each group),
and each worker claims **contiguous runs** of the ordered stream from
its own starting offset, so the layout simulated here gives each worker
one contiguous span.
The sharded :func:`repro.engine.evaluate` instead cuts the caller's
order into small contiguous chunks dispatched round-robin — fine when
the caller already grouped by topology, but a grid campaign naturally
interleaves topologies (replication is an inner axis), which scatters
each topology's sweep across all workers.

This benchmark builds that adversarial-but-typical stream — two
choice-rich replication topologies (out-degree > 1, ``m = 30``) swept
across smoothly drifting platforms, interleaved per drift step — and
*simulates both worker layouts deterministically* with one
:class:`~repro.engine.BatchEngine` per worker.  It asserts:

* **identical period values** under both layouts (every evaluation is
  a pure function of its point — the campaign's byte-identical-exports
  guarantee);
* the campaign layout needs **strictly fewer skeleton builds** (each
  topology is built by fewer workers).

Howard starts cold on every solve, so policy-iteration rounds do not
depend on the layout; skeleton builds are what the ordering saves.
All counts are seeded and deterministic — no wall-clock flake.

Run standalone (asserts both facts)::

    PYTHONPATH=src python benchmarks/bench_campaign.py

or under pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_campaign.py \
        -o python_files='bench_*.py' -o python_functions='bench_*'
"""

from __future__ import annotations

import numpy as np

from repro import Application, Instance, Mapping, Platform
from repro.campaign import order_for_engine
from repro.engine import BatchEngine
from repro.telemetry import TELEMETRY

try:  # pytest package context vs standalone `python benchmarks/...`
    from .conftest import report
except ImportError:  # pragma: no cover - standalone fallback
    from conftest import report

#: Two choice-rich topologies (m = 30, out-degree > 1 everywhere) that a
#: grid campaign interleaves.
REPLICATIONS = ((6, 10, 15), (15, 6, 10))
N_REGIMES = 120          # drift steps of the platform sweep
CHUNK_SIZE = 8           # round-robin chunk granularity
N_WORKERS = 4
MODEL = "strict"


def make_interleaved_sweep() -> list[tuple[Instance, str]]:
    """The campaign-shaped stream: topologies interleaved per drift step.

    Platforms drift smoothly (per-resource sinusoids, 35% amplitude,
    three cycles over the sweep), so drift neighbors are similar while
    distant steps are genuinely different.
    """
    apps_maps = []
    for counts in REPLICATIONS:
        n, p = len(counts), sum(counts)
        bounds = np.cumsum([0] + list(counts))
        mapping = Mapping(
            [tuple(range(bounds[i], bounds[i + 1])) for i in range(n)],
            n_processors=p,
        )
        app = Application(works=[1.0] * n, file_sizes=[1.0] * (n - 1))
        apps_maps.append((app, mapping))

    rng = np.random.default_rng(42)
    p = sum(REPLICATIONS[0])
    base_comp = rng.uniform(5.0, 15.0, p)
    base_comm = rng.uniform(5.0, 15.0, (p, p))
    phase_comp = rng.uniform(0, 2 * np.pi, p)
    phase_comm = rng.uniform(0, 2 * np.pi, (p, p))

    pairs: list[tuple[Instance, str]] = []
    for r in range(N_REGIMES):
        t = 2 * np.pi * 3 * r / N_REGIMES
        comp = base_comp * (1 + 0.35 * np.sin(t + phase_comp))
        comm = base_comm * (1 + 0.35 * np.sin(t + phase_comm))
        np.fill_diagonal(comm, 0.0)
        plat = Platform.from_comm_times(comp, comm, name=f"drift-{r}")
        for app, mapping in apps_maps:
            pairs.append((Instance(app, plat, mapping), MODEL))
    return pairs


def simulate_workers(
    pairs: list[tuple[Instance, str]],
    worker_streams: list[list[int]],
) -> dict:
    """Replay per-worker evaluation and count skeleton builds.

    Each worker owns a :class:`BatchEngine`, as a campaign's long-lived
    workers do; skeleton builds are its cache misses, read from the
    ``engine.skeleton_builds`` telemetry counter.
    """
    values: dict[int, float] = {}
    TELEMETRY.enable("bench")
    try:
        for stream in worker_streams:
            engine = BatchEngine()
            for i in stream:
                inst, model = pairs[i]
                values[i] = engine.evaluate(inst, model).period
    finally:
        TELEMETRY.disable()
    builds = TELEMETRY.counters.get("engine.skeleton_builds", 0)
    return {"builds": builds, "values": values}


def chunked_layout(n: int) -> list[list[int]]:
    """Sharded ``evaluate``'s model: contiguous chunks, round-robin workers."""
    chunks = [list(range(i, min(i + CHUNK_SIZE, n)))
              for i in range(0, n, CHUNK_SIZE)]
    return [
        [i for chunk in chunks[w::N_WORKERS] for i in chunk]
        for w in range(N_WORKERS)
    ]


def campaign_layout(pairs: list[tuple[Instance, str]]) -> list[list[int]]:
    """The campaign layout: signature-grouped order, contiguous spans."""
    order = order_for_engine(pairs)
    base, extra = divmod(len(order), N_WORKERS)
    spans, start = [], 0
    for s in range(N_WORKERS):
        size = base + (1 if s < extra else 0)
        spans.append(order[start: start + size])
        start += size
    return [s for s in spans if s]


def run_comparison() -> dict:
    pairs = make_interleaved_sweep()
    chunked = simulate_workers(pairs, chunked_layout(len(pairs)))
    camp = simulate_workers(pairs, campaign_layout(pairs))
    return {
        "n_points": len(pairs),
        "identical": chunked["values"] == camp["values"],
        "chunked_builds": chunked["builds"],
        "campaign_builds": camp["builds"],
    }


def _check(stats: dict) -> None:
    assert stats["identical"], \
        "period values diverged between chunk layouts"
    assert stats["campaign_builds"] < stats["chunked_builds"], (
        f"campaign layout built {stats['campaign_builds']} skeletons, "
        f"round-robin chunking only {stats['chunked_builds']}"
    )


def bench_campaign_ordering(benchmark):
    stats = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    _check(stats)
    report(benchmark, "Campaign ordering vs round-robin chunking",
           [("values identical", "yes", stats["identical"]),
            ("skeleton builds", "strictly fewer",
             f"{stats['chunked_builds']} -> {stats['campaign_builds']}")])


def main() -> int:
    stats = run_comparison()
    print(f"interleaved sweep: {stats['n_points']} points, "
          f"{len(REPLICATIONS)} choice-rich topologies, "
          f"{N_REGIMES} drift regimes, {N_WORKERS} workers, "
          f"chunk size {CHUNK_SIZE}")
    print(f"round-robin chunks: {stats['chunked_builds']} skeleton builds")
    print(f"campaign order    : {stats['campaign_builds']} skeleton builds")
    print(f"values identical  : {stats['identical']}")
    _check(stats)
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
