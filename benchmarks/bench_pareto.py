"""Pareto portfolio contracts: rerun identity + allocator fronts.

The multi-criteria portfolio (:func:`repro.search.pareto_portfolio_search`)
promises the same determinism discipline as every other layer: the
archive's front — vectors, assignments, sources, export order — is a
pure function of the request.  Every contract asserted here is
deterministic (no wall-clock ratios):

* **rerun identity** — the same request twice returns identical
  ``to_dict()`` payloads, for both allocator strategies;
* **front validity** — every front is non-empty, mutually
  non-dominated, and within budget;
* **strategy diversity** — epsilon-constraint and weighted-sum explore
  genuinely different direction schedules (their labels differ), yet
  both feed the same archive semantics.

Run standalone (asserts all contracts)::

    PYTHONPATH=src python benchmarks/bench_pareto.py
"""

from __future__ import annotations

import numpy as np

from repro import Application, Platform
from repro.objectives import dominates
from repro.search import pareto_portfolio_search

MODEL = "overlap"
BUDGET = 400
N_RESTARTS = 4
OBJECTIVES = ("period", "latency", "reliability")

APP = Application(
    works=[2.0, 9.0, 4.0, 6.0],
    file_sizes=[3.0, 1.0, 2.0],
    name="video-analytics",
)


def make_platform(seed: int = 5, n_procs: int = 10) -> Platform:
    rng = np.random.default_rng(seed)
    bw = rng.uniform(2.0, 8.0, (n_procs, n_procs))
    np.fill_diagonal(bw, 0.0)
    plat = Platform(rng.uniform(1.0, 5.0, n_procs), bw)
    return plat.with_failure_rates(
        rng.uniform(0.01, 0.2, n_procs).tolist())


def _search(allocator: str):
    return pareto_portfolio_search(
        APP, make_platform(), MODEL, objectives=OBJECTIVES,
        n_restarts=N_RESTARTS, budget=BUDGET, max_iters=40,
        allocator=allocator,
    )


def _non_dominated(front) -> bool:
    vectors = [e.vector for e in front]
    return all(
        not dominates(a, b)
        for i, a in enumerate(vectors)
        for j, b in enumerate(vectors)
        if i != j
    )


def run_comparison() -> dict:
    """Run both strategies twice; return the contract flags."""
    per_strategy = []
    for allocator in ("epsilon-constraint", "weighted-sum"):
        first = _search(allocator)
        rerun = _search(allocator)
        front = first.front()
        per_strategy.append({
            "allocator": allocator,
            "front_size": len(front),
            "evaluations": first.evaluations,
            "directions": list(first.directions),
            "rerun_identical": first.to_dict() == rerun.to_dict(),
            "non_dominated": _non_dominated(front),
            "within_budget": 0 < first.evaluations <= BUDGET,
        })
    eps, wts = per_strategy
    return {
        "budget": BUDGET,
        "objectives": list(OBJECTIVES),
        "strategies": per_strategy,
        "identical": all(s["rerun_identical"] for s in per_strategy),
        "fronts_valid": all(s["non_dominated"] and s["within_budget"]
                            and s["front_size"] >= 1
                            for s in per_strategy),
        "strategies_diverse": eps["directions"] != wts["directions"],
        "front_size_eps": eps["front_size"],
        "front_size_weighted": wts["front_size"],
    }


def _check(stats: dict) -> None:
    assert stats["identical"], \
        "Pareto front not bit-identical across reruns"
    assert stats["fronts_valid"], "a front was empty, dominated or over budget"
    assert stats["strategies_diverse"], \
        "epsilon and weighted schedules collapsed onto the same directions"


def main() -> int:
    stats = run_comparison()
    print(f"pareto portfolio ({', '.join(stats['objectives'])}; "
          f"budget {stats['budget']}, {N_RESTARTS} directions)")
    for s in stats["strategies"]:
        print(f"  {s['allocator']:<19}: front {s['front_size']}, "
              f"{s['evaluations']} evaluations, "
              f"rerun-identical {s['rerun_identical']}, "
              f"non-dominated {s['non_dominated']}")
    _check(stats)
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
