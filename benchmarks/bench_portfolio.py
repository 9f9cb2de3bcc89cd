"""Portfolio allocators vs single-start local search at equal budget.

The experiments behind :mod:`repro.search`: every optimizer gets the
same allowance of exact-period evaluations (metered by
:class:`~repro.search.budget.EvaluationBudget`) on heterogeneous
mapping problems, so the only difference is how the budget is spent —
one long hill climb from one random seed, diversified restarts under
the fair-share allocator, or racing successive halving over
checkpoint-resumable climbs.  Two deterministic contracts are pinned:

* the fair-share portfolio beats single-start on the PR-2 reference
  platform (``run_comparison``);
* across the :data:`BENCH_SEEDS` platforms, racing is never worse than
  fair-share and strictly better on the two :data:`RUGGED_SEEDS` —
  exactly the platforms where fair-share loses to a single lucky deep
  climb (``run_three_way``, the ROADMAP "smarter portfolios" claim).

Run standalone (asserts both facts)::

    PYTHONPATH=src python benchmarks/bench_portfolio.py

or under pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_portfolio.py \
        -o python_files='bench_*.py' -o python_functions='bench_*'
"""

from __future__ import annotations

import numpy as np

from repro import Application, Platform
from repro.extensions import local_search_mapping
from repro.search import EvaluationBudget, portfolio_search

try:  # pytest package context vs standalone `python benchmarks/...`
    from .conftest import report
except ImportError:  # pragma: no cover - standalone fallback
    from conftest import report

#: Equal oracle allowance for both optimizers.
BUDGET = 1200
N_RESTARTS = 5
MODEL = "overlap"

APP = Application(
    works=[2.0, 11.0, 5.0, 14.0, 3.0],
    file_sizes=[3.0, 2.0, 2.0, 1.0],
    name="bench-portfolio",
)


def make_platform(seed: int = 13, n: int = 14) -> Platform:
    """A strongly heterogeneous cluster: speeds 0.5-8, bandwidths 1-10.

    The wide spread makes the mapping landscape rugged — exactly the
    regime where one hill climb gets stuck and a diversified portfolio
    pays off.
    """
    rng = np.random.default_rng(seed)
    speeds = rng.uniform(0.5, 8.0, n)
    bw = rng.uniform(1.0, 10.0, (n, n))
    np.fill_diagonal(bw, 0.0)
    return Platform(speeds, bw, name="bench-cluster")


#: Platform seeds of the three-way allocator race.  Chosen so the set
#: spans both regimes: on most platforms the fair-share portfolio beats
#: one deep climb, on the two :data:`RUGGED_SEEDS` it loses to it.
BENCH_SEEDS = (13, 17, 23, 29, 43, 67)

#: The rugged platforms of the ROADMAP "smarter portfolios" item: the
#: landscape rewards one lucky deep climb over even slicing (fair-share
#: loses to single-start here), and racing must strictly beat
#: fair-share on them.
RUGGED_SEEDS = (17, 67)


def run_comparison() -> dict:
    """Portfolio vs single-start at equal budget; return both outcomes."""
    plat = make_platform()

    single_budget = EvaluationBudget(BUDGET)
    single = local_search_mapping(
        APP, plat, MODEL, rng=np.random.default_rng(0),
        max_iters=10_000, budget=single_budget,
    )

    portfolio = portfolio_search(
        APP, plat, MODEL, n_restarts=N_RESTARTS, budget=BUDGET,
        max_iters=10_000,
    )
    return {
        "single_period": single.period,
        "single_evals": single.evaluations,
        "portfolio_period": portfolio.period,
        "portfolio_evals": portfolio.evaluations,
        "restarts": [(r.kind, r.period) for r in portfolio.restarts],
        "wins": portfolio.period < single.period or (
            portfolio.period == single.period
            and portfolio.evaluations <= single.evaluations
        ),
    }


def run_three_way() -> dict:
    """Single-start vs fair-share vs racing at equal budget, per seed.

    Every number here is a seeded search trajectory — no wall-clock —
    so the returned flags are deterministic contracts, not advisory
    ratios.
    """
    per_seed = []
    for seed in BENCH_SEEDS:
        plat = make_platform(seed)
        single = local_search_mapping(
            APP, plat, MODEL, rng=np.random.default_rng(0),
            max_iters=10_000, budget=EvaluationBudget(BUDGET),
        )
        fair = portfolio_search(
            APP, plat, MODEL, n_restarts=N_RESTARTS, budget=BUDGET,
            max_iters=10_000, allocator="fair-share",
        )
        racing = portfolio_search(
            APP, plat, MODEL, n_restarts=N_RESTARTS, budget=BUDGET,
            max_iters=10_000, allocator="racing",
        )
        per_seed.append({
            "seed": seed,
            "rugged": seed in RUGGED_SEEDS,
            "single_period": single.period,
            "fair_period": fair.period,
            "racing_period": racing.period,
            "fair_evals": fair.evaluations,
            "racing_evals": racing.evaluations,
            "racing_restarts": len(racing.restarts),
            "racing_margin": (fair.period - racing.period) / fair.period,
        })
    return {
        "budget": BUDGET,
        "n_restarts": N_RESTARTS,
        "seeds": per_seed,
        # Racing dominates fair-share: never worse at equal budget...
        "racing_never_worse": all(
            s["racing_period"] <= s["fair_period"] for s in per_seed
        ),
        # ...and strictly better exactly where fair-share was weak.
        "racing_beats_fair_on_rugged": all(
            s["racing_period"] < s["fair_period"]
            for s in per_seed if s["rugged"]
        ),
        # The rugged set is *defined* by fair-share losing to one lucky
        # deep climb — pin that the chosen seeds still exhibit it.
        "rugged_seeds_are_rugged": all(
            (s["single_period"] < s["fair_period"]) == s["rugged"]
            for s in per_seed
        ),
    }


def bench_racing_dominates_fair_share(benchmark):
    stats = benchmark.pedantic(run_three_way, rounds=1, iterations=1)
    assert stats["rugged_seeds_are_rugged"], (
        "the RUGGED_SEEDS set drifted: fair-share vs single-start flipped "
        f"on some seed: {stats['seeds']}"
    )
    assert stats["racing_never_worse"], (
        f"racing lost to fair-share at equal budget: {stats['seeds']}"
    )
    assert stats["racing_beats_fair_on_rugged"], (
        f"racing failed to strictly beat fair-share on a rugged seed: "
        f"{stats['seeds']}"
    )
    report(benchmark, f"Racing vs fair-share vs single-start "
                      f"(equal budget {BUDGET}, {len(BENCH_SEEDS)} seeds)",
           [("racing <= fair-share (all seeds)", "yes",
             stats["racing_never_worse"]),
            ("racing < fair-share (rugged seeds)", "yes",
             stats["racing_beats_fair_on_rugged"]),
            ("rugged = fair loses to single", "yes",
             stats["rugged_seeds_are_rugged"])])


def bench_portfolio_beats_single_start(benchmark):
    stats = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    assert stats["wins"], (
        f"portfolio {stats['portfolio_period']:.4f} "
        f"({stats['portfolio_evals']} evals) did not beat single-start "
        f"{stats['single_period']:.4f} ({stats['single_evals']} evals)"
    )
    report(benchmark, f"Portfolio vs single-start (budget {BUDGET})",
           [("single-start period", "baseline",
             f"{stats['single_period']:.4f} ({stats['single_evals']} evals)"),
            ("portfolio period", "<= baseline",
             f"{stats['portfolio_period']:.4f} "
             f"({stats['portfolio_evals']} evals)"),
            ("portfolio wins", "yes", stats["wins"])])


def main() -> int:
    stats = run_comparison()
    print(f"equal-budget comparison ({BUDGET} evaluations, {MODEL} model, "
          f"{APP.n_stages} stages on {make_platform().n_processors} procs)")
    print(f"single-start : P = {stats['single_period']:.4f} "
          f"({stats['single_evals']} evaluations)")
    print(f"portfolio    : P = {stats['portfolio_period']:.4f} "
          f"({stats['portfolio_evals']} evaluations)")
    for kind, period in stats["restarts"]:
        print(f"  restart {kind:<16}: {period:.4f}")
    assert stats["wins"], "portfolio failed to beat single-start local search"

    three = run_three_way()
    print(f"\nallocator race ({len(BENCH_SEEDS)} platform seeds, "
          f"budget {three['budget']}, {three['n_restarts']} restarts)")
    print(f"{'seed':>6} {'single':>9} {'fair':>9} {'racing':>9} "
          f"{'margin':>8}  notes")
    for s in three["seeds"]:
        notes = []
        if s["rugged"]:
            notes.append("rugged")
        if s["racing_period"] < s["fair_period"]:
            notes.append("racing wins")
        print(f"{s['seed']:>6} {s['single_period']:>9.4f} "
              f"{s['fair_period']:>9.4f} {s['racing_period']:>9.4f} "
              f"{100 * s['racing_margin']:>7.1f}%  {', '.join(notes)}")
    assert three["rugged_seeds_are_rugged"], "RUGGED_SEEDS drifted"
    assert three["racing_never_worse"], "racing lost to fair-share"
    assert three["racing_beats_fair_on_rugged"], \
        "racing did not strictly beat fair-share on a rugged seed"

    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
