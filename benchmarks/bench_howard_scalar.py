"""Scalar Howard kernel: list vs numpy policy improvement, per SCC shape.

``_scc_howard_csr`` runs one policy-evaluation walk per round and then
one of two improvement steps: a plain-Python loop over the CSR segments
(``_improve_lists``) on SCCs of at most ``_LIST_STEP_MAX_EDGES`` edges,
the numpy ``reduceat`` step (``_improve_numpy``) above.  This sweep is
the evidence for that cut.  It runs both steps over the real TPN SCC
shapes the campaign workloads solve on the scalar kernel:

* Theorem-1 pattern tori ``u x v`` up to ``7 x 9`` (overlap model);
* one-off strict skeletons of 3-stage mappings with ``lcm`` 2 to 12
  (the random-replication cells of a mixed campaign), and one with
  ``lcm`` 30 between them and the next shapes;
* the lcm-60 strict skeletons (300 and 420 transitions), solved on the
  scalar kernel by ``compute_period`` and for lockstep rows that miss
  the seed's certificate.  (A token-edge reduction is solved by dense
  policy iteration, not by a Howard kernel.)

For every shape it solves seeded weight stampings cold, once with each
step forced, and reports wall-clock per solve and per isolated
improvement step.

Asserted facts (deterministic; wall-clock is reported, never gated):

* both steps give **identical** results on every solve — value bits,
  extracted cycle nodes and edges, round count and the policy of every
  round;
* the total policy-round count over the sweep (``rounds``), which a
  kernel change must not raise.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_howard_scalar.py

or under pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_howard_scalar.py \
        -o python_files='bench_*.py' -o python_functions='bench_*'
"""

from __future__ import annotations

import time

import numpy as np

from repro.engine.skeleton import build_skeleton
from repro.maxplus import howard
from repro.petri.reduction import pattern_plan

try:  # pytest package context vs standalone `python benchmarks/...`
    from .bench_howard_many import drift_sweep
    from .conftest import report
except ImportError:  # pragma: no cover - standalone fallback
    from bench_howard_many import drift_sweep
    from conftest import report

#: Theorem-1 pattern shapes ``(u, v)``.
TORI = ((1, 2), (2, 3), (3, 4), (4, 6), (5, 6), (6, 8), (7, 9))
#: Strict-skeleton replications: one-off shapes of a mixed campaign
#: (lcm 2, 6, 10, 12), an lcm-30 shape between them and the lcm-60
#: shapes.
SKELETONS = ((1, 2, 1), (1, 2, 3), (2, 5, 1), (3, 4, 2), (2, 3, 5), (3, 4, 5),
             (4, 6, 10, 1))
#: Seeded weight stampings per shape.
N_STAMPINGS = 12
#: Timing repetitions (best-of, the two steps interleaved).
REPEATS = 5
#: Isolated improvement-step calls per timing sample.
STEP_CALLS = 50


def shapes() -> list[tuple[str, howard._PreparedScc, list[np.ndarray]]]:
    """``(label, scc, CSR-ordered weight vectors)`` for every swept shape."""
    out = []
    rng = np.random.default_rng(2009)
    for u, v in TORI:
        scc = _only_scc(pattern_plan(u, v))
        rows = [np.repeat(rng.uniform(1.0, 20.0, u * v), 2)
                for _ in range(N_STAMPINGS)]
        out.append((f"torus {u}x{v}", scc, [w[scc.gmap] for w in rows]))
    for counts in SKELETONS:
        insts = drift_sweep(counts, N_STAMPINGS, seed=sum(counts))
        sk = build_skeleton(insts[0], "strict")
        scc = _only_scc(sk.plan)
        weights = sk.stamp_weights_many(insts)
        out.append((f"strict {'x'.join(map(str, counts))} (m={sk.m})", scc,
                    [w[scc.gmap] for w in weights]))
    return out


def _only_scc(plan: howard.HowardPlan) -> howard._PreparedScc:
    (scc,) = [c for c in plan.components if isinstance(c, howard._PreparedScc)]
    return scc


def _tol(w: np.ndarray) -> float:
    return 1e-9 * max(float(np.abs(w).max()), 1.0)


def _solve_all(scc, rows, cut: int, traced: bool = False) -> list[tuple]:
    """Cold solves of every row with the cut forced to ``cut``; with
    ``traced``, each result also lists the policy of every round (the
    policy each round's evaluation walk sees)."""
    saved = howard._LIST_STEP_MAX_EDGES, howard._evaluate
    policies: list[list[int]] = []

    def evaluate(policy, *args):
        policies.append(list(policy))
        return saved[1](policy, *args)

    howard._LIST_STEP_MAX_EDGES = cut
    if traced:
        howard._evaluate = evaluate
    try:
        out = []
        for w in rows:
            policies = []
            res = howard._scc_howard_csr(scc, w, _tol(w))
            out.append((np.float64(res.value).tobytes(), res.cycle_nodes,
                        res.cycle_edges, res.n_rounds, policies))
        return out
    finally:
        howard._LIST_STEP_MAX_EDGES, howard._evaluate = saved


def _step_seconds(scc, w: np.ndarray) -> tuple[float, float]:
    """Best-of seconds per call of each improvement step (cold round 1)."""
    dst_l, tokens_l, start_l = scc.dst.tolist(), scc.tokens.tolist(), scc.start.tolist()
    weight_l = w.tolist()
    tol = _tol(w)
    best = [float("inf"), float("inf")]
    for rep in range(REPEATS):
        for which in ((0, 1) if rep % 2 == 0 else (1, 0)):
            policy = start_l[:scc.n]
            lam, pot, _, _ = howard._evaluate(policy, dst_l, weight_l, tokens_l)
            t0 = time.perf_counter()
            for _ in range(STEP_CALLS):
                if which == 0:
                    howard._improve_lists(start_l, dst_l, tokens_l, policy.copy(),
                                          lam, pot, weight_l, tol)
                else:
                    howard._improve_numpy(scc, policy, lam, pot, w, tol)
            dt = (time.perf_counter() - t0) / STEP_CALLS
            best[which] = min(best[which], dt)
    return best[0], best[1]


def run_sweep() -> dict:
    """Both improvement steps over every shape: identity, rounds, timings."""
    rows_out = []
    identical = True
    rounds = 0
    for label, scc, rows in shapes():
        lists_res = _solve_all(scc, rows, cut=1 << 62, traced=True)
        numpy_res = _solve_all(scc, rows, cut=-1, traced=True)
        identical &= lists_res == numpy_res
        rounds += sum(r[3] for r in lists_res)
        solve = {}
        for rep in range(REPEATS):
            for name, cut in (("lists", 1 << 62), ("numpy", -1))[::1 - 2 * (rep % 2)]:
                t0 = time.perf_counter()
                _solve_all(scc, rows, cut)
                dt = (time.perf_counter() - t0) / len(lists_res)
                solve[name] = min(solve.get(name, dt), dt)
        step_lists, step_numpy = _step_seconds(scc, rows[0])
        rows_out.append({
            "shape": label, "nodes": scc.n, "edges": int(scc.dst.size),
            "solve_lists_us": 1e6 * solve["lists"],
            "solve_numpy_us": 1e6 * solve["numpy"],
            "step_lists_us": 1e6 * step_lists,
            "step_numpy_us": 1e6 * step_numpy,
            "step": "lists" if scc.dst.size <= howard._LIST_STEP_MAX_EDGES
                    else "numpy",
        })
    return {"shapes": rows_out, "identical": identical, "rounds": rounds,
            "cut_edges": howard._LIST_STEP_MAX_EDGES}


def _table(stats: dict) -> list[str]:
    lines = [f"{'shape':<24} {'n':>4} {'e':>4}  {'solve lists':>11} "
             f"{'solve numpy':>11}  {'step lists':>10} {'step numpy':>10}  uses"]
    for r in stats["shapes"]:
        lines.append(
            f"{r['shape']:<24} {r['nodes']:>4} {r['edges']:>4}  "
            f"{r['solve_lists_us']:>9.1f}us {r['solve_numpy_us']:>9.1f}us  "
            f"{r['step_lists_us']:>8.1f}us {r['step_numpy_us']:>8.1f}us  "
            f"{r['step']}")
    return lines


def bench_howard_scalar_steps(benchmark):
    stats = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    assert stats["identical"]
    report(benchmark, "Scalar Howard: list vs numpy improvement step",
           [("results identical", "yes", stats["identical"]),
            ("policy rounds (deterministic)", "-", stats["rounds"]),
            ("cut (edges)", "-", stats["cut_edges"])])


def main() -> int:
    stats = run_sweep()
    print("\n".join(_table(stats)))
    print(f"cut: list step up to {stats['cut_edges']} edges "
          f"(wall-clock: reported, never gated)")
    print(f"policy rounds          : {stats['rounds']}")
    print(f"identical (both steps) : {stats['identical']}")
    assert stats["identical"], "list and numpy improvement steps diverged"
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
