"""Howard's policy iteration for the maximum cycle ratio.

Policy iteration on the "one chosen out-edge per node" relaxation
(Cochet-Terrasson, Cohen, Gaubert, Mc Gettrick, Quadrat 1998; Dasdan 2004):

1. every node picks one outgoing edge — the *policy* — giving a functional
   graph whose every component contains exactly one cycle;
2. each policy cycle is evaluated exactly (``sum w / sum t``) and node
   potentials ``h`` are propagated backwards along the policy;
3. edges that would improve ``(lambda, h)`` lexicographically replace the
   current policy choices; repeat until a fixed point.

At the fixed point the best policy cycle is a true critical cycle, which
is how the library *extracts* critical cycles (Figure 8 of the paper) and
why Howard is the default solver: it returns the exact cycle, not just a
bracketed value.  Graphs are processed per strongly connected component.

Prepare/solve split
-------------------
The solver is factored into a structural *preparation* phase and a
weight-dependent *solve* phase:

* :func:`prepare_howard` runs the liveness check, Tarjan's SCC
  decomposition and the per-component CSR edge sort — everything that
  depends only on the graph's **structure** (sources, destinations,
  tokens) — and returns a reusable :class:`HowardPlan`;
* :func:`solve_prepared` takes a plan plus an edge-weight vector and runs
  policy iteration only.

:func:`max_cycle_ratio_howard` simply composes the two.  The split is
what makes batched evaluation cheap: thousands of instances sharing one
TPN topology share a single plan and only re-stamp edge weights (see
:mod:`repro.engine`).  ``solve_prepared(prepare_howard(g), g.weight)``
is bit-identical to the one-shot call by construction.

Scalar kernel
-------------
One SCC solve keeps the policy and its evaluation in plain Python lists.
Each round runs one evaluation walk, then a policy-improvement step
chosen by the SCC's edge count: a Python loop over each node's CSR
segment up to ``_LIST_STEP_MAX_EDGES`` edges, the numpy ``reduceat``
step above.  Both steps pick the same policy, so results do not depend
on the cut.

Every solve starts cold, from the first out-edge of each node, so a
result is a pure function of the plan and the weights:

>>> g = RatioGraph(2, [(0, 1, 3.0, 1), (1, 0, 5.0, 1), (0, 0, 7.0, 1)])
>>> solve_prepared(prepare_howard(g), g.weight).value
7.0

Lockstep batches: seed, certify, or solve cold
----------------------------------------------
:func:`solve_prepared_many` solves ``B`` weight stampings of **one**
plan, one path for every multi-node SCC.  A live SCC's cycles alternate
token edges with token-free paths, so its cycle ratio is that of the
``k``-node token-edge reduction over the chain-contracted token-free
DAG (:mod:`._token_seed`; built on the SCC's first lockstep solve,
never by :func:`prepare_howard`).  Per row chunk, each row's dense
``k x k`` reduced matrix is solved by one batched dense policy
iteration and lifted to one start policy per row.  The start only
proposes.  One evaluation pass (:func:`_certify_seeded`: pointer
doubling for the cycle, pointer jumping for the potentials, one
reduced-cost pass over the edges) then *certifies* a row whose start
has a single policy cycle and every non-policy edge strictly
suboptimal by a margin.  Such a start is already a fixed point, so no
improvement round runs, and the row equals the cold scalar solve in
value, cycle and rotation.  Every other row is solved by the cold
scalar kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import numpy.typing as npt

from ..errors import DeadlockError, SolverError, ValidationError
from ..telemetry import TELEMETRY
from ._token_seed import (
    TokenDag,
    forward_matrix,
    reduced_solve,
    start_policy,
    token_dag,
)
from .graph import RatioGraph

__all__ = [
    "HowardResult",
    "HowardPlan",
    "prepare_howard",
    "solve_prepared",
    "solve_prepared_many",
    "max_cycle_ratio_howard",
]

#: Safety cap multiplier on policy-iteration rounds.
_MAX_ROUNDS_FACTOR = 64

#: SCCs with at most this many edges take the plain-Python policy
#: improvement step (:func:`_improve_lists`), larger ones the numpy
#: ``reduceat`` step (:func:`_improve_numpy`); both give the same bits.
#: Chosen from the sweep of real TPN SCC shapes in
#: ``benchmarks/bench_howard_scalar.py``: the list step is ahead up to
#: 210 edges, the numpy step from about 420.
_LIST_STEP_MAX_EDGES = 256

#: Cap on the float cells one seed chunk's passes hold: ``rows * (k *
#: (kept + 1) + chain cells)`` (:func:`_seed_chunk_rows`); larger slabs
#: are seeded in row chunks.
_SEED_CELL_BUDGET = 1 << 21

#: Most rows :func:`solve_prepared_many` seeds and certifies at once.
#: Keeps the lockstep working set flat in the slab size: a 256-row
#: slab of the lcm-60 topology peaks at 17.5 MiB unchunked.
#: Large SCCs hit :data:`_SEED_CELL_BUDGET` first.
_SEED_CHUNK_ROWS = 64


@dataclass(frozen=True)
class HowardResult:
    """Outcome of Howard's algorithm.

    Attributes
    ----------
    value:
        The maximum cycle ratio ``lambda*``.
    cycle_nodes:
        Nodes of one critical cycle, in traversal order.
    cycle_edges:
        Edge indices (into the input graph) of that cycle, aligned with
        ``cycle_nodes`` (edge ``i`` leaves ``cycle_nodes[i]``).
    n_rounds:
        Number of policy-iteration rounds until the fixed point.
    """

    value: float
    cycle_nodes: tuple[int, ...]
    cycle_edges: tuple[int, ...]
    n_rounds: int


#: One row's solve outcome before the exact-ratio recompute:
#: ``(value, cycle_nodes, cycle_edges, n_rounds)``, ids in caller space.
_Candidate = tuple[float, tuple[int, ...], tuple[int, ...], int]


@dataclass(frozen=True)
class _PreparedScc:
    """One multi-node SCC with its CSR edge layout precomputed.

    ``order`` sorts the component's local edges by source node;
    ``edge_map`` maps local (pre-sort) edge indices back to the global
    graph, and ``gmap = edge_map[order]`` maps CSR positions to global
    edges, so fresh global weights are stamped into CSR order with one
    gather ``weights[..., gmap]``.
    """

    n: int
    node_map: tuple[int, ...]
    edge_map: npt.NDArray[np.int64]
    order: npt.NDArray[np.int64]
    src: npt.NDArray[np.int64]
    dst: npt.NDArray[np.int64]
    tokens: npt.NDArray[np.float64]
    start: npt.NDArray[np.int64]
    gmap: npt.NDArray[np.int64]

    @cached_property
    def seed(self) -> TokenDag:
        """The token-edge reduction, built on the first lockstep solve:
        scalar solves (pattern plans, ``compute_period``) never pay
        for it."""
        return token_dag(self.n, self.src, self.dst, self.tokens)


@dataclass(frozen=True)
class _PreparedSingleton:
    """A singleton SCC whose cycles are its self-loops."""

    node: int
    self_loops: tuple[int, ...]


@dataclass(frozen=True)
class HowardPlan:
    """Structural preparation of a :class:`RatioGraph` for repeated solves.

    Holds the SCC decomposition (in Tarjan order, so candidate comparison
    is reproducible), the per-SCC CSR layouts, and the global token
    vector used for the exact critical-cycle ratio.  A plan depends only
    on ``(src, dst, tokens)`` — never on edge weights — so one plan
    serves every weight stamping of the same topology.
    """

    n_nodes: int
    n_edges: int
    tokens: npt.NDArray[np.int64]
    components: tuple[_PreparedScc | _PreparedSingleton, ...]


def prepare_howard(graph: RatioGraph) -> HowardPlan:
    """Structure-only preparation: liveness, SCCs, CSR sorts.

    Each SCC's edges are found in one vectorized pass over component
    labels: ``edge_map`` lists a component's internal edges in ascending
    order and local node ``k`` is the ``k``-th node of its Tarjan
    component, exactly as :meth:`RatioGraph.subgraph` would number them.

    Raises
    ------
    DeadlockError
        If some cycle carries no token (the liveness check fails).
    """
    if TELEMETRY.enabled:
        TELEMETRY.count("howard.prepares")
    graph.token_free_topological_order()  # liveness (raises DeadlockError)

    comps = graph.strongly_connected_components()
    sizes = [len(comp) for comp in comps]
    members = np.fromiter(
        (v for comp in comps for v in comp), dtype=np.int64, count=graph.n_nodes
    )
    label = np.empty(graph.n_nodes, dtype=np.int64)
    label[members] = np.repeat(np.arange(len(comps)), sizes)
    local = np.empty(graph.n_nodes, dtype=np.int64)
    local[members] = np.arange(graph.n_nodes) - np.repeat(
        np.cumsum(sizes, dtype=np.int64) - sizes, sizes
    )
    src_label = label[graph.src]
    inner = np.flatnonzero(src_label == label[graph.dst])
    inner = inner[np.argsort(src_label[inner], kind="stable")]
    bounds = np.searchsorted(src_label[inner], np.arange(len(comps) + 1)).tolist()

    components: list[_PreparedScc | _PreparedSingleton] = []
    for ci, comp in enumerate(comps):
        edge_map = inner[bounds[ci]:bounds[ci + 1]]
        if len(comp) == 1:
            if edge_map.size:  # a singleton's internal edges are self-loops
                components.append(_PreparedSingleton(comp[0], tuple(edge_map.tolist())))
            continue
        n = len(comp)
        sub_src = local[graph.src[edge_map]]
        order = np.argsort(sub_src, kind="stable")
        src = sub_src[order]
        start = np.searchsorted(src, np.arange(n + 1))
        if (start[1:] == start[:-1]).any():
            # Some node has no outgoing edge: inside an SCC that means the
            # "SCC" is a singleton without self-loop -> no cycle.
            continue
        dst = local[graph.dst[edge_map]][order]
        tokens = graph.tokens[edge_map][order].astype(float)
        components.append(
            _PreparedScc(
                n=n,
                node_map=tuple(comp),
                edge_map=edge_map,
                order=order,
                src=src,
                dst=dst,
                tokens=tokens,
                start=start,
                gmap=edge_map[order],
            )
        )
    return HowardPlan(
        n_nodes=graph.n_nodes,
        n_edges=graph.n_edges,
        tokens=graph.tokens,
        components=tuple(components),
    )


def _scc_howard_csr(
    scc: _PreparedScc,
    weight: npt.NDArray[np.float64],
    tol: float,
) -> HowardResult:
    """Policy iteration inside one prepared SCC (CSR edge order).

    ``weight`` is the SCC's CSR-ordered weight vector (finite floats).
    The iteration starts cold, from each node's first out-edge.  The
    result's cycle nodes and edges are SCC-local ids (edges before the
    CSR sort).

    The policy, ``lam`` and ``pot`` stay plain Python lists through the
    rounds: list indexing is several times cheaper than numpy scalar
    indexing and float arithmetic on the extracted values is
    bit-identical.  The improvement step is :func:`_improve_lists` on
    SCCs of at most :data:`_LIST_STEP_MAX_EDGES` edges and
    :func:`_improve_numpy` above; both return the same policy.
    """
    n = scc.n
    dst_l, tokens_l, start_l = scc.dst.tolist(), scc.tokens.tolist(), scc.start.tolist()
    policy = start_l[:n]  # cold start: first out-edge of each node
    weight_l = weight.tolist()
    small = len(weight_l) <= _LIST_STEP_MAX_EDGES

    max_rounds = _MAX_ROUNDS_FACTOR * max(n, 8)
    for round_no in range(1, max_rounds + 1):
        lam, pot, best_val, best_cycle = _evaluate(policy, dst_l, weight_l, tokens_l)
        if small:
            improved = _improve_lists(start_l, dst_l, tokens_l, policy, lam, pot, weight_l, tol)
        else:
            improved = _improve_numpy(scc, policy, lam, pot, weight, tol)
        if improved is None:
            order_l = scc.order.tolist()
            return HowardResult(
                value=float(best_val),
                cycle_nodes=tuple(best_cycle),
                cycle_edges=tuple(order_l[policy[u]] for u in best_cycle),
                n_rounds=round_no,
            )
        policy = improved

    raise SolverError(
        f"Howard's algorithm did not converge within {max_rounds} rounds; "
        f"the tolerance {tol} may be too small for this weight scale"
    )


def _evaluate(
    policy: list[int],
    dst_l: list[int],
    weight_l: list[float],
    tokens_l: list[float],
) -> tuple[list[float], list[float], float, list[int]]:
    """Policy evaluation: one sequential walk of the policy's chains.

    Returns ``(lam, pot, best_val, best_cycle)``: every node's cycle
    ratio and potential, the best policy cycle's ratio and its nodes in
    walk order (the first discovered cycle wins exact ties).
    """
    n = len(policy)
    nxt_l = [dst_l[k] for k in policy]
    # 0 = unvisited, else 1 + the start node of the walk that reached
    # it: a walk meeting its own stamp closed a fresh cycle, one meeting
    # an older stamp reached nodes already evaluated.
    walk = [0] * n
    lam: list[float] = [0.0] * n
    pot: list[float] = [0.0] * n
    best_val = -math.inf
    best_cycle: list[int] = []

    for v0 in range(n):
        if walk[v0]:
            continue
        # Walk the policy chain until a previously seen node.
        stamp = v0 + 1
        chain: list[int] = []
        v = v0
        while not walk[v]:
            walk[v] = stamp
            chain.append(v)
            v = nxt_l[v]
        if walk[v] == stamp:
            # Found a fresh cycle; v is its entry point within `chain`.
            cstart = chain.index(v)
            cycle = chain[cstart:]
            # Sequential accumulation in cycle order — the association
            # the lockstep certificate reproduces with one cumulative sum
            # (numpy's pairwise .sum() would not be).
            cw = 0.0
            ct = 0.0
            for u in cycle:
                eidx = policy[u]
                cw += weight_l[eidx]
                ct += tokens_l[eidx]
            if ct <= 0:
                raise SolverError(
                    "policy cycle carries no token; run the liveness "
                    "check before Howard's algorithm"
                )
            lam_c = cw / ct
            # Root potential 0, propagate backwards around the cycle.
            lam[v] = lam_c
            pot[v] = 0.0
            for u in reversed(cycle[1:]):
                eidx = policy[u]
                lam[u] = lam_c
                pot[u] = weight_l[eidx] - lam_c * tokens_l[eidx] + pot[nxt_l[u]]
            if lam_c > best_val:
                best_val = lam_c
                best_cycle = cycle
            tree = chain[:cstart]
        else:
            tree = chain
        # Unwind tree nodes (their successor already has lam/pot).
        for u in reversed(tree):
            eidx = policy[u]
            w_next = nxt_l[u]
            lam[u] = lam[w_next]
            pot[u] = weight_l[eidx] - lam[u] * tokens_l[eidx] + pot[w_next]
    return lam, pot, best_val, best_cycle


def _improve_lists(
    start_l: list[int],
    dst_l: list[int],
    tokens_l: list[float],
    policy: list[int],
    lam: list[float],
    pot: list[float],
    weight_l: list[float],
    tol: float,
) -> list[int] | None:
    """Policy improvement as a plain-Python loop over the CSR segments.

    The same rule as :func:`_improve_numpy`, node by node: phase 1 moves
    to the first out-edge with the largest ``lam[dst] - lam[v]`` when that
    gain is ``> tol``; otherwise phase 2 moves, among edges with gain
    ``> -tol``, to the first one with the largest
    ``w - lam[v]*t + pot[dst] - pot[v]`` when that is ``> tol`` and
    differs from the current choice.  The floats are the numpy
    expressions with the same association; for finite values "first
    strictly larger" is "first position attaining the segment max".
    Updates ``policy`` in place and returns it, or ``None`` when no node
    moves (the fixed point; ``policy`` is then untouched).
    """
    moved = False
    neg_tol = -tol
    k1 = 0
    for v in range(len(policy)):
        k0, k1 = k1, start_l[v + 1]
        lam_v = lam[v]
        if k1 - k0 == 1:
            # The only edge is the policy edge, and evaluation copied lam
            # along it: its gain is 0.0 (or NaN), which only a negative
            # tol beats -- phase 1 then re-selects it, still a move, as in
            # the numpy step.  Phase 2 cannot move.
            if tol < 0 and lam[dst_l[k0]] - lam_v > tol:
                moved = True
            continue
        pot_v = pot[v]
        best_g = best_r = -math.inf
        first_g = first_r = -1
        for k in range(k0, k1):
            d = dst_l[k]
            g = lam[d] - lam_v
            if g > best_g:
                best_g, first_g = g, k
            if g > neg_tol:
                r = weight_l[k] - lam_v * tokens_l[k] + pot[d] - pot_v
                if r > best_r:
                    best_r, first_r = r, k
        if best_g > tol:
            policy[v] = first_g
            moved = True
        elif best_r > tol and first_r != policy[v]:
            policy[v] = first_r
            moved = True
    return policy if moved else None


def _improve_numpy(
    scc: _PreparedScc,
    policy_l: list[int],
    lam_l: list[float],
    pot_l: list[float],
    weight: npt.NDArray[np.float64],
    tol: float,
) -> list[int] | None:
    """Policy improvement vectorized over the CSR segments (large SCCs).

    Returns the new policy, or ``None`` when no node moves.
    """
    src, dst, tokens, start = scc.src, scc.dst, scc.tokens, scc.start
    e = int(weight.size)
    edge_pos = np.arange(e, dtype=np.int64)
    seg_starts = start[:scc.n]
    policy = np.asarray(policy_l, dtype=np.int64)
    lam, pot = np.asarray(lam_l), np.asarray(pot_l)

    # Phase 1: move towards successors with strictly larger lambda.
    gain_lam = lam[dst] - lam[src]
    # Phase 2 (only among lambda-ties): improve potentials.
    reduced = weight - lam[src] * tokens + pot[dst] - pot[src]

    # Per-node segment maxima; "first index attaining the max" matches
    # np.argmax's tie-breaking in the per-node formulation.
    seg_max_g = np.maximum.reduceat(gain_lam, seg_starts)
    first_g = np.minimum.reduceat(
        np.where(gain_lam == seg_max_g[src], edge_pos, e), seg_starts
    )
    phase1 = seg_max_g > tol

    tie = gain_lam > -tol
    r_masked = np.where(tie, reduced, -np.inf)
    seg_max_r = np.maximum.reduceat(r_masked, seg_starts)
    first_r = np.minimum.reduceat(
        np.where(tie & (r_masked == seg_max_r[src]), edge_pos, e), seg_starts
    )
    phase2 = ~phase1 & (seg_max_r > tol) & (first_r != policy)

    if not (phase1.any() or phase2.any()):
        return None
    new: list[int] = np.where(
        phase1, first_g, np.where(phase2, first_r, policy)
    ).tolist()
    return new


def _reject_non_finite(weight: npt.NDArray[np.float64]) -> None:
    """Raise :class:`ValidationError` naming the first non-finite weight.

    The wording is :class:`RatioGraph`'s; a plan keeps no endpoints, so
    the edge is named by index (and the row, for a weight matrix).
    """
    bad = ~np.isfinite(weight)
    where = np.unravel_index(int(np.argmax(bad)), weight.shape)
    i = int(where[-1])
    row = f"weight row {int(where[0])}: " if weight.ndim == 2 else ""
    raise ValidationError(
        f"{row}edge {i} has non-finite weight {float(weight[where])}"
    )


def _scalar_candidate(
    scc: _PreparedScc,
    weight: npt.NDArray[np.float64],
    tol: float,
) -> _Candidate:
    """One row through the scalar kernel, ids mapped to caller space."""
    res = _scc_howard_csr(scc, weight, tol)
    return (
        res.value,
        tuple(scc.node_map[v] for v in res.cycle_nodes),
        tuple(scc.edge_map.take(np.asarray(
            res.cycle_edges, dtype=np.int64)).tolist()),
        res.n_rounds,
    )


def solve_prepared(
    plan: HowardPlan,
    weight: npt.NDArray[np.float64],
    tol: float | None = None,
) -> HowardResult:
    """Run policy iteration on a prepared plan with fresh edge weights.

    Parameters
    ----------
    plan:
        Structural preparation from :func:`prepare_howard`.
    weight:
        Edge weights aligned with the original graph's edge indices.
    tol:
        Improvement tolerance; defaults to ``1e-9`` times the weight scale.

    Every SCC's policy iteration starts cold (first out-edge of each
    node), so the result depends only on ``plan``, ``weight`` and
    ``tol``.

    Raises
    ------
    ValidationError
        If some weight is NaN or infinite.
    SolverError
        If the graph is acyclic or policy iteration fails to converge.
    """
    weight = np.asarray(weight, dtype=float)
    if tol is None:
        scale = float(np.abs(weight).max()) if plan.n_edges else 1.0
        if not math.isfinite(scale):
            _reject_non_finite(weight)
        tol = 1e-9 * max(scale, 1.0)
    elif plan.n_edges and not np.isfinite(weight).all():
        _reject_non_finite(weight)

    best: HowardResult | None = None
    rounds = 0
    for comp in plan.components:
        if isinstance(comp, _PreparedSingleton):
            ratios = [
                (float(weight[i]) / int(plan.tokens[i]), i)
                for i in comp.self_loops
                # 0-token self-loops were excluded by the liveness check
            ]
            val, eidx = max(ratios)
            cand = HowardResult(val, (comp.node,), (eidx,), 0)
        else:
            cand = HowardResult(*_scalar_candidate(comp, weight[comp.gmap], tol))
        rounds += cand.n_rounds
        if best is None or cand.value > best.value:
            best = cand

    if best is None:
        raise SolverError("graph is acyclic: no cycle ratio exists")
    if TELEMETRY.enabled:
        TELEMETRY.count("howard.solves")
        TELEMETRY.count("howard.rounds", rounds)

    # Report the *exact* arithmetic ratio of the extracted cycle, which is
    # cleaner than the float accumulated during policy evaluation.
    idx = np.asarray(list(best.cycle_edges), dtype=np.int64)
    total_w = float(weight[idx].sum(dtype=np.float64))
    total_t = int(plan.tokens[idx].sum(dtype=np.int64))
    if total_t == 0:
        raise DeadlockError("cycle carries no token; its ratio is infinite")
    return HowardResult(total_w / total_t, best.cycle_nodes, best.cycle_edges, best.n_rounds)


def solve_prepared_many(
    plan: HowardPlan,
    weights: npt.NDArray[np.float64],
    tol: float | None = None,
) -> list[HowardResult]:
    """Seeded, certified policy iteration for ``B`` stampings of one plan.

    Parameters
    ----------
    plan:
        Structural preparation from :func:`prepare_howard`.
    weights:
        ``(B, n_edges)`` matrix — one edge-weight stamping per row,
        aligned with the original graph's edge indices.
    tol:
        Improvement tolerance applied to every row; defaults to
        ``1e-9`` times each row's own weight scale (exactly the scalar
        per-solve default).

    Returns
    -------
    list[HowardResult]
        One result per row.  Entry ``b`` equals
        ``solve_prepared(plan, weights[b])`` in value bits, cycle nodes
        and cycle edges: certified rows by the argument below,
        uncertified rows because the cold scalar kernel solves them.  A
        certified row reports 1 round, an uncertified row the cold
        solve's.

    Notes
    -----
    *One path.*  Every multi-node SCC proposes one start policy ``pi``
    per row from its token-edge reduction (see the module docstring),
    and :func:`_certify_seeded` evaluates ``pi`` once.  The row is
    **certified** when ``pi`` has a single cycle ``C`` (``L`` edges,
    ``T(C)`` tokens, ratio ``lam``) and every non-policy edge has
    reduced cost
    ``r_e = w_e - lam * t_e + pot[dst] - pot[src] < -m`` with
    ``m = tol * max(n, L * T / T(C))`` (``n`` nodes, ``T`` tokens in
    the SCC); policy edges have ``r_e = 0``.

    **Certified => fixed point.**  One ratio on every node means policy
    improvement's phase 1 (a move to a larger ratio) never fires;
    policy edges have ``r_e = 0`` and every other edge
    ``r_e < -m <= -n * tol``, so phase 2 never fires either.  No
    improvement step is needed, and a certified row reports 1 round.

    **Certified => equal to cold.**  Let ``sigma`` be the policy a cold
    solve stops at, with one ratio ``mu`` on every node (what a fixed
    point of an SCC has, exactly so at ``tol = 0``) and so
    ``r^sigma_e <= tol`` on every edge.  Then ``sigma = pi``:

    1. Summing ``r_e`` around any cycle ``D`` gives
       ``W(D) - lam * T(D) < -m * j``, ``j`` its non-``pi`` edges: every
       cycle but ``C`` has ratio below ``lam - m / T``.
    2. Summing ``r^sigma_e`` around ``C`` gives
       ``lam - mu <= L * tol / T(C) <= m / T``, so by 1. ``sigma``'s
       cycle is ``C`` itself and ``mu = lam``.
    3. ``delta = pot^sigma - pot`` is constant (``c``) on ``C``.  Along
       ``sigma`` from a node whose ``sigma`` edge is not ``pi``'s,
       ``delta`` ends below ``c - m``; along ``pi`` (fewer than ``n``
       edges, each ``r^sigma <= tol``) it stays above ``c - n * tol``.
       As ``m >= n * tol``, no such node exists.

    The certificate sums the cycle's weights in walk order from the
    scalar walk's entry, so value, cycle and rotation agree with the
    cold solve bit for bit.  Its potentials come from pointer jumping,
    not the scalar recurrence: their rounding is about
    ``ceil(log2 n) * n * 2**-52`` of the weight scale, far below
    ``m >= n * tol`` (``tol`` is ``1e-9`` of it).  When several ratio
    classes coexist in ``sigma`` (possible only within
    ``(n - 1) * tol`` of each other) the argument does not apply as
    written; the near-tie harness in ``tests/test_howard_seed.py``
    replays such weightings against the cold solve.  Each row that
    fails the certificate is solved by the cold scalar kernel
    (:func:`_scalar_candidate`), so it is the cold solve, round count
    included, and counts as ``howard.uncertified``; every row of every
    multi-node SCC counts as ``howard.seeded_rows``.

    *The proposal.*  The start policy needs no bit identity: the
    certificate recomputes the accepted cycle and its ratio in the cold
    walk's order, and rejects any start that is not the cold fixed
    point.  So the seed sums each contracted chain of the zero-token
    DAG once, runs its forward and reverse passes over the contracted
    levels only, and solves the reduced matrices with dense policy
    iteration (:func:`~._token_seed.reduced_solve`), whose rounding
    differs from a Howard kernel's.

    *Row chunks.*  An SCC is seeded and certified in chunks of at most
    64 rows (``_SEED_CHUNK_ROWS``), fewer when the chunk's
    ``rows * k * (kept + 1)`` forward-pass cells plus its padded chain
    gather would exceed ``_SEED_CELL_BUDGET``, so the working set is
    flat in ``B``: a 256-row slab of the lcm-60
    topology peaks at about 2.8 MiB instead of 17.5 MiB.  Every row's
    seed and certificate depend on that row alone, so the chunking
    never changes a result.

    Raises
    ------
    ValidationError
        If some weight is NaN or infinite, or ``weights`` has the wrong
        shape.
    SolverError
        If the graph is acyclic or any row fails to converge.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2 or weights.shape[1] != plan.n_edges:
        raise ValidationError(
            f"weights must have shape (B, {plan.n_edges}); "
            f"got {weights.shape}"
        )
    B = weights.shape[0]
    if B == 0:
        return []

    if tol is None:
        if plan.n_edges:
            scale = np.abs(weights).max(axis=1)
            if not np.isfinite(scale).all():
                _reject_non_finite(weights)
        else:
            scale = np.ones(B)
        tol_rows = 1e-9 * np.maximum(scale, 1.0)
    else:
        if plan.n_edges and not np.isfinite(weights).all():
            _reject_non_finite(weights)
        tol_rows = np.full(B, float(tol))

    best: list[_Candidate | None] = [None] * B
    seeded = uncertified = 0
    for comp in plan.components:
        if isinstance(comp, _PreparedSingleton):
            loops = np.asarray(comp.self_loops, dtype=np.int64)
            vals = weights[:, loops] / plan.tokens[loops]
            # Scalar uses max() over (ratio, edge) tuples: ties go to the
            # *largest* edge index -> last argmax occurrence.
            k = loops.size
            j = (k - 1) - np.argmax(vals[:, ::-1], axis=1)
            for b in range(B):
                val = float(vals[b, j[b]])
                cur = best[b]
                if cur is None or val > cur[0]:
                    best[b] = (val, (comp.node,), (int(loops[j[b]]),), 0)
            continue

        seeded += B
        step = _seed_chunk_rows(comp.seed)
        for b0 in range(0, B, step):
            W = weights[b0:b0 + step, comp.gmap]
            tol_c = tol_rows[b0:b0 + step]
            chunk = _certify_seeded(comp, W, tol_c, _seed_start(comp, W, tol_c))
            for i, cand in enumerate(chunk):
                if cand is None:
                    uncertified += 1
                    cand = _scalar_candidate(comp, W[i], float(tol_c[i]))
                cur = best[b0 + i]
                if cur is None or cand[0] > cur[0]:
                    best[b0 + i] = cand

    if not plan.components:
        raise SolverError("graph is acyclic: no cycle ratio exists")
    out = _exact_ratio_results(plan, weights, best)  # type: ignore[arg-type]
    if TELEMETRY.enabled:
        _count_lockstep(out, seeded, uncertified)
    return out


def _count_lockstep(out: list[HowardResult], seeded: int, uncertified: int) -> None:
    """Tally one successful lockstep solve on the telemetry counters."""
    rounds = 0
    for res in out:
        rounds += res.n_rounds
    TELEMETRY.count("howard.lockstep_solves")
    TELEMETRY.count("howard.lockstep_rows", len(out))
    TELEMETRY.count("howard.rounds", rounds)
    if seeded:
        TELEMETRY.count("howard.seeded_rows", seeded)
    if uncertified:
        TELEMETRY.count("howard.uncertified", uncertified)


def _seed_chunk_rows(dag: TokenDag) -> int:
    """Rows of one seed-and-certify chunk: at most
    :data:`_SEED_CHUNK_ROWS`, and under :data:`_SEED_CELL_BUDGET` the
    ``rows * k * (kept + 1)`` cells of the forward pass plus the
    ``rows * C * longest chain`` cells of the padded chain gather."""
    cells = dag.tok.size * (dag.n_kept + 1) + dag.chains.size
    return min(_SEED_CHUNK_ROWS, max(1, _SEED_CELL_BUDGET // cells))


def _seed_start(
    scc: _PreparedScc,
    W: npt.NDArray[np.float64],
    tol_rows: npt.NDArray[np.float64],
) -> npt.NDArray[np.int64]:
    """``(B, n)`` start policies from the SCC's token-edge reduction.

    ``W`` is one row chunk (:func:`_seed_chunk_rows`).  The forward pass
    over the contracted zero-token DAG builds the dense ``(B, k, k)``
    token-edge matrices; one batched dense policy iteration on them
    (:func:`~._token_seed.reduced_solve`) gives each row's ratio and
    reduced potentials; :func:`~._token_seed.start_policy` lifts that
    solution to a full-graph policy with one reverse pass and one argmax
    over the contracted edges.  The start only proposes:
    :func:`_certify_seeded` accepts it as the row's fixed point or
    sends the row to the cold solve.
    """
    dag = scc.seed
    A, cw = forward_matrix(dag, W)
    _, _, q = reduced_solve(A, dag.tok_tokens, tol_rows,
                              _MAX_ROUNDS_FACTOR * max(dag.tok.size, 8))
    return start_policy(dag, cw, q, scc.start)


def _certify_seeded(
    scc: _PreparedScc,
    W: npt.NDArray[np.float64],
    tol_rows: npt.NDArray[np.float64],
    policy: npt.NDArray[np.int64],
) -> list[_Candidate | None]:
    """Certify each row's seeded start policy with one evaluation pass.

    ``policy`` is the ``(B, n)`` start from :func:`_seed_start`.  A row
    is certified when its policy has a single cycle ``C`` and every
    non-policy edge's reduced cost ``w - lam * t + pot[dst] - pot[src]``
    is below ``-tol * max(n, |C| * T / T(C))``, with ``T`` the SCC's
    token total and ``T(C)`` the cycle's; such a start is already a
    fixed point, and :func:`solve_prepared_many` explains why it equals
    the cold solve.  Returns a ``(value, cycle_nodes, cycle_edges, 1)``
    candidate per certified row, ids in caller space, and ``None`` for
    every other row.

    * The policy's hop ladder ``nxt^(2^k)``, ``k < K``, gives cycle
      membership: after ``2^K >= n`` hops every node sits on its cycle.
    * With one cycle its basin is every node, so the scalar walk's
      entry is the first cycle node on node 0's path, found by binary
      lifting over the ladder.
    * The cycle is read out in walk order from the entry by doubling
      over the ladder; its weights accumulate left to right (the
      scalar association), so the ratio has the scalar bits.
    * Pointer jumping with the entry absorbing sums each node's
      ``w - lam * t`` path to the entry, its potential, while the jump
      table doubles (only the current table is kept); the policy has
      one cycle exactly when every node's final jump ends at the entry.

    The hop ladder is int32 when ``B * n`` fits, only the current jump
    table is kept, and :func:`solve_prepared_many` passes at most
    :func:`_seed_chunk_rows` rows, so the working set does not grow
    with the slab.
    """
    B, e = W.shape
    n = scc.n
    tokens = scc.tokens
    # The hop ladder only indexes itself: int32 when it fits.  Tables
    # that gather floats stay int64, which numpy's float ``take`` runs
    # several times faster with.
    idx_dt = np.int32 if B * n < 2 ** 31 else np.int64
    base = (np.arange(B, dtype=idx_dt) * n)[:, None]
    nxt = scc.dst.astype(idx_dt).take(policy) + base  # flat successors

    ladder = []
    top = nxt
    while 1 << len(ladder) < n:
        ladder.append(top)
        top = top.take(top)
    onc = np.zeros(B * n, dtype=bool)
    onc[top.ravel()] = True

    # Binary lifting: the last node of node 0's path not on the cycle.
    node0 = base[:, 0]
    cur = node0
    for hop_k in reversed(ladder):
        to = hop_k.take(cur)
        cur = np.where(onc.take(to), cur, to)
    entry = np.where(onc.take(node0), node0, nxt.take(cur))

    # The cycle in walk order from the entry, doubled out over the ladder.
    length = onc.reshape(B, n).sum(axis=1, dtype=np.int64)
    l_max = int(length.max())
    walk = entry[:, None]
    for hop_k in ladder:
        if walk.shape[1] >= l_max:
            break
        walk = np.concatenate((walk, hop_k.take(walk)), axis=1)
    walk = walk[:, :l_max]
    valid = np.arange(l_max) < length[:, None]
    pol_flat = policy + (np.arange(B, dtype=np.int64) * e)[:, None]
    w_pol = W.ravel().take(pol_flat)
    t_pol = tokens.take(policy)
    cw = np.cumsum(np.where(valid, w_pol.take(walk), 0.0), axis=1, dtype=np.float64)
    ct = np.where(valid, t_pol.take(walk), 0.0).sum(axis=1, dtype=np.float64)
    lam = cw[np.arange(B), length - 1] / ct

    # Pointer jumping with the entry absorbing, summing each node's
    # ``w - lam * t`` path to the entry (its potential) as the jump
    # table doubles; 2^K >= n exceeds every distance to the entry.
    cost = (w_pol - lam[:, None] * t_pol).ravel()
    cost[entry] = 0.0
    jump = nxt.ravel().astype(np.int64)
    jump[entry] = entry
    for _ in ladder:
        cost = cost + cost.take(jump)
        jump = jump.take(jump)
    pot = cost.reshape(B, n)
    # One policy cycle exactly when every node's path reaches the entry.
    single = (jump.reshape(B, n) == entry[:, None]).all(axis=1)

    reduced = W - lam[:, None] * tokens + pot[:, scc.dst] - pot[:, scc.src]
    np.put(reduced, pol_flat, -np.inf)
    tokens_total = float(tokens.sum(dtype=np.float64))
    margin = tol_rows * np.maximum(n, length * tokens_total / ct)
    ok = np.flatnonzero(single & (reduced.max(axis=1) < -margin))

    out: list[_Candidate | None] = [None] * B
    node_map_arr = np.asarray(scc.node_map, dtype=np.int64)
    walk_ok = walk[ok]
    nodes_l = node_map_arr.take(walk_ok - base[ok]).tolist()
    edges_l = scc.gmap.take(policy.take(walk_ok)).tolist()
    for t, b in enumerate(ok.tolist()):
        size = int(length[b])
        out[b] = (float(lam[b]), tuple(nodes_l[t][:size]),
                  tuple(edges_l[t][:size]), 1)
    return out


def _exact_ratio_results(
    plan: HowardPlan,
    weights: npt.NDArray[np.float64],
    rows: list[_Candidate],
) -> list[HowardResult]:
    """Per-row exact extracted-cycle ratios, batched per unique cycle.

    Rows of one batch usually extract a handful of distinct cycles, so
    the gather+sum runs once per unique cycle; summing the ``(rows, L)``
    gather along its last axis applies numpy's pairwise reduction to
    each contiguous row — the same bits as the scalar
    ``weight[idx].sum()``.
    """
    groups: dict[tuple[int, ...], list[int]] = {}
    for b, (_, _, cyc_edges, _) in enumerate(rows):
        groups.setdefault(cyc_edges, []).append(b)
    values = np.empty(len(rows))
    for cyc, members in groups.items():
        idx = np.asarray(cyc, dtype=np.int64)
        total_t = int(plan.tokens[idx].sum(dtype=np.int64))
        if total_t == 0:
            raise DeadlockError("cycle carries no token; its ratio is infinite")
        values[members] = weights[np.ix_(np.asarray(members), idx)].sum(
            axis=1, dtype=np.float64) / total_t
    return [
        HowardResult(float(values[b]), nodes, edges, n_rounds)
        for b, (_, nodes, edges, n_rounds) in enumerate(rows)
    ]


def max_cycle_ratio_howard(graph: RatioGraph, tol: float | None = None) -> HowardResult:
    """Maximum cycle ratio and one critical cycle, over all SCCs.

    Parameters
    ----------
    graph:
        Token graph; must be live (every cycle carries a token) and contain
        at least one cycle.
    tol:
        Improvement tolerance; defaults to ``1e-9`` times the weight scale.

    Raises
    ------
    SolverError
        If the graph is acyclic or policy iteration fails to converge.
    DeadlockError
        If some cycle carries no token.
    """
    return solve_prepared(prepare_howard(graph), graph.weight, tol)
