"""Token-edge max-plus seed for lockstep Howard.

The token-free edges of a live strongly connected component form a DAG
(in a strict TPN every token sits on a processor-circuit place), so a
cycle alternates token edges with zero-token paths, and its ratio is a
cycle ratio of the *token-edge graph* over the SCC's ``k`` token edges:
node ``i`` is token edge ``s_i -> d_i``, and edge ``i -> j`` exists
when a zero-token path leads from ``d_i`` to ``s_j``, with weight
``A[i, j] = w_i + L(d_i, s_j)`` (``L`` the longest such path) and
``t_i`` tokens.  This is the timed-event-graph reduction
``x(n) = A (x) x(n - 1)`` of Baccelli, Cohen, Olsder and Quadrat,
*Synchronization and Linearity* (1992); the token-edge graph is strongly
connected whenever the SCC is.

Most nodes of the zero-token DAG have one in-edge and one out-edge (the
computation/communication chains of a path).  The structure contracts
every such node that is not a token endpoint: each CSR edge leaving a
*kept* node becomes one contracted edge, running along its chain to the
next kept node, with the chain's summed weight.  On the lcm-60 strict
topology this keeps 128 of 300 nodes, and each level pass takes 33
steps instead of 48.

This module holds the structure of that reduction and the numpy passes
of the proposal:

* :func:`token_dag` (structure only): the chains, the kept nodes'
  topological levels and their padded in-edge and out-edge tables over
  the contracted zero-token edges;
* :func:`forward_matrix`: one level-by-level longest-path pass from the
  ``k`` token heads over the contracted edges, giving the ``(B, k, k)``
  matrices ``A``;
* :func:`reduced_solve`: dense batched policy iteration on ``A`` (general
  token counts ``t_i``, ``-inf`` for missing edges), giving each row's
  ratio ``lambda``, a critical node and the reduced potentials ``q``;
* :func:`start_policy`: one reverse level pass for the kept nodes'
  potentials and each kept node's first CSR out-edge maximizing
  ``w - lambda * t + pot`` along its contracted edge; a chain node keeps
  its only out-edge.

The passes only *propose* a policy; :mod:`repro.maxplus.howard` verifies
the proposal on the full graph and re-solves rejected rows cold, so
their rounding (chain sums, pointer-jumped potentials) never reaches a
result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

IntArray = npt.NDArray[np.int64]
FloatArray = npt.NDArray[np.float64]


@dataclass(frozen=True)
class TokenDag:
    """Structure of one SCC's token-edge reduction (CSR edge positions).

    Contracted edge ``c`` runs from a kept node along the CSR edges
    ``chains[c]`` (the edge leaving the kept node, then each chain
    node's only out-edge, padded with the sentinel edge ``e``) to the
    next kept node.  Kept nodes are numbered by topological level of
    the contracted zero-token DAG, then by node id (``kept``), so level
    ``l`` is the index range ``levels[l]:levels[l + 1]``.  ``tok``
    lists the token edges' CSR positions and ``tok_src`` their kept
    tails.

    The level passes index ``n_kept + 1 + k`` rows: the kept nodes, a
    ``-inf`` sentinel row ``n_kept``, and one row per token edge ``j``
    (``n_kept + 1 + j``) that feeds its endpoint through a weight-0
    *virtual* edge: token head ``j``'s ``0`` in the forward pass, token
    tail ``j``'s reduced potential ``q_j`` in the reverse pass.  With
    them every kept node has an in-edge and an out-edge, so each pass
    writes every kept row exactly once.  ``into`` holds each kept
    node's padded in-slots ``(edges, srcs)``: contracted edge ids (``C``
    for virtual and padding slots, whose weight is 0) and source rows
    (``n_kept`` for padding).  ``out`` holds its out-slots ``(edges,
    ends, moves)`` likewise, with the CSR edge each slot starts with
    (token edge ``j`` for its virtual slot), slots in CSR order.
    """

    n: int
    kept: IntArray
    levels: IntArray
    tok: IntArray
    tok_src: IntArray
    tok_tokens: FloatArray
    chains: IntArray
    into: tuple[IntArray, IntArray]
    out: tuple[IntArray, IntArray, IntArray]

    @property
    def n_kept(self) -> int:
        return self.kept.size


def _padded(keys: IntArray, order: IntArray, n: int) -> IntArray:
    """``(n, dmax)`` table of the positions ``i`` with ``keys[i] == v``,
    per node ``v < n``, ascending in ``order``, padded with
    ``len(keys)``."""
    by = np.lexsort((order, keys))
    deg = np.bincount(keys, minlength=n)
    lo = np.cumsum(deg, dtype=np.int64) - deg
    slots = np.arange(max(int(deg.max()), 1))
    idx = np.minimum(lo[:, None] + slots, by.size - 1)
    return np.where(slots < deg[:, None], by[idx], keys.size)


def _levels(n: int, zsrc: IntArray, zdst: IntArray) -> IntArray:
    """Longest-path depth of every node in a DAG (Kahn)."""
    succ: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for s, d in zip(zsrc.tolist(), zdst.tolist()):
        succ[s].append(d)
        indeg[d] += 1
    level = [0] * n
    ready = [v for v in range(n) if not indeg[v]]
    while ready:
        v = ready.pop()
        for d in succ[v]:
            if level[v] + 1 > level[d]:
                level[d] = level[v] + 1
            indeg[d] -= 1
            if not indeg[d]:
                ready.append(d)
    return np.asarray(level, dtype=np.int64)


def token_dag(
    n: int, src: IntArray, dst: IntArray, tokens: FloatArray
) -> TokenDag:
    """Prepare the contracted token-edge reduction of one SCC.

    ``src``/``dst``/``tokens`` are CSR-ordered (sorted by source).  The
    SCC must be live (no zero-token cycle), which
    :func:`~repro.maxplus.howard.prepare_howard` checks first.
    """
    e = src.size
    tok = np.flatnonzero(tokens > 0)
    zero = tokens == 0
    endpoint = np.zeros(n, dtype=bool)
    endpoint[src[tok]] = True
    endpoint[dst[tok]] = True
    # A node off every token edge has only zero-token edges, so one in
    # and one out makes it a chain node of the DAG.
    chained = ((np.bincount(dst[zero], minlength=n) == 1)
               & (np.bincount(src[zero], minlength=n) == 1) & ~endpoint)
    kept = np.flatnonzero(~chained)
    index = np.full(n, -1, dtype=np.int64)
    index[kept] = np.arange(kept.size)

    # Walk every chain from the CSR edge that leaves its kept node; the
    # walks cover each edge exactly once.
    first = np.flatnonzero(~chained[src])
    out_edge = np.searchsorted(src, np.arange(n)).tolist()
    dst_l, chained_l = dst.tolist(), chained.tolist()
    walks = []
    ends = []
    for f in first.tolist():
        walk = [f]
        v = dst_l[f]
        while chained_l[v]:
            f = out_edge[v]
            walk.append(f)
            v = dst_l[f]
        walks.append(walk)
        ends.append(v)
    chains = np.full((first.size, max(map(len, walks))), e, dtype=np.int64)
    for c, walk in enumerate(walks):
        chains[c, :len(walk)] = walk
    c_src = index[src[first]]
    c_end = index[np.asarray(ends, dtype=np.int64)]

    # Renumber the kept nodes by level, so each level is an index range.
    zc = np.flatnonzero(tokens[first] == 0)
    level = _levels(kept.size, c_src[zc], c_end[zc])
    by_level = np.argsort(level, kind="stable")
    rank = np.empty_like(by_level)
    rank[by_level] = np.arange(by_level.size)
    kept, c_src, c_end = kept[by_level], rank[c_src], rank[c_end]
    index[kept] = np.arange(kept.size)

    # Slot tables over the contracted zero-token edges plus one virtual
    # edge per token edge (contracted id ``C``, weight 0) at each end.
    n_kept, n_c, k = kept.size, first.size, tok.size
    virtual = n_kept + 1 + np.arange(k)
    slot_edge = np.concatenate((zc, np.full(k + 1, n_c)))
    into_key = np.concatenate((c_end[zc], index[dst[tok]]))
    into_src = np.concatenate((c_src[zc], virtual, [n_kept]))
    out_key = np.concatenate((c_src[zc], index[src[tok]]))
    out_end = np.concatenate((c_end[zc], virtual, [n_kept]))
    moves = np.concatenate((first[zc], tok, [e]))
    into = _padded(into_key, into_src[:-1], n_kept)
    out = _padded(out_key, moves[:-1], n_kept)
    return TokenDag(
        n=n, kept=kept,
        levels=np.searchsorted(level[by_level], np.arange(level.max() + 2)),
        tok=tok, tok_src=index[src[tok]], tok_tokens=tokens[tok],
        chains=chains, into=(slot_edge[into], into_src[into]),
        out=(slot_edge[out], out_end[out], moves[out]),
    )


def _chain_weights(dag: TokenDag, W: FloatArray) -> FloatArray:
    """``(C + 1, B)`` contracted-edge weights, one padded gather-sum of
    the CSR weights ``W``, with a zero row ``C``."""
    B, e = W.shape
    wT = np.empty((e + 1, B))
    wT[:e] = W.T
    wT[e] = 0.0
    cw = np.empty((dag.chains.shape[0] + 1, B))
    wT.take(dag.chains, axis=0).sum(axis=1, dtype=np.float64, out=cw[:-1])
    cw[-1] = 0.0
    return cw


def _pass_rows(dag: TokenDag, shape: tuple[int, ...]) -> FloatArray:
    """Uninitialized level-pass rows with the ``-inf`` sentinel row set
    (kept rows are each written once by their level)."""
    rows = np.empty((dag.n_kept + 1 + dag.tok.size,) + shape)
    rows[dag.n_kept] = -np.inf
    return rows


def forward_matrix(dag: TokenDag, W: FloatArray) -> tuple[FloatArray, FloatArray]:
    """Dense ``(B, k, k)`` token-edge matrices ``A = w_i + L(d_i, s_j)``.

    ``W`` is the SCC's ``(B, e)`` CSR weight matrix.  One longest-path
    pass over the contracted zero-token DAG's levels runs from all ``k``
    heads at once; entries without a zero-token path are ``-inf``.
    Also returns the ``(C + 1, B)`` contracted-edge weights, which
    :func:`start_policy` reuses.
    """
    B = W.shape[0]
    k = dag.tok.size
    cw = _chain_weights(dag, W)
    dist = _pass_rows(dag, (B, k))
    heads = dist[dag.n_kept + 1:]
    heads[:] = -np.inf
    heads[np.arange(k), :, np.arange(k)] = 0.0
    edges, srcs = dag.into
    for lo, hi in zip(dag.levels[:-1].tolist(), dag.levels[1:].tolist()):
        dist[lo:hi] = (dist[srcs[lo:hi]] + cw[edges[lo:hi]][..., None]).max(axis=1)
    A = dist[dag.tok_src].transpose(1, 2, 0) + W[:, dag.tok][:, :, None]
    return A, cw


def _evaluate_dense(
    A: FloatArray, t: FloatArray, policy: IntArray
) -> tuple[FloatArray, FloatArray, IntArray]:
    """Ratios, potentials and cycle ids of ``(B, k)`` dense policies.

    Pointer doubling over the flat successors gives every node its
    policy cycle (identified by the cycle's smallest node); each cycle's
    weight and token sums give its ratio ``eta``, and pointer jumping
    with that node absorbing sums ``A - eta * t`` along each node's path
    to it, the potential ``h``.  Returns flat ``(eta, h, cid)``.
    """
    B, k, _ = A.shape
    nodes = np.arange(k)
    base = (np.arange(B) * k)[:, None]
    nxt = (policy + base).ravel()
    w = np.take_along_axis(A, policy[:, :, None], axis=2).ravel()
    tt = np.tile(t, B)

    hop = nxt
    pm = np.tile(nodes, B)
    steps = max(1, (k - 1).bit_length())  # 2**steps >= k
    for _ in range(steps):
        pm = np.minimum(pm, pm.take(hop))
        hop = hop.take(hop)
    # hop = nxt^(2^steps) lands every node on its cycle, and a cycle
    # node's path minimum over 2^steps >= k nodes is its cycle's least id.
    cid = pm.take(hop) + base.ravel().repeat(k)
    on_cycle = np.zeros(B * k, dtype=bool)
    on_cycle[hop] = True
    cyc = np.flatnonzero(on_cycle)
    wsum = np.bincount(cid[cyc], weights=w[cyc], minlength=B * k)
    tsum = np.bincount(cid[cyc], weights=tt[cyc], minlength=B * k)
    eta = wsum.take(cid) / tsum.take(cid)

    root = np.flatnonzero(cid == np.arange(B * k))
    h = w - eta * tt
    h[root] = 0.0
    jump = nxt.copy()
    jump[root] = root
    for _ in range(steps):
        h = h + h.take(jump)
        jump = jump.take(jump)
    return eta, h, cid


def reduced_solve(
    A: FloatArray, t: FloatArray, tol_rows: FloatArray, max_rounds: int
) -> tuple[FloatArray, IntArray, FloatArray]:
    """Dense batched policy iteration on ``(B, k, k)`` matrices.

    Node ``i``'s edges are the finite ``A[b, i, :]``, each with ``t[i]``
    tokens.  Every round evaluates all rows' policies at once
    (:func:`_evaluate_dense`) and improves them in the multichain order: a
    node that reaches a cycle of larger ratio (by more than the row's
    tolerance) moves towards the largest, any other node to the best
    ``A - eta * t + h`` among successors of its own ratio, when that
    beats its potential by more than the tolerance.  Rows stop together
    when no node moves, or after ``max_rounds``: the proposal needs no
    fixed point, the certificate decides.

    Returns each row's ratio ``lambda``, the least node of a critical
    policy cycle, and the potentials ``q`` (``(B, k)``, 0 on that node).
    """
    B, k, _ = A.shape
    tol = tol_rows[:, None]
    policy = A.argmax(axis=2)
    for _ in range(max_rounds):
        eta_f, h_f, cid = _evaluate_dense(A, t, policy)
        eta = eta_f.reshape(B, k)
        h = h_f.reshape(B, k)
        val = A + h[:, None, :]
        mixed = (eta.max(axis=1) - eta.min(axis=1) > tol_rows).any()
        if mixed:
            # Several ratio classes: a node that reaches a larger ratio
            # moves towards the largest, the others compare successors
            # of their own ratio only.
            reach = np.where(A > -np.inf, eta[:, None, :], -np.inf)
            to = reach.argmax(axis=2)
            up = np.take_along_axis(reach, to[..., None], axis=2)[..., 0] > eta + tol
            val[eta[:, None, :] < (eta - tol)[:, :, None]] = -np.inf
        j = val.argmax(axis=2)
        gain = np.take_along_axis(val, j[..., None], axis=2)[..., 0] - eta * t - h
        new = np.where(gain > tol, j, policy)
        if mixed:
            new = np.where(up, to, new)
        if (new == policy).all():
            break
        policy = new
    best = eta.argmax(axis=1)
    root = cid.reshape(B, k)[np.arange(B), best] - np.arange(B) * k
    lam = eta[np.arange(B), best]
    return lam, root, h


def start_policy(
    dag: TokenDag,
    cw: FloatArray,
    q: FloatArray,
    start: IntArray,
) -> IntArray:
    """``(B, n)`` full-graph policy from the reduced potentials ``q``.

    ``cw`` holds the contracted-edge weights from :func:`forward_matrix`.
    One reverse pass fills the kept nodes' potentials one level at a
    time from the deepest: a kept node's potential is its best
    out-slot, a contracted zero-token edge (``cw + pot[end]``) or one of
    its token edges ``j`` (``q_j``, which at the reduced fixed point is
    ``w_j - lambda * t_j + pot[d_j]``).  Then every kept node takes the
    CSR edge its first best slot starts with, in one argmax.  A chain
    node keeps its only out-edge (CSR position ``start[v]``), so its
    potential is never needed.
    """
    B = cw.shape[1]
    pot = _pass_rows(dag, (B,))
    pot[dag.n_kept + 1:] = q.T
    edges, ends, moves = dag.out
    for lo, hi in zip(dag.levels[-2::-1].tolist(), dag.levels[:0:-1].tolist()):
        pot[lo:hi] = (cw[edges[lo:hi]] + pot[ends[lo:hi]]).max(axis=1)
    best = (cw[edges] + pot[ends]).argmax(axis=1)
    policy = np.empty((B, dag.n), dtype=np.int64)
    policy[:] = start[:dag.n]
    policy[:, dag.kept] = np.take_along_axis(moves, best, axis=1).T
    return policy
