"""Token-edge max-plus seed for lockstep Howard on token-sparse SCCs.

Every token of a strict TPN sits on one of ``k`` processor-circuit
places; the rest of a strongly connected component is a DAG whose edges
carry no token.  A cycle therefore alternates token edges with
zero-token paths, and its ratio is a cycle ratio of the ``k``-node
*token-edge graph*: node ``i`` is token edge ``s_i -> d_i``, and edge
``i -> j`` exists when a zero-token path leads from ``d_i`` to ``s_j``,
with weight ``A[i, j] = w_i + L(d_i, s_j)`` (``L`` the longest such path)
and ``t_i`` tokens.  This is the timed-event-graph reduction
``x(n) = A (x) x(n - 1)`` of Baccelli, Cohen, Olsder and Quadrat,
*Synchronization and Linearity* (1992); the token-edge graph is strongly
connected whenever the SCC is.

This module holds the structure of that reduction and the numpy passes
around the reduced solve:

* :func:`token_dag` (structure only): the zero-token DAG's topological
  levels, padded in-edge and out-edge tables per level, the token edges
  and the reduced graph's edge list;
* :func:`forward_matrix`: one level-by-level longest-path pass from the
  ``k`` token heads, giving the ``(B, k, k)`` matrices ``A``;
* :func:`start_policy`: ``k`` Bellman-Ford sweeps for the reduced
  potentials, one reverse level pass for the full potentials, and each
  node's first CSR out-edge maximizing ``w - lambda * t + pot[dst]``.

The passes only *propose* a policy; :mod:`repro.maxplus.howard` solves
the reduced graph and verifies the proposal on the full graph.
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

    ``fwd`` lists, per topological level of the zero-token DAG in
    ascending order, ``(nodes, in_edges, in_srcs)``: the level's nodes
    with a zero-token in-edge and their padded in-edge table (sentinel
    edge ``e``, sentinel source ``n``).  ``rev`` lists, per level in
    descending order, ``(nodes, out_edges, out_dsts)`` for nodes with a
    zero-token out-edge.  ``red_src``/``red_dst`` are the reduced
    graph's edges ``i -> j`` in CSR order.
    """

    n: int
    tok: IntArray
    tok_src: IntArray
    tok_dst: IntArray
    tok_tokens: FloatArray
    fwd: tuple[tuple[IntArray, IntArray, IntArray], ...]
    rev: tuple[tuple[IntArray, IntArray, IntArray], ...]
    red_src: IntArray
    red_dst: IntArray


def _padded(
    keys: IntArray, vals: IntArray, nodes: IntArray, sentinel: int
) -> IntArray:
    """``(len(nodes), dmax)`` table of each node's ``vals`` (by ``keys``),
    ascending, padded with ``sentinel``."""
    order = np.lexsort((vals, keys))
    k_sorted, v_sorted = keys[order], vals[order]
    lo = np.searchsorted(k_sorted, nodes, side="left")
    deg = np.searchsorted(k_sorted, nodes, side="right") - lo
    slots = np.arange(max(int(deg.max()), 1))
    idx = np.minimum(lo[:, None] + slots, v_sorted.size - 1)
    return np.where(slots < deg[:, None], v_sorted[idx], sentinel)


def _levels(n: int, zsrc: IntArray, zdst: IntArray) -> IntArray:
    """Longest-path depth of every node in the zero-token DAG (Kahn)."""
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
    """Prepare the token-edge reduction of one SCC (CSR-ordered arrays).

    The SCC must be live (no zero-token cycle), which
    :func:`~repro.maxplus.howard.prepare_howard` checks first.
    """
    e = src.size
    tok = np.flatnonzero(tokens > 0)
    zpos = np.flatnonzero(tokens == 0)
    zsrc, zdst = src[zpos], dst[zpos]
    level = _levels(n, zsrc, zdst)
    src_ext = np.append(src, n)
    dst_ext = np.append(dst, n)
    has_in = np.bincount(zdst, minlength=n) > 0
    has_out = np.bincount(zsrc, minlength=n) > 0

    fwd: list[tuple[IntArray, IntArray, IntArray]] = []
    rev: list[tuple[IntArray, IntArray, IntArray]] = []
    for lev in range(int(level.max()) + 1):
        at = level == lev
        into = np.flatnonzero(at & has_in)
        if into.size:
            edges = _padded(zdst, zpos, into, e)
            fwd.append((into, edges, src_ext[edges]))
        outof = np.flatnonzero(at & has_out)
        if outof.size:
            edges = _padded(zsrc, zpos, outof, e)
            rev.append((outof, edges, dst_ext[edges]))
    rev.reverse()

    # Structural reachability: which token tails each token head reaches
    # along zero-token paths (the reduced graph's edges).
    k = tok.size
    reach = np.zeros((n + 1, k), dtype=bool)
    reach[dst[tok], np.arange(k)] = True
    for nodes, _, srcs in fwd:
        reach[nodes] |= reach[srcs].any(axis=1)
    red_src, red_dst = np.nonzero(reach[src[tok]].T)
    return TokenDag(
        n=n, tok=tok, tok_src=src[tok], tok_dst=dst[tok],
        tok_tokens=tokens[tok], fwd=tuple(fwd), rev=tuple(rev),
        red_src=red_src.astype(np.int64), red_dst=red_dst.astype(np.int64),
    )


def _weights_by_edge(W: FloatArray) -> FloatArray:
    """``(e + 1, B)`` edge-major weights with a zero sentinel row ``e``."""
    B, e = W.shape
    wT = np.empty((e + 1, B))
    wT[:e] = W.T
    wT[e] = 0.0
    return wT


def forward_matrix(dag: TokenDag, W: FloatArray) -> FloatArray:
    """Dense ``(B, k, k)`` token-edge matrices ``A = w_i + L(d_i, s_j)``.

    ``W`` is the SCC's ``(B, e)`` CSR weight matrix.  One longest-path
    pass over the zero-token DAG's levels runs from all ``k`` heads at
    once; entries without a zero-token path are ``-inf``.
    """
    B = W.shape[0]
    k = dag.tok.size
    wT = _weights_by_edge(W)
    dist = np.full((dag.n + 1, B, k), -np.inf)
    dist[dag.tok_dst, :, np.arange(k)] = 0.0
    for nodes, edges, srcs in dag.fwd:
        best = (dist[srcs] + wT[edges][..., None]).max(axis=1)
        dist[nodes] = np.maximum(dist[nodes], best)
    return dist[dag.tok_src].transpose(1, 2, 0) + W[:, dag.tok][:, :, None]


def start_policy(
    dag: TokenDag,
    W: FloatArray,
    A: FloatArray,
    lam: FloatArray,
    root: IntArray,
    csr: tuple[IntArray, IntArray, FloatArray, IntArray],
) -> IntArray:
    """``(B, n)`` full-graph policy from the reduced solution.

    ``lam`` and ``root`` are each row's reduced cycle ratio and one node
    of its critical cycle.  Reduced potentials ``q`` (0 at the root) come
    from ``k`` Bellman-Ford sweeps over ``A - lam * t``; the full
    potential of a node is its best zero-token path into a token edge
    ``j`` plus ``q_j``, filled one level at a time from the deepest.
    Each node then takes its first CSR out-edge maximizing
    ``w - lam * t + pot[dst]``.  ``csr`` is the SCC's
    ``(src, dst, tokens, start)``.
    """
    src, dst, tokens, start = csr
    B, e = W.shape
    k = dag.tok.size
    rows = np.arange(B)
    M = A - (lam[:, None] * dag.tok_tokens)[:, :, None]
    q = np.full((B, k), -np.inf)
    q[rows, root] = 0.0
    for _ in range(k):
        q = np.maximum(q, (M + q[:, None, :]).max(axis=2))

    wT = _weights_by_edge(W)
    pot = np.full((dag.n + 1, B), -np.inf)
    np.maximum.at(pot, dag.tok_src, q.T)
    for nodes, edges, dsts in dag.rev:
        best = (wT[edges] + pot[dsts]).max(axis=1)
        pot[nodes] = np.maximum(pot[nodes], best)

    val = W - lam[:, None] * tokens + pot[dst].T
    seg = start[:-1]
    seg_max = np.maximum.reduceat(val, seg, axis=1)
    return np.minimum.reduceat(
        np.where(val == seg_max[:, src], np.arange(e), e), seg, axis=1)
