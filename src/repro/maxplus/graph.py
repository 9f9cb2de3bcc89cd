"""Weighted token graphs — the cycle-ratio problem's data structure.

A :class:`RatioGraph` is a directed multigraph whose edge ``e`` carries a
real *weight* ``w(e)`` (total firing duration in TPN applications) and an
integer *token count* ``t(e) >= 0``.  The **maximum cycle ratio** is::

    lambda* = max over cycles C of  (sum of w over C) / (sum of t over C)

For timed event graphs this is exactly the steady-state inter-firing time
of the transitions on a critical cycle (Baccelli, Cohen, Olsder, Quadrat,
"Synchronization and Linearity", 1992), the quantity Section 4 of the paper
extracts from its timed Petri nets.

The class stores edges in flat arrays (struct-of-arrays layout) so the
solvers can iterate with numpy-friendly access patterns.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np
import numpy.typing as npt

from ..errors import DeadlockError, ValidationError

__all__ = ["Edge", "RatioGraph"]


class Edge:
    """Read-only view of one edge of a :class:`RatioGraph`."""

    __slots__ = ("index", "src", "dst", "weight", "tokens")

    def __init__(
        self, index: int, src: int, dst: int, weight: float, tokens: int
    ) -> None:
        self.index = index
        self.src = src
        self.dst = dst
        self.weight = weight
        self.tokens = tokens

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Edge(#{self.index} {self.src}->{self.dst} "
            f"w={self.weight} t={self.tokens})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Edge):
            return NotImplemented
        return (self.index, self.src, self.dst, self.weight, self.tokens) == (
            other.index,
            other.src,
            other.dst,
            other.weight,
            other.tokens,
        )

    def __hash__(self) -> int:
        return hash((self.index, self.src, self.dst, self.weight, self.tokens))


class RatioGraph:
    """Directed multigraph with edge weights and token counts.

    Parameters
    ----------
    n_nodes:
        Number of nodes, indexed ``0 .. n_nodes - 1``.
    edges:
        Iterable of ``(src, dst, weight, tokens)`` tuples.  Parallel edges
        and self-loops are allowed (self-loops model round-robin circuits
        of non-replicated resources).

    :meth:`from_arrays` builds the same graph from four aligned arrays
    without a per-edge loop; the tuple constructor delegates to it.
    """

    __slots__ = ("n_nodes", "src", "dst", "weight", "tokens", "_out_adj", "_in_adj")

    def __init__(
        self,
        n_nodes: int,
        edges: Iterable[tuple[int, int, float, int]] = (),
    ) -> None:
        rows = [(int(s), int(d), float(w), int(t)) for s, d, w, t in edges]
        cols = list(zip(*rows)) or [(), (), (), ()]
        self._assign(n_nodes, cols[0], cols[1], cols[2], cols[3])

    @classmethod
    def from_arrays(
        cls,
        n_nodes: int,
        src: npt.ArrayLike,
        dst: npt.ArrayLike,
        weight: npt.ArrayLike,
        tokens: npt.ArrayLike,
    ) -> RatioGraph:
        """Graph from aligned edge arrays (edge ``i`` is ``src[i] -> dst[i]``).

        Validation is vectorized but reports the first offending edge
        with the same :class:`~repro.errors.ValidationError` the tuple
        constructor raises.  Arrays already of the target dtype are used
        without a copy.
        """
        graph = cls.__new__(cls)
        graph._assign(n_nodes, src, dst, weight, tokens)
        return graph

    def _assign(
        self,
        n_nodes: int,
        src: npt.ArrayLike,
        dst: npt.ArrayLike,
        weight: npt.ArrayLike,
        tokens: npt.ArrayLike,
    ) -> None:
        if n_nodes < 0:
            raise ValidationError("n_nodes must be >= 0")
        n = self.n_nodes = int(n_nodes)
        self.src = np.asarray(src, dtype=np.int64)
        self.dst = np.asarray(dst, dtype=np.int64)
        self.weight = np.asarray(weight, dtype=float)
        self.tokens = np.asarray(tokens, dtype=np.int64)
        size = self.src.size
        if any(a.ndim != 1 or a.size != size for a in (self.src, self.dst, self.weight, self.tokens)):
            raise ValidationError("edge arrays must be one-dimensional and of equal length")
        out_of_range = (self.src < 0) | (self.src >= n) | (self.dst < 0) | (self.dst >= n)
        negative = self.tokens < 0
        non_finite = ~np.isfinite(self.weight)
        bad = out_of_range | negative | non_finite
        if bad.any():
            # Report the first offending edge, checks in per-edge order.
            i = int(np.argmax(bad))
            s, d = int(self.src[i]), int(self.dst[i])
            if out_of_range[i]:
                raise ValidationError(f"edge ({s}, {d}) out of range for {n} nodes")
            if negative[i]:
                raise ValidationError(
                    f"edge ({s}, {d}) has negative tokens {int(self.tokens[i])}"
                )
            raise ValidationError(
                f"edge ({s}, {d}) has non-finite weight {float(self.weight[i])}"
            )
        self._out_adj: list[list[int]] | None = None
        self._in_adj: list[list[int]] | None = None

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def n_edges(self) -> int:
        """Number of edges."""
        return int(self.src.size)

    def edge(self, i: int) -> Edge:
        """Edge ``i`` as a lightweight view object."""
        return Edge(i, int(self.src[i]), int(self.dst[i]), float(self.weight[i]), int(self.tokens[i]))

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges."""
        for i in range(self.n_edges):
            yield self.edge(i)

    def out_edges(self, node: int) -> list[int]:
        """Indices of edges leaving ``node``."""
        return self._out_adjacency()[node]

    def in_edges(self, node: int) -> list[int]:
        """Indices of edges entering ``node``."""
        if self._in_adj is None:
            self._in_adj = _grouped(self.dst, np.arange(self.n_edges), self.n_nodes)
        return self._in_adj[node]

    def _out_adjacency(self) -> list[list[int]]:
        if self._out_adj is None:
            self._out_adj = _grouped(self.src, np.arange(self.n_edges), self.n_nodes)
        return self._out_adj

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def strongly_connected_components(self) -> list[list[int]]:
        """Strongly connected components (iterative Tarjan).

        Returned in reverse topological order (Tarjan's natural output);
        singleton components without self-loops contain no cycles.
        """
        n = self.n_nodes
        succ = _grouped(self.src, self.dst, n)
        index = [-1] * n
        low = [0] * n
        on_stack = [False] * n
        stack: list[int] = []
        components: list[list[int]] = []
        counter = 0

        for root in range(n):
            if index[root] != -1:
                continue
            # Explicit DFS stack of (node, iterator position over out-edges).
            work: list[tuple[int, int]] = [(root, 0)]
            while work:
                node, ei = work[-1]
                if ei == 0:
                    index[node] = low[node] = counter
                    counter += 1
                    stack.append(node)
                    on_stack[node] = True
                advanced = False
                out = succ[node]
                while ei < len(out):
                    nxt = out[ei]
                    ei += 1
                    if index[nxt] == -1:
                        work[-1] = (node, ei)
                        work.append((nxt, 0))
                        advanced = True
                        break
                    if on_stack[nxt] and index[nxt] < low[node]:
                        low[node] = index[nxt]
                if advanced:
                    continue
                work.pop()
                if low[node] == index[node]:
                    comp: list[int] = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == node:
                            break
                    components.append(comp)
                if work:
                    parent = work[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
        return components

    def token_free_topological_order(self) -> list[int]:
        """Topological order of nodes in the 0-token edge subgraph.

        Raises
        ------
        DeadlockError
            If the 0-token subgraph contains a cycle — such a cycle has
            ratio ``+inf`` (it can never fire in the TPN reading).
        """
        n = self.n_nodes
        free = self.tokens == 0
        src, dst = self.src[free], self.dst[free]
        loops = src == dst
        if loops.any():
            s = int(src[np.argmax(loops)])
            raise DeadlockError(
                f"node {s} has a token-free self-loop; the graph is not live"
            )
        succ = _grouped(src, dst, n)
        indeg = np.bincount(dst, minlength=n)
        order: list[int] = np.flatnonzero(indeg == 0).tolist()
        indeg_l: list[int] = indeg.tolist()
        head = 0
        while head < len(order):
            v = order[head]
            head += 1
            for w in succ[v]:
                indeg_l[w] -= 1
                if indeg_l[w] == 0:
                    order.append(w)
        if len(order) != n:
            raise DeadlockError(
                "the 0-token subgraph contains a cycle; the graph is not live "
                "(some cycle carries no token)"
            )
        return order

    def is_live(self) -> bool:
        """``True`` when every cycle carries at least one token."""
        try:
            self.token_free_topological_order()
        except DeadlockError:
            return False
        return True

    def subgraph(self, nodes: Sequence[int]) -> tuple["RatioGraph", list[int], list[int]]:
        """Induced subgraph on ``nodes``.

        Returns ``(sub, node_map, edge_map)`` where ``node_map[i]`` is the
        original index of sub-node ``i`` and ``edge_map[j]`` the original
        index of sub-edge ``j`` (ascending).
        """
        node_arr = np.asarray(nodes, dtype=np.int64).reshape(-1)
        remap = np.full(self.n_nodes, -1, dtype=np.int64)
        # Nodes outside the graph become isolated sub-nodes.
        known = (node_arr >= 0) & (node_arr < self.n_nodes)
        remap[node_arr[known]] = np.flatnonzero(known)
        sub_src, sub_dst = remap[self.src], remap[self.dst]
        edge_map = np.flatnonzero((sub_src >= 0) & (sub_dst >= 0))
        sub = RatioGraph.from_arrays(
            node_arr.size,
            sub_src[edge_map],
            sub_dst[edge_map],
            self.weight[edge_map],
            self.tokens[edge_map],
        )
        return sub, node_arr.tolist(), edge_map.tolist()

    def cycle_ratio_of(self, edge_indices: Sequence[int]) -> float:
        """Exact ratio ``sum(w)/sum(t)`` of a given cycle (list of edges)."""
        idx = np.asarray(list(edge_indices), dtype=np.int64)
        total_w = float(self.weight[idx].sum(dtype=np.float64))
        total_t = int(self.tokens[idx].sum(dtype=np.int64))
        if total_t == 0:
            raise DeadlockError("cycle carries no token; its ratio is infinite")
        return total_w / total_t

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RatioGraph(n_nodes={self.n_nodes}, n_edges={self.n_edges})"


def _grouped(
    keys: npt.NDArray[np.int64], values: npt.NDArray[np.int64], n: int
) -> list[list[int]]:
    """``values`` bucketed by ``keys`` in ``range(n)``, input order kept."""
    order = np.argsort(keys, kind="stable")
    bounds = np.searchsorted(keys[order], np.arange(n + 1)).tolist()
    flat = values[order].tolist()
    return [flat[bounds[v]:bounds[v + 1]] for v in range(n)]
