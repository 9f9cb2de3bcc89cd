"""Column decomposition and pattern graphs (Theorem 1, Appendix A).

Under OVERLAP ONE-PORT every cycle of the TPN stays inside one *column*
(computations of one stage, or transmissions of one file): inter-row
places never leave their column and row places only move forward.  The
period is therefore the maximum over per-column critical ratios — and
each column admits a polynomial-size quotient:

* a **computation column** for stage ``S_i`` splits into ``m_i``
  disjoint circuits (one per replica); the critical one is the slowest
  processor, contributing ``max_u (w_i / Pi_u) / m_i`` per data set;
* a **communication column** for file ``F_i`` with ``a = m_i`` senders
  and ``b = m_{i+1}`` receivers splits into ``p = gcd(a, b)`` connected
  components; each component is ``c = m / lcm(a, b)`` copies of a
  ``u x v`` *pattern* (``u = a/p``, ``v = b/p``) and its critical ratio
  equals the pattern-graph ratio — computed on ``u*v`` nodes no matter
  how large ``m`` is.  The per-data-set contribution is
  ``max-cycle-ratio(pattern) / lcm(a, b)``.

Pattern graph layout (Figure 14): cell ``(alpha, beta)`` is the class of
transmissions of data sets ``j ≡ g + alpha*b + beta*a (mod lcm(a, b))``,
i.e. sender ``P_{i, (g + alpha*b) mod a}`` and receiver
``P_{i+1, (g + beta*a) mod b}``.  The *down* edge (same receiver, its next
round-robin reception) and the *right* edge (same sender, its next
round-robin transmission) wrap around with one token — exactly the
single-pattern graph ``G'`` of the appendix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..core.instance import Instance
from ..errors import SolverError
from ..maxplus import howard
from ..maxplus.graph import RatioGraph
from ..maxplus.lawler import max_cycle_ratio_lawler
from .net import PlaceKind, TimedEventGraph

__all__ = [
    "CompColumn",
    "CommPattern",
    "computation_column",
    "comm_patterns",
    "column_subgraph",
    "FileColumn",
    "file_column",
    "pattern_plan",
    "pattern_ratio",
]

#: Pattern shapes whose Howard plan stays cached (least recently used
#: evicted first).  A campaign meets a few dozen shapes at most.
PATTERN_PLAN_CACHE_SIZE = 256


def _torus(u: int, v: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(src, dst, tokens)`` of the ``u x v`` pattern torus.

    Cell ``(a, b)`` is node ``a * v + b``; it emits its *down* edge (to
    ``((a + 1) % u, b)``, a token on the wrap ``a = u - 1``) and then its
    *right* edge (to ``(a, (b + 1) % v)``, a token on ``b = v - 1``), so
    edge ``2 * cell + k`` carries the cell's duration.
    """
    a, b = np.divmod(np.arange(u * v), v)
    down = ((a + 1) % u) * v + b
    right = a * v + (b + 1) % v
    src = np.repeat(np.arange(u * v), 2)
    dst = np.stack([down, right], axis=1).ravel()
    tokens = np.stack([a == u - 1, b == v - 1], axis=1).ravel().astype(np.int64)
    return src, dst, tokens


@functools.lru_cache(maxsize=PATTERN_PLAN_CACHE_SIZE)
def pattern_plan(u: int, v: int) -> howard.HowardPlan:
    """Howard plan of the ``u x v`` pattern torus, cached per shape.

    The torus' structure depends on ``(u, v)`` only (the durations are
    its weights), so every pattern of one shape shares one plan.
    """
    return howard.prepare_howard(_torus_graph(u, v, np.zeros(2 * u * v)))


def _torus_graph(u: int, v: int, weights: np.ndarray) -> RatioGraph:
    """The ``u x v`` pattern torus with per-edge ``weights``."""
    src, dst, tokens = _torus(u, v)
    return RatioGraph.from_arrays(u * v, src, dst, weights, tokens)


def pattern_ratio(u: int, v: int, durations: np.ndarray) -> float:
    """Maximum cycle ratio of a ``u x v`` pattern torus (TPN time units).

    Solved on the cached plan of its shape (:func:`pattern_plan`);
    bit-identical to ``max_cycle_ratio`` on the torus graph, including
    the Lawler fallback when policy iteration fails.
    """
    weights = np.repeat(durations.ravel(), 2)
    try:
        return howard.solve_prepared(pattern_plan(u, v), weights).value
    except SolverError:
        return max_cycle_ratio_lawler(_torus_graph(u, v, weights))


@dataclass(frozen=True)
class CompColumn:
    """Critical-ratio summary of a computation column.

    Attributes
    ----------
    stage:
        Stage index ``i``.
    per_processor:
        ``(proc, w_i / Pi_u)`` pairs for every replica.
    contribution:
        Per-data-set period contribution ``max_u (w_i / Pi_u) / m_i``.
    critical_proc:
        Replica attaining the maximum.
    """

    stage: int
    per_processor: tuple[tuple[int, float], ...]
    contribution: float
    critical_proc: int


@dataclass(frozen=True)
class CommPattern:
    """Pattern graph ``G'`` of one connected component of a file column.

    Attributes
    ----------
    file_index:
        File ``F_i``.
    component:
        Component id ``g`` in ``[0, p)``.
    p, u, v, window:
        Decomposition constants: ``p = gcd(m_i, m_{i+1})`` components of
        ``u x v`` cells; ``window = lcm(m_i, m_{i+1})``; with ``c = m /
        window`` pattern repetitions inside the full column (Figure 13).
    senders:
        Processor of each pattern row, in receiver-round-robin order.
    receivers:
        Processor of each pattern column, in sender-round-robin order.
    durations:
        ``u x v`` array: transfer time from ``senders[alpha]`` to
        ``receivers[beta]``.
    """

    file_index: int
    component: int
    p: int
    u: int
    v: int
    window: int
    senders: tuple[int, ...]
    receivers: tuple[int, ...]
    durations: np.ndarray

    def to_ratio_graph(self) -> RatioGraph:
        """The torus graph ``G'``: down/right edges, tokens on wrap arcs."""
        return _torus_graph(self.u, self.v, np.repeat(self.durations.ravel(), 2))

    def critical_ratio(self) -> float:
        """Maximum cycle ratio of the pattern graph (TPN time units).

        :func:`pattern_ratio` of its durations: bit-identical to
        ``max_cycle_ratio(self.to_ratio_graph()).value``.
        """
        return pattern_ratio(self.u, self.v, self.durations)

    def contribution(self) -> float:
        """Per-data-set period contribution of this component."""
        return self.critical_ratio() / self.window

    def cell_pair(self, alpha: int, beta: int) -> tuple[int, int]:
        """(sender, receiver) processors of pattern cell ``(alpha, beta)``."""
        return self.senders[alpha], self.receivers[beta]


def computation_column(inst: Instance, stage: int) -> CompColumn:
    """Critical-ratio summary of the computation column of ``stage``."""
    procs = inst.mapping.processors_of(stage)
    per_proc = tuple((u, inst.comp_time(stage, u)) for u in procs)
    crit_proc, crit_time = max(per_proc, key=lambda x: x[1])
    return CompColumn(
        stage=stage,
        per_processor=per_proc,
        contribution=crit_time / len(procs),
        critical_proc=crit_proc,
    )


class FileColumn(NamedTuple):
    """Every pattern of one file column, as arrays.

    Attributes
    ----------
    p, u, v, window:
        Decomposition constants of :meth:`Mapping.comm_structure
        <repro.core.mapping.Mapping.comm_structure>`.
    senders, receivers:
        ``(p, u)`` and ``(p, v)`` processor indices: row ``g`` holds
        component ``g``'s pattern rows and pattern columns.
    durations:
        ``(p, u, v)`` transfer times, read-only; ``durations[g]`` is the
        pattern of component ``g``.
    """

    p: int
    u: int
    v: int
    window: int
    senders: np.ndarray
    receivers: np.ndarray
    durations: np.ndarray


@functools.lru_cache(maxsize=PATTERN_PLAN_CACHE_SIZE)
def _cell_positions(p: int, u: int, v: int) -> tuple[np.ndarray, np.ndarray]:
    """Replica positions of every component's pattern rows and columns.

    For ``a = p * u`` senders and ``b = p * v`` receivers, component
    ``g``'s row ``alpha`` is sender ``(g + alpha * b) mod a`` and its
    column ``beta`` receiver ``(g + beta * a) mod b``.
    """
    a, b = p * u, p * v
    g = np.arange(p)[:, None]
    rows, cols = (g + np.arange(u) * b) % a, (g + np.arange(v) * a) % b
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def file_column(inst: Instance, file_index: int) -> FileColumn:
    """Pattern durations of every component of file ``F_i``'s column.

    One gather and one division cover all ``p`` components.
    """
    mapping = inst.mapping
    p, u, v, window = mapping.comm_structure(file_index)
    rows, cols = _cell_positions(p, u, v)
    senders = np.asarray(mapping.processors_of(file_index))[rows]
    receivers = np.asarray(mapping.processors_of(file_index + 1))[cols]
    # delta_i / b_{s,r} per cell: the divisions of Instance.comm_time,
    # with size / inf == 0.0 on infinite-bandwidth links.
    durations = inst.application.file_size(file_index) / inst.platform.bandwidths[
        senders[:, :, None], receivers[:, None, :]
    ]
    durations.setflags(write=False)
    return FileColumn(p, u, v, window, senders, receivers, durations)


def comm_patterns(inst: Instance, file_index: int) -> list[CommPattern]:
    """Pattern graphs of every connected component of file ``F_i``'s column.

    Examples
    --------
    Example C of the paper (``m_1 = 21`` senders, ``m_2 = 27`` receivers
    for file ``F_1``) decomposes into 3 components of 7x9 patterns:

    >>> from repro.experiments.examples_paper import example_c
    >>> pats = comm_patterns(example_c(), 1)
    >>> [(pat.p, pat.u, pat.v) for pat in pats]
    [(3, 7, 9), (3, 7, 9), (3, 7, 9)]
    """
    col = file_column(inst, file_index)
    return [
        CommPattern(
            file_index=file_index,
            component=g,
            p=col.p,
            u=col.u,
            v=col.v,
            window=col.window,
            senders=tuple(col.senders[g].tolist()),
            receivers=tuple(col.receivers[g].tolist()),
            durations=col.durations[g],
        )
        for g in range(col.p)
    ]


def column_subgraph(
    net: TimedEventGraph, column: int
) -> tuple[RatioGraph, list[int]]:
    """Extract one column of a built OVERLAP net as a standalone graph.

    Returns the induced :class:`RatioGraph` over the column's transitions
    (in row order) and the list of original transition indices.  Only the
    column-internal places (the round-robin circuits) are kept — under the
    OVERLAP model these are exactly the places of every cycle through the
    column, so the sub-graph's maximum cycle ratio (divided by ``m``) is
    the column's period contribution.  This is the object drawn in
    Figures 9 and 10 of the paper.
    """
    trans = net.column_transitions(column)
    ids = [t.index for t in trans]
    remap = {t: i for i, t in enumerate(ids)}
    edges = []
    for p in net.places:
        if p.kind == PlaceKind.FLOW:
            continue
        if p.src in remap and p.dst in remap:
            edges.append(
                (remap[p.src], remap[p.dst], net.transitions[p.src].duration, p.tokens)
            )
    return RatioGraph(len(ids), edges), ids
