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
    "pattern_plan",
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
    src, dst, tokens = _torus(u, v)
    return howard.prepare_howard(
        RatioGraph.from_arrays(u * v, src, dst, np.zeros(src.size), tokens)
    )


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
        src, dst, tokens = _torus(self.u, self.v)
        return RatioGraph.from_arrays(
            self.u * self.v, src, dst, np.repeat(self.durations.ravel(), 2), tokens
        )

    def critical_ratio(self) -> float:
        """Maximum cycle ratio of the pattern graph (TPN time units).

        Solved on the cached plan of its ``(u, v)`` shape
        (:func:`pattern_plan`); bit-identical to
        ``max_cycle_ratio(self.to_ratio_graph()).value``, including the
        Lawler fallback when policy iteration fails.
        """
        weights = np.repeat(self.durations.ravel(), 2)
        try:
            return howard.solve_prepared(pattern_plan(self.u, self.v), weights).value
        except SolverError:
            return max_cycle_ratio_lawler(self.to_ratio_graph())

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
    mapping = inst.mapping
    p, u, v, window = mapping.comm_structure(file_index)
    senders_all = mapping.processors_of(file_index)
    receivers_all = mapping.processors_of(file_index + 1)
    a, b = len(senders_all), len(receivers_all)
    size = inst.application.file_size(file_index)
    bandwidths = inst.platform.bandwidths

    out: list[CommPattern] = []
    for g in range(p):
        senders = tuple(senders_all[(g + alpha * b) % a] for alpha in range(u))
        receivers = tuple(receivers_all[(g + beta * a) % b] for beta in range(v))
        # delta_i / b_{s,r} per cell: the divisions of Instance.comm_time,
        # with size / inf == 0.0 on infinite-bandwidth links.
        durations = size / bandwidths[
            np.asarray(senders)[:, None], np.asarray(receivers)[None, :]
        ]
        durations.setflags(write=False)
        out.append(
            CommPattern(
                file_index=file_index,
                component=g,
                p=p,
                u=u,
                v=v,
                window=window,
                senders=senders,
                receivers=receivers,
                durations=durations,
            )
        )
    return out


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
