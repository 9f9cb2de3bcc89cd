"""Polynomial period computation for OVERLAP ONE-PORT (Theorem 1).

Under the OVERLAP model the TPN's cycles never leave their column, so::

    P = max( max_i  comp-column(i),  max_i  comm-column(i) )

where the computation column of ``S_i`` contributes
``max_u (w_i/Pi_u) / m_i`` and the communication column of ``F_i``
contributes ``max_g ratio(pattern G'_g) / lcm(m_i, m_{i+1})`` over its
``gcd(m_i, m_{i+1})`` connected components (see
:mod:`repro.petri.reduction` for the pattern construction).

Total cost ``O(sum_i (m_i * m_{i+1})^3)`` — polynomial in the mapping
size even when the full net has ``lcm(m_i)`` rows (Example C: pattern
graphs of 63 cells stand in for a 10395-row net).

:func:`overlap_period` is the oracle: it solves every pattern and returns
the full :class:`OverlapBreakdown`.  :func:`overlap_period_value` returns
the same period bits and skips every pattern whose contribution provably
stays below the running maximum (see its docstring for the bound).
:func:`_overlap_values_many` is its group form for the batch engine:
instances sharing one replica-count vector, gathered into slot space
once, get their incumbents, pattern durations, bounds and live masks
from array passes, and each row's live patterns go through the same
ordered solve loop (:func:`_solve_live`), so every row keeps the
per-instance bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.instance import Instance
from ..core.mapping import Mapping
from ..petri.builder import SlotTimes
from ..petri.reduction import (
    CommPattern,
    CompColumn,
    _cell_positions,
    comm_patterns,
    computation_column,
    file_column,
    pattern_ratio,
)
from ..telemetry import TELEMETRY

__all__ = [
    "ColumnContribution",
    "OverlapBreakdown",
    "overlap_period",
    "overlap_period_value",
]

#: Lawler fallback tolerances (relative, absolute): when policy iteration
#: fails, a pattern's ratio is a bisection midpoint within them of the
#: exact maximum cycle ratio.
_LAWLER_SLACK = 1e-12


@dataclass(frozen=True)
class ColumnContribution:
    """Per-data-set period contribution of one TPN column.

    Attributes
    ----------
    column:
        TPN column index (``2i`` computation, ``2i + 1`` communication).
    kind:
        ``"comp"`` or ``"comm"``.
    stage_or_file:
        Stage index (computation) or file index (communication).
    value:
        The contribution — the period is the max over all columns.
    comp:
        Detailed :class:`CompColumn` for computation columns.
    patterns:
        The component pattern graphs for communication columns.
    """

    column: int
    kind: str
    stage_or_file: int
    value: float
    comp: CompColumn | None = None
    patterns: tuple[CommPattern, ...] = ()

    def describe(self) -> str:
        """One-line human-readable summary."""
        if self.kind == "comp":
            return (
                f"column {self.column} (S{self.stage_or_file} computation): "
                f"{self.value:g} — slowest replica P{self.comp.critical_proc}"
            )
        return (
            f"column {self.column} (F{self.stage_or_file} transmission): "
            f"{self.value:g} over {len(self.patterns)} component(s)"
        )


@dataclass(frozen=True)
class OverlapBreakdown:
    """Full column decomposition backing an OVERLAP period value.

    Attributes
    ----------
    period:
        The per-data-set period ``P`` (max of contributions).
    columns:
        Per-column contributions, in column order.
    """

    period: float
    columns: tuple[ColumnContribution, ...]

    @property
    def critical_columns(self) -> tuple[ColumnContribution, ...]:
        """Columns attaining the period (the critical part of the net)."""
        tol = 1e-9 * max(self.period, 1.0)
        return tuple(c for c in self.columns if abs(c.value - self.period) <= tol)


def overlap_period(inst: Instance) -> OverlapBreakdown:
    """Theorem 1: the OVERLAP ONE-PORT period in polynomial time.

    Examples
    --------
    Example B of the paper — no critical resource, ``P = 291.66...``
    strictly above the cycle-time bound 258.33:

    >>> from repro.experiments.examples_paper import example_b
    >>> round(overlap_period(example_b()).period, 2)
    291.67
    """
    n = inst.n_stages
    cols: list[ColumnContribution] = []
    for i in range(n):
        comp = computation_column(inst, i)
        cols.append(
            ColumnContribution(
                column=2 * i,
                kind="comp",
                stage_or_file=i,
                value=comp.contribution,
                comp=comp,
            )
        )
        if i < n - 1:
            pats = tuple(comm_patterns(inst, i))
            value = max(pat.contribution() for pat in pats)
            cols.append(
                ColumnContribution(
                    column=2 * i + 1,
                    kind="comm",
                    stage_or_file=i,
                    value=value,
                    patterns=pats,
                )
            )
    cols.sort(key=lambda c: c.column)
    period = max(c.value for c in cols)
    return OverlapBreakdown(period=period, columns=tuple(cols))


def _bound_margin(u: int, v: int) -> float:
    """Rounding-safe factor on a ``u x v`` pattern's ratio bound.

    A cycle of the torus that wraps ``k_d`` times down and ``k_r`` times
    right has ``k_d * u + k_r * v`` edges and ``k_d + k_r`` tokens, so its
    exact ratio is at most ``max(u, v) * max(durations)``.  A computed
    contribution is the float sum of at most ``u * v`` weights over the
    token count, then divided by ``window``: ``u * v + 2`` roundings, and
    the bound adds three of its own, all covered by ``(u * v + 4) *
    2**-52``.  The Lawler fallback's tolerances are added on top.
    """
    return 1.0 + (u * v + 4) * 2.0**-52 + _LAWLER_SLACK


def overlap_period_value(inst: Instance) -> float:
    """Theorem 1's period alone: bit-identical to ``overlap_period(inst).period``.

    The period is a max of column contributions, and ``max`` is exact, so
    a pattern whose contribution bound (:func:`_bound_margin`) is
    strictly below a contribution already computed cannot change the
    result and is never solved.  The incumbent holds computed values only
    (the computation columns, then every solved pattern): Howard stops
    at an absolute tolerance, so a solved ratio may land just under the
    pattern's row-sum / column-sum lower bound, and a lower bound in the
    incumbent could prune a pattern the oracle's max would pick.  The
    lower bounds only order the solves, largest first, so the incumbent
    rises early (:func:`_solve_live`).  While telemetry is on,
    ``poly.patterns_solved`` and ``poly.patterns_pruned`` count both
    outcomes.  :func:`_overlap_values_many` is the same routine over a
    whole slot-space group.

    Examples
    --------
    >>> from repro.experiments.examples_paper import example_c
    >>> overlap_period_value(example_c()) == overlap_period(example_c()).period
    True
    """
    speeds = inst.platform.speeds.tolist()
    # max_u (w_i / Pi_u) is w_i over the slowest replica's speed: the
    # division rounds monotonically, so the bits match computation_column.
    incumbent = max(
        work / min(speeds[proc] for proc in procs) / len(procs)
        for work, procs in zip(inst.application.works, inst.mapping.assignments)
    )
    # (lower bound, bound, u, v, window, durations) of the unpruned patterns
    pending = []
    total = 0
    for i in range(inst.n_stages - 1):
        col = file_column(inst, i)
        total += col.p
        d = col.durations
        scale = max(col.u, col.v) * _bound_margin(col.u, col.v)
        bounds = [
            (scale * dmax + _LAWLER_SLACK) / col.window
            for dmax in d.max(axis=(1, 2)).tolist()
        ]
        live = [g for g, bound in enumerate(bounds) if not bound < incumbent]
        if live:  # a NaN bound stays live: its solve raises like the oracle's
            lower = _lower_bounds(d)
            pending.extend(
                (float(lower[g]) / col.window, bounds[g], col.u, col.v, col.window, d[g])
                for g in live
            )
    incumbent, solved = _solve_live(incumbent, pending)
    if TELEMETRY.enabled:
        TELEMETRY.count("poly.patterns_solved", solved)
        TELEMETRY.count("poly.patterns_pruned", total - solved)
    return incumbent


def _lower_bounds(durations: np.ndarray) -> np.ndarray:
    """Largest row or column sum of each ``(u, v)`` pattern of ``(L, u, v)``.

    Every row and every column of the torus closes a one-token cycle, so
    its sum is at most the pattern's ratio (up to Howard's tolerance).
    """
    return np.maximum(durations.sum(axis=2).max(axis=1), durations.sum(axis=1).max(axis=1))


def _solve_live(incumbent: float, pending: list[tuple]) -> tuple[float, int]:
    """Solve one instance's live patterns; return ``(period, solves)``.

    ``pending`` holds ``(lower bound, bound, u, v, window, durations)``
    per live pattern, in file-then-component order.  Patterns are
    solved largest lower bound first (ties keep that order), and one
    whose bound has fallen strictly below the risen incumbent is
    skipped.
    """
    pending.sort(key=lambda item: -item[0])
    solved = 0
    for _, bound, u, v, window, durations in pending:
        if bound < incumbent:
            continue
        solved += 1
        incumbent = max(incumbent, pattern_ratio(u, v, durations) / window)
    return incumbent, solved


def _overlap_values_many(times: SlotTimes, mapping: Mapping) -> list[float]:
    """:func:`overlap_period_value` of every row of a slot-space group.

    ``times`` gathers instances that share ``mapping``'s replica counts
    (:class:`~repro.petri.builder.SlotTimes`; stage ``i`` owns slots
    ``sum(m[:i]) + r``); any member's mapping will do.  The computation
    columns, the ``(B, p, u, v)`` pattern durations, their bounds and
    the live mask are array passes; only the live patterns' lower
    bounds are computed, and each row's
    live patterns are solved by :func:`_solve_live` in the order the
    per-instance routine uses.  Entry ``b`` is bit-identical to
    ``overlap_period_value`` of row ``b``'s instance, and the telemetry
    counters sum to that routine's.
    """
    B = times.works.shape[0]
    counts = mapping.replication_counts
    starts = np.cumsum((0,) + counts[:-1])
    # w_i over the slowest replica's speed, over m_i: computation_column's
    # divisions, elementwise; the row max is Python's, as in the
    # per-instance routine (same pick among equal values).
    slowest = np.minimum.reduceat(times.speeds, starts, axis=1)
    comp = times.works / slowest / np.asarray(counts, dtype=float)
    incumbents = [max(row) for row in comp.tolist()]
    floor = np.asarray(incumbents)[:, None]
    pending: list[list[tuple]] = [[] for _ in range(B)]
    total = 0
    for i in range(len(counts) - 1):
        p, u, v, window = mapping.comm_structure(i)
        total += p
        rows, cols = _cell_positions(p, u, v)
        # delta_i / b_{s,r} per cell, as file_column divides them.
        d = times.sizes[:, i, None, None, None] / times.bandwidths[
            :, (starts[i] + rows)[:, :, None], (starts[i + 1] + cols)[:, None, :]
        ]
        scale = max(u, v) * _bound_margin(u, v)
        bounds = (scale * d.max(axis=(2, 3)) + _LAWLER_SLACK) / window
        live_b, live_g = np.nonzero(~(bounds < floor))
        if live_b.size:
            lower = (_lower_bounds(d[live_b, live_g]) / window).tolist()
            for row, g, lb, bound in zip(
                live_b.tolist(), live_g.tolist(), lower, bounds[live_b, live_g].tolist()
            ):
                pending[row].append((lb, bound, u, v, window, d[row, g]))
    periods = []
    solved = 0
    for incumbent, live in zip(incumbents, pending):
        period, n = _solve_live(incumbent, live)
        periods.append(period)
        solved += n
    if TELEMETRY.enabled:
        TELEMETRY.count("poly.patterns_solved", solved)
        TELEMETRY.count("poly.patterns_pruned", B * total - solved)
    return periods
