"""Top-level period / throughput API.

:func:`compute_period` is the main entry point of the library: given a
mapped instance and a communication model it returns the exact steady-
state period (and hence throughput) together with the lower bound
``M_ct`` and the critical-resource verdict.

Method selection:

* ``"auto"`` — Theorem 1's polynomial algorithm for OVERLAP ONE-PORT,
  full-TPN critical-cycle analysis for STRICT ONE-PORT;
* ``"polynomial"`` — force the Theorem 1 path (OVERLAP only);
* ``"tpn"`` — force the full timed-Petri-net computation (both models);
* ``"simulation"`` — estimate by discrete-event simulation (approximate;
  useful as an independent cross-check).

Sweeps: evaluating thousands of ``(instance, model)`` pairs one
``compute_period`` call at a time rebuilds the TPN and the solver's
structural phases from scratch each call.  Use
:func:`repro.engine.evaluate` (bit-identical results) to amortize
that work across instances sharing a mapping topology and to shard the
batch over worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..algorithms.bounds import classify_critical_resource
from ..algorithms.general_tpn import TpnSolution, tpn_period
from ..algorithms.overlap_poly import OverlapBreakdown, overlap_period
from ..errors import ValidationError
from ..petri.builder import DEFAULT_MAX_ROWS, build_tpn
from .instance import Instance
from .models import CommModel

__all__ = ["PeriodResult", "compute_period", "compute_throughput"]


@dataclass(frozen=True)
class PeriodResult:
    """Outcome of a period computation.

    Attributes
    ----------
    period:
        Steady-state per-data-set period ``P`` (time between consecutive
        data-set completions).
    throughput:
        ``1 / P`` — data sets per time unit.
    model:
        Communication model used.
    method:
        Which algorithm produced the value
        (``"polynomial"``, ``"tpn"``, ``"simulation"``).
    m:
        Number of round-robin paths ``lcm(m_i)`` (Proposition 1).
    mct:
        The cycle-time lower bound ``M_ct``.
    has_critical_resource:
        ``True`` when ``P = M_ct``; ``False`` flags the paper's
        interesting case where every resource idles.
    breakdown:
        Column decomposition (polynomial method only).
    tpn_solution:
        Full-TPN solution with the critical cycle (tpn method only).
    """

    period: float
    throughput: float
    model: CommModel
    method: str
    m: int
    mct: float
    has_critical_resource: bool
    breakdown: OverlapBreakdown | None = None
    tpn_solution: TpnSolution | None = None

    @property
    def relative_gap(self) -> float:
        """``(P - M_ct) / M_ct`` — 0 when a critical resource exists."""
        return (self.period - self.mct) / self.mct if self.mct > 0 else 0.0

    def summary(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"model              : {self.model.value}",
            f"method             : {self.method}",
            f"paths (m)          : {self.m}",
            f"period P           : {self.period:g}",
            f"throughput 1/P     : {self.throughput:g}",
            f"cycle-time bound   : {self.mct:g}",
            f"critical resource  : "
            + ("yes (P = Mct)" if self.has_critical_resource
               else f"NO — every resource idles (gap {100 * self.relative_gap:.2f}%)"),
        ]
        return "\n".join(lines)


def compute_period(
    inst: Instance,
    model: CommModel | str,
    method: str = "auto",
    max_rows: int | None = DEFAULT_MAX_ROWS,
    n_firings: int | None = None,
) -> PeriodResult:
    """Exact (or simulated) steady-state period of a mapped workflow.

    Parameters
    ----------
    inst:
        The validated instance (application + platform + mapping).
    model:
        ``"overlap"`` or ``"strict"`` (or a :class:`CommModel`).
    method:
        ``"auto"`` / ``"polynomial"`` / ``"tpn"`` / ``"simulation"``.
    max_rows:
        Row budget for methods that build the full net.
    n_firings:
        Simulation horizon (``"simulation"`` method only).

    Examples
    --------
    >>> from repro.experiments.examples_paper import example_a
    >>> compute_period(example_a(), "overlap").period
    189.0
    >>> round(compute_period(example_a(), "strict").period, 2)
    230.67
    """
    model = CommModel.parse(model)
    if method == "auto":
        method = "polynomial" if model.overlap else "tpn"

    breakdown: OverlapBreakdown | None = None
    solution: TpnSolution | None = None
    if method == "polynomial":
        if not model.overlap:
            raise ValidationError(
                "the polynomial algorithm (Theorem 1) only applies to the "
                "OVERLAP ONE-PORT model; use method='tpn' for STRICT"
            )
        breakdown = overlap_period(inst)
        period = breakdown.period
    elif method == "tpn":
        solution = tpn_period(inst, model, max_rows=max_rows)
        period = solution.period
    elif method == "simulation":
        from ..simulation.steady_state import estimate_period

        net = build_tpn(inst, model, max_rows=max_rows)
        period = estimate_period(net, n_firings=n_firings).period
    else:
        raise ValidationError(
            f"unknown method {method!r}; expected auto/polynomial/tpn/simulation"
        )

    verdict = classify_critical_resource(inst, model, period)
    return PeriodResult(
        period=period,
        throughput=1.0 / period if period > 0 else float("inf"),
        model=model,
        method=method,
        m=inst.num_paths,
        mct=verdict.mct,
        has_critical_resource=verdict.has_critical_resource,
        breakdown=breakdown,
        tpn_solution=solution,
    )


def compute_throughput(
    inst: Instance,
    model: CommModel | str,
    method: str = "auto",
    max_rows: int | None = DEFAULT_MAX_ROWS,
) -> float:
    """Steady-state throughput ``rho = 1 / P`` (data sets per time unit)."""
    return compute_period(inst, model, method=method, max_rows=max_rows).throughput
