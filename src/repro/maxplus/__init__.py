"""Max-plus algebra and maximum-cycle-ratio solvers.

Three solver families compute ``lambda* = max_C sum(w)/sum(t)`` over the
cycles of a token graph (:class:`~repro.maxplus.graph.RatioGraph`):

* :mod:`~repro.maxplus.howard` — policy iteration, the default: exact
  value plus an explicit critical cycle.  It is split into a
  structure-only :func:`~repro.maxplus.howard.prepare_howard` phase and
  a weight-only :func:`~repro.maxplus.howard.solve_prepared` phase, so
  batched sweeps sharing one topology reuse a single
  :class:`~repro.maxplus.howard.HowardPlan`; policy improvement is
  vectorized over CSR segments, and every solve starts cold.
* :mod:`~repro.maxplus.karp` / :mod:`~repro.maxplus.lawler` — cycle
  *mean* (all tokens 1) resp. binary-search bracketing; used as
  cross-checks and as the fallback when policy iteration stalls.
* :mod:`~repro.maxplus.algebra` / :mod:`~repro.maxplus.spectral` —
  dense max-plus matrix algebra, eigenvectors and the critical graph.

:func:`~repro.maxplus.cycle_ratio.max_cycle_ratio` is the uniform entry
point; :mod:`repro.engine` drives the prepare/solve split at scale.
"""

from .._lazy import lazy_exports

# Imported on first use (``repro._lazy``): a period solve loads only the
# solver it runs, not the dense algebra or the spectral tools.
__getattr__, __dir__ = lazy_exports(globals(), {
    ".algebra": ("NEG_INF", "matrix_to_graph", "mp_eigenvalue", "mp_eye",
                 "mp_matmul", "mp_matvec", "mp_pow", "mp_star", "mp_zeros"),
    ".cycle_ratio": ("CycleRatioResult", "max_cycle_ratio"),
    ".graph": ("Edge", "RatioGraph"),
    ".howard": ("HowardPlan", "HowardResult", "max_cycle_ratio_howard",
                "prepare_howard", "solve_prepared"),
    ".karp": ("max_cycle_mean", "max_cycle_mean_scc"),
    ".lawler": ("has_positive_cycle", "max_cycle_ratio_lawler"),
    ".spectral": ("CriticalGraph", "critical_graph", "cyclicity",
                  "mp_eigenvector", "potentials"),
})

__all__ = [
    "RatioGraph",
    "Edge",
    "CycleRatioResult",
    "max_cycle_ratio",
    "HowardResult",
    "HowardPlan",
    "prepare_howard",
    "solve_prepared",
    "max_cycle_ratio_howard",
    "max_cycle_mean",
    "max_cycle_mean_scc",
    "max_cycle_ratio_lawler",
    "has_positive_cycle",
    "CriticalGraph",
    "critical_graph",
    "cyclicity",
    "mp_eigenvector",
    "potentials",
    "NEG_INF",
    "mp_zeros",
    "mp_eye",
    "mp_matmul",
    "mp_matvec",
    "mp_pow",
    "mp_star",
    "matrix_to_graph",
    "mp_eigenvalue",
]
