"""Multi-criteria objective plane: period × latency × reliability.

The source paper optimizes the period alone; its companion papers
(Benoit/Rehn-Sonigo/Robert 2007, 2008) treat throughput, latency and
reliability as one joint scheduling problem.  This package is that
plane:

* :mod:`~repro.objectives.reliability` — the replication-aware
  independent-failure model on :class:`~repro.core.platform.Platform`
  failure rates (a stage survives when at least one replica does);
* :mod:`~repro.objectives.base` — objective names/senses,
  :func:`parse_objectives` canonicalization and the
  :class:`EvalResult` generalization of ``PeriodResult``;
* :mod:`~repro.objectives.evaluate` — :class:`ObjectiveEvaluator`,
  computing the extra objectives over a shared
  :class:`~repro.engine.batch.BatchEngine` without perturbing its
  bit-identical period path;
* :mod:`~repro.objectives.pareto` — the deterministic
  :class:`ParetoArchive` the multi-criteria portfolio collects
  non-dominated mappings into;
* :mod:`~repro.objectives.policy` — replication policies spending a
  platform's spare processors on throughput vs reliability (the two
  ends of the Pareto front, used to seed the portfolio's probes).

Engine period results become :class:`EvalResult` values through
:func:`attach_objectives` / :class:`ObjectiveEvaluator`; the plane is
threaded through :func:`repro.search.pareto.pareto_portfolio_search`,
campaign specs (``objectives`` grids) and the CLI (``optimize
--objectives``).
"""

from .._lazy import lazy_exports
from .base import OBJECTIVE_NAMES, OBJECTIVE_SENSES, EvalResult, parse_objectives

# A campaign spec needs only ``base``; the evaluators, archive and
# policies are imported on first use (``repro._lazy``).
__getattr__, __dir__ = lazy_exports(globals(), {
    ".evaluate": ("DEFAULT_LATENCY_DATASETS", "ObjectiveEvaluator",
                  "attach_objectives", "worst_path_latency"),
    ".pareto": ("ParetoArchive", "ParetoEntry", "dominates"),
    ".policy": ("REPLICATION_POLICIES", "replication_policy_mapping"),
    ".reliability": ("instance_reliability", "mapping_reliability",
                     "stage_reliability"),
})

__all__ = [
    "OBJECTIVE_NAMES",
    "OBJECTIVE_SENSES",
    "EvalResult",
    "parse_objectives",
    "DEFAULT_LATENCY_DATASETS",
    "ObjectiveEvaluator",
    "attach_objectives",
    "worst_path_latency",
    "ParetoArchive",
    "ParetoEntry",
    "dominates",
    "REPLICATION_POLICIES",
    "replication_policy_mapping",
    "instance_reliability",
    "mapping_reliability",
    "stage_reliability",
]
