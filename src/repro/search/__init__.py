"""Mapping-space search at scale: the multi-start portfolio subsystem.

The layers below answer the paper's question — the exact period of a
*given* replicated mapping (:mod:`repro.core`, :mod:`repro.petri`,
:mod:`repro.maxplus`) at batch throughput (:mod:`repro.engine`).  This
package sits on top and attacks the NP-hard outer problem of *choosing*
the mapping (Benoit & Robert, JPDC 2008; Benoit, Rehn-Sonigo & Robert,
2007):

* :class:`~repro.search.budget.EvaluationBudget` — the shared
  oracle-call pool that makes heuristics comparable at equal cost;
* :mod:`repro.search.allocator` — pluggable budget-allocation
  strategies over that pool: :class:`~repro.search.allocator.FairShareAllocator`
  (even splits), :class:`~repro.search.allocator.RacingAllocator`
  (successive halving over checkpoint-resumable climbs) and the
  multi-criteria pair
  :class:`~repro.search.allocator.EpsilonConstraintAllocator` /
  :class:`~repro.search.allocator.WeightedScalarizationAllocator`;
* :func:`~repro.search.portfolio.portfolio_search` — diversified
  greedy / random / perturbed-elite restarts of
  :func:`~repro.extensions.mapping_opt.local_search_mapping` over one
  shared :class:`~repro.engine.batch.BatchEngine`, with deterministic
  ``crc32``-keyed seeding and per-restart (and per-rung) traces;
* :func:`~repro.search.pareto.pareto_portfolio_search` — the
  multi-criteria portfolio over the :mod:`repro.objectives` plane:
  scalarized climbs (epsilon-constraint sweeps / simplex-grid weighted
  sums) feeding one deterministic
  :class:`~repro.objectives.ParetoArchive`.

Exposed on the CLI as ``repro-workflow optimize [--allocator racing]``
(multi-criteria via ``--objectives``); see
``benchmarks/bench_portfolio.py`` for the equal-budget three-way
comparison against single-start local search.
"""

from .allocator import (
    BudgetAllocator,
    Climb,
    EpsilonConstraintAllocator,
    FairShareAllocator,
    ParetoAllocator,
    RacingAllocator,
    WeightedScalarizationAllocator,
    resolve_allocator,
)
from .budget import EvaluationBudget
from .pareto import (
    Direction,
    DirectionRecord,
    ParetoPortfolioResult,
    pareto_portfolio_search,
    pareto_seeds,
    scalarization_directions,
)
from .portfolio import (
    PortfolioResult,
    RestartRecord,
    portfolio_search,
    portfolio_seeds,
)

__all__ = [
    "BudgetAllocator",
    "Climb",
    "Direction",
    "DirectionRecord",
    "EpsilonConstraintAllocator",
    "EvaluationBudget",
    "FairShareAllocator",
    "ParetoAllocator",
    "ParetoPortfolioResult",
    "PortfolioResult",
    "RacingAllocator",
    "RestartRecord",
    "WeightedScalarizationAllocator",
    "pareto_portfolio_search",
    "pareto_seeds",
    "portfolio_search",
    "portfolio_seeds",
    "resolve_allocator",
    "scalarization_directions",
]
