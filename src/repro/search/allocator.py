"""Budget allocators: how a portfolio deals its oracle pool to restarts.

:func:`repro.search.portfolio_search` owns *what* a restart is (greedy /
random / perturbed-elite seeds climbing by local search) and exposes two
primitives to this module through a driver object: ``launch`` a restart
under a budget cap, and ``resume`` a paused climb with a fresh grant
(checkpointed climbs — see
:class:`repro.extensions.mapping_opt.SearchCheckpoint`).  A
:class:`BudgetAllocator` decides *when each climb runs and how much it
gets*:

* :class:`FairShareAllocator` — the PR-2 controller: each restart is
  capped at an even split of the remaining pool, under-spent slices
  roll forward.  One pass, no resumes.
* :class:`RacingAllocator` — successive halving: seed every restart
  with a small base slice, rank the paused climbs by incumbent period
  (ties broken by restart index), promote the best ⌈half⌉ with doubled
  slices, and repeat until a single survivor holds the remaining pool.
  A lucky deep basin still gets most of the budget — but only after
  beating the field at every rung, which is exactly where fair-share
  loses to a single lucky deep climb on rugged platforms.
* :class:`EpsilonConstraintAllocator` /
  :class:`WeightedScalarizationAllocator` — the multi-criteria
  strategies behind :func:`repro.search.pareto.pareto_portfolio_search`:
  fair-share budget dealing across deterministic scalarization
  directions (epsilon sweeps / simplex-grid weight vectors).

Both allocators spend from the same
:class:`~repro.search.budget.EvaluationBudget`, so portfolios under
different allocators are comparable at equal oracle cost
(``benchmarks/bench_portfolio.py`` races them on equal budgets).  All
control flow is deterministic: ranking is a stable sort on
``(period, index)``, rung slices are integer arithmetic on the pool's
remaining count, and climbs resume bit-identically from their
checkpoints — so a racing portfolio reproduces across interpreter
invocations.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ClassVar, Protocol

from ..telemetry import TELEMETRY
from .budget import EvaluationBudget

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.mapping import Mapping
    from ..extensions.mapping_opt import SearchCheckpoint

__all__ = [
    "Climb",
    "ClimbDriver",
    "BudgetAllocator",
    "FairShareAllocator",
    "RacingAllocator",
    "ParetoAllocator",
    "EpsilonConstraintAllocator",
    "WeightedScalarizationAllocator",
    "resolve_allocator",
]


@dataclass
class Climb:
    """Running state of one restart, as the allocator sees it.

    The driver mutates a climb on every ``launch``/``resume``:
    ``period``/``trace``/``evaluations`` aggregate across grants, and
    ``rungs`` records the evaluations each grant actually spent — the
    per-rung trace surfaced on
    :class:`~repro.search.portfolio.RestartRecord`.
    """

    index: int
    kind: str
    seed: int
    period: float = float("inf")
    evaluations: int = 0
    trace: tuple[float, ...] = ()
    rungs: tuple[int, ...] = ()
    mapping: "Mapping | None" = None
    checkpoint: "SearchCheckpoint | None" = field(default=None, repr=False)

    @property
    def resumable(self) -> bool:
        """Whether the climb paused mid-slope (vs converged/starved out)."""
        return self.checkpoint is not None


class ClimbDriver(Protocol):
    """What an allocator may do — implemented by ``portfolio_search``.

    ``launch`` may be called with any non-negative index: indexes
    beyond ``n_restarts - 1`` draw fresh children of the same
    deterministic seed tree (racing brackets use them to turn leftover
    budget into extra exploration).
    """

    pool: EvaluationBudget
    n_restarts: int

    def launch(self, index: int, cap: int | None) -> Climb: ...

    def resume(self, climb: Climb, cap: int | None) -> None: ...


class BudgetAllocator(ABC):
    """Strategy dealing one evaluation pool across portfolio restarts."""

    #: Registry key and the value reported on ``PortfolioResult``.
    name: ClassVar[str] = "?"

    @abstractmethod
    def allocate(self, driver: ClimbDriver) -> list[Climb]:
        """Run the whole restart schedule; return climbs in launch order."""


class FairShareAllocator(BudgetAllocator):
    """Even-split slicing (the original inline ``portfolio_search`` loop).

    Restart ``i`` of ``n`` may draw at most ``remaining / (n - i)``
    grants, so one deep climb cannot starve the rest of the schedule;
    slices a restart leaves unspent (early local optimum) roll forward
    into later restarts' shares.  Every climb runs exactly once —
    paused checkpoints are left untouched for the intensify phase.
    """

    name: ClassVar[str] = "fair-share"

    def allocate(self, driver: ClimbDriver) -> list[Climb]:
        climbs: list[Climb] = []
        for index in range(driver.n_restarts):
            if driver.pool.exhausted:
                break
            remaining = driver.pool.remaining
            if remaining is None:
                cap = None
            else:
                cap = max(1, remaining // (driver.n_restarts - index))
            climbs.append(driver.launch(index, cap))
            TELEMETRY.count("search.launches")
        return climbs


@dataclass
class RacingAllocator(BudgetAllocator):
    """Successive halving over truncated, resumable climbs.

    One **bracket**: rung 0 launches ``n`` restarts with a base slice
    ``s``; each following rung keeps the best ``⌈alive / 2⌉`` climbs —
    ranked by incumbent period, ties broken toward the earlier restart
    index — and resumes the survivors' checkpoints with a doubled
    slice.  When one climb remains it is resumed uncapped and holds the
    remaining pool.

    Climbs converge (a local optimum leaves nothing to resume), so a
    bracket usually ends with budget still in the pool; the race then
    **repeats** on the leftover with a fresh bracket of ``n``
    diversified restarts (new children of the same deterministic seed
    tree, restart indexes continuing where the last bracket stopped)
    until the pool cannot fund another bracket.  The portfolio-level
    intensify phase still follows, exactly as under fair-share.

    The base slice reserves roughly ``1/reserve`` of the pool for the
    final survivor: with rung sizes ``n_0 = n, n_1 = ⌈n_0/2⌉, …,
    n_k = 2`` and slice ``s · 2^j`` at rung ``j``, ``s`` is the largest
    integer with ``s · Σ n_j 2^j ≤ remaining / reserve`` (at least 1).

    Parameters
    ----------
    reserve:
        Fraction denominator of the pool withheld from a bracket's
        halving rungs for its final survivor (default 2 — one half).
    """

    reserve: int = 2

    name: ClassVar[str] = "racing"

    @staticmethod
    def rung_sizes(n_restarts: int) -> list[int]:
        """Climbs alive at each halving rung: ``n, ⌈n/2⌉, …, 2``."""
        sizes: list[int] = []
        alive = n_restarts
        while alive > 1:
            sizes.append(alive)
            alive = -(-alive // 2)
        return sizes

    def base_slice(self, remaining: int, n_restarts: int) -> int:
        """The rung-0 slice for a pool with ``remaining`` evaluations."""
        cost = sum(s << j for j, s in enumerate(self.rung_sizes(n_restarts)))
        if cost == 0:
            return remaining
        return max(1, remaining // (max(1, self.reserve) * cost))

    def _race(self, driver: ClimbDriver, bracket: list[Climb], slice_: int) -> None:
        """Halve one bracket down to a survivor that drains the pool."""
        pool = driver.pool
        alive = list(bracket)
        while len(alive) > 1 and not pool.exhausted:
            # Rank by incumbent; a climb that converged inside its slice
            # keeps racing on its final period (resume is then a no-op).
            alive.sort(key=lambda c: (c.period, c.index))
            keep = -(-len(alive) // 2)
            alive = alive[:keep]
            if len(alive) == 1:
                break
            TELEMETRY.count("search.rungs")
            slice_ *= 2
            for climb in alive:
                if pool.exhausted:
                    break
                if climb.resumable:
                    driver.resume(climb, slice_)
        if alive and not pool.exhausted:
            alive.sort(key=lambda c: (c.period, c.index))
            winner = alive[0]
            if winner.resumable:
                # One climb holds whatever the rungs left unspent.
                driver.resume(winner, None)

    def allocate(self, driver: ClimbDriver) -> list[Climb]:
        pool = driver.pool
        n = driver.n_restarts
        if pool.remaining is None or n <= 1:
            # Unlimited pool (or a single restart): nothing to race —
            # every climb runs to convergence, like fair-share.
            unlimited: list[Climb] = []
            for i in range(n):
                if pool.exhausted:
                    break
                unlimited.append(driver.launch(i, None))
                TELEMETRY.count("search.launches")
            return unlimited
        climbs: list[Climb] = []
        next_index = 0
        while not pool.exhausted and pool.remaining >= 2 * n:
            base = self.base_slice(pool.remaining, n)
            TELEMETRY.count("search.brackets")
            bracket: list[Climb] = []
            for _ in range(n):
                if pool.exhausted:
                    break
                bracket.append(driver.launch(next_index, base))
                TELEMETRY.count("search.launches")
                next_index += 1
            climbs.extend(bracket)
            self._race(driver, bracket, base)
        return climbs


class ParetoAllocator(FairShareAllocator):
    """Base of the multi-criteria allocators (fair-share budget dealing).

    A Pareto allocator deals the pool exactly like
    :class:`FairShareAllocator` — an even split of the remaining pool
    per scalarization direction, under-spent slices rolling forward —
    and additionally names the **scalarization strategy** the Pareto
    driver uses to turn restart indexes into search directions
    (:mod:`repro.search.pareto` owns the direction math).  Passing one
    to the period-only :func:`repro.search.portfolio_search` is
    harmless: the strategy is simply unused and the portfolio behaves
    as under fair-share.
    """

    #: Consumed by :func:`repro.search.pareto.scalarization_directions`.
    strategy: ClassVar[str] = "?"


class EpsilonConstraintAllocator(ParetoAllocator):
    """Epsilon-constraint directions: optimize the primary objective
    subject to per-direction bounds on each secondary objective, the
    bounds swept deterministically across the probed objective ranges.
    """

    name: ClassVar[str] = "epsilon-constraint"
    strategy: ClassVar[str] = "epsilon"


class WeightedScalarizationAllocator(ParetoAllocator):
    """Weighted-sum directions: minimize ``w · v`` over range-normalized
    minimization-space vectors, with weight vectors on a deterministic
    simplex grid.
    """

    name: ClassVar[str] = "weighted-sum"
    strategy: ClassVar[str] = "weighted"


#: Registry backing the ``allocator=`` string shorthand (and the CLI
#: ``optimize --allocator`` choices).
ALLOCATORS: dict[str, type[BudgetAllocator]] = {
    FairShareAllocator.name: FairShareAllocator,
    RacingAllocator.name: RacingAllocator,
    EpsilonConstraintAllocator.name: EpsilonConstraintAllocator,
    WeightedScalarizationAllocator.name: WeightedScalarizationAllocator,
}


def resolve_allocator(spec: "str | BudgetAllocator") -> BudgetAllocator:
    """An allocator instance from its registry name (or pass-through).

    >>> resolve_allocator("racing").name
    'racing'
    >>> resolve_allocator("typo")
    Traceback (most recent call last):
        ...
    repro.errors.ValidationError: unknown allocator 'typo' (expected one of: epsilon-constraint, fair-share, racing, weighted-sum)
    """
    if isinstance(spec, BudgetAllocator):
        return spec
    try:
        return ALLOCATORS[spec]()
    except KeyError:
        from ..errors import ValidationError

        raise ValidationError(
            f"unknown allocator {spec!r} (expected one of: "
            f"{', '.join(sorted(ALLOCATORS))})"
        ) from None
