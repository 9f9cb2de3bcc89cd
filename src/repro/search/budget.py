"""Evaluation-budget controller shared by the restarts of a portfolio.

Mapping search is compared at *equal oracle cost*: a heuristic is only
better than another if it reaches a lower period with the same number of
exact-period evaluations.  :class:`EvaluationBudget` is the single
mutable counter every restart of :func:`repro.search.portfolio_search`
draws from — and the hook :func:`repro.extensions.mapping_opt` search
loops check before each oracle call, taking one grant per candidate, so
a restart stops mid-climb the moment the shared pool runs dry instead of
overdrawing it.  Grants are never given back.  Both portfolios hand each
climb a capped slice of the pool (:class:`_BudgetSlice`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

__all__ = ["EvaluationBudget"]


@dataclass
class EvaluationBudget:
    """A finite pool of period-oracle evaluations.

    Parameters
    ----------
    limit:
        Total evaluations the pool may grant; ``None`` means unlimited
        (every ``take`` is granted — useful to reuse budget-aware code
        without a cap).

    Examples
    --------
    >>> budget = EvaluationBudget(3)
    >>> budget.take()
    1
    >>> budget.take(5)      # only 2 grants left
    2
    >>> budget.take()
    0
    >>> budget.spent, budget.remaining, budget.exhausted
    (3, 0, True)
    """

    limit: int | None
    spent: int = field(default=0, init=False)

    def take(self, n: int = 1) -> int:
        """Request ``n`` evaluations; grant (and record) as many as remain."""
        if n < 0:
            raise ValueError(f"cannot take a negative count ({n})")
        granted = n if self.limit is None else min(n, self.limit - self.spent)
        self.spent += granted
        return granted

    def refund(self, n: int) -> None:
        """Return ``n`` unused grants to the pool.

        Deprecated; removed in 4.0.  The mapping climbs take one grant
        per evaluated candidate and never refund.
        """
        warnings.warn(
            "EvaluationBudget.refund is deprecated and will be removed in "
            "4.0: mapping climbs take one grant per candidate and never "
            "refund",
            DeprecationWarning, stacklevel=2,
        )
        if n < 0:
            raise ValueError(f"cannot refund a negative count ({n})")
        if n > self.spent:
            raise ValueError(f"refunding {n} grants but only {self.spent} spent")
        self.spent -= n

    @property
    def remaining(self) -> int | None:
        """Evaluations still available (``None`` when unlimited)."""
        return None if self.limit is None else self.limit - self.spent

    @property
    def exhausted(self) -> bool:
        """Whether the pool has run dry (never true when unlimited)."""
        return self.limit is not None and self.spent >= self.limit


class _BudgetSlice:
    """One climb's capped slice of a shared :class:`EvaluationBudget`.

    Without slicing, the first climb drains the whole pool and the
    "portfolio" degenerates to single-start: the allocator therefore
    caps each grant (an even split for fair-share, a rung slice for
    racing), while still charging the shared pool so under-spent slices
    (an early local optimum) roll forward into later grants.
    """

    def __init__(self, pool: EvaluationBudget, cap: int | None) -> None:
        self._pool = pool
        self._cap = cap
        self._used = 0

    def take(self, n: int = 1) -> int:
        if self._cap is not None:
            n = min(n, self._cap - self._used)
        granted = self._pool.take(n) if n > 0 else 0
        self._used += granted
        return granted
