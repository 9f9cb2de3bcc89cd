"""Multi-start mapping-search portfolio (the NP-hard outer problem).

The paper's algorithms answer *"what is the throughput of this
mapping?"*; the question users actually start from is *"which mapping?"*
— NP-hard even without replication (Benoit & Robert, JPDC 2008).  A
single hill climb from one seed gets stuck in the first basin it finds;
a **portfolio** of diversified restarts spends the same evaluation
budget across several basins and keeps the best incumbent:

* restart 0 climbs from the **greedy** constructive solution (a
  platform with fewer processors than stages admits no valid mapping at
  all, and is rejected with a :class:`~repro.errors.ValidationError`
  up front);
* **random** restarts climb from fresh uniform draws;
* **perturbed-elite** restarts kick the incumbent with a few random
  moves (:func:`repro.extensions.mapping_opt.perturb_mapping`) and climb
  from the neighbor — exploitation between the exploration draws;
* a final **intensify** phase resumes the climb from the incumbent with
  whatever budget the allocator left unspent, so a promising basin
  truncated by its slice is still driven to a local optimum.

*How the shared budget is dealt* across the restarts is pluggable
(``allocator=``, :mod:`repro.search.allocator`): ``"fair-share"`` caps
every restart at an even split of the remaining pool (the original
controller), ``"racing"`` runs successive halving — all restarts start
on small slices, the best ⌈half⌉ (by incumbent period, ties to the
earlier index) resume their checkpointed climbs with doubled slices
each rung, and the last survivor drains the pool.

All restarts share one :class:`~repro.engine.batch.BatchEngine`, so a
mapping topology proposed twice — common, neighborhoods overlap heavily
— reuses its TPN skeleton and Howard plan; neighborhood scans route
through the engine's ``evaluate``, which locksteps any
same-topology candidate runs through the batched Howard solver
(:func:`repro.maxplus.howard.solve_prepared_many`).  A shared
:class:`~repro.search.budget.EvaluationBudget` meters every oracle call,
so the portfolio is comparable to any other heuristic at equal cost.

Determinism: restart seeds derive from
``crc32(f"portfolio|{app.name}")`` through a
:class:`numpy.random.SeedSequence` tree — the same stable-digest scheme
as :func:`repro.experiments.runner.family_seeds` — so a portfolio
reproduces across interpreter invocations and worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.application import Application
from ..core.mapping import Mapping
from ..core.models import CommModel
from ..core.platform import Platform
from ..engine import BatchEngine
from ..errors import ValidationError
from ..telemetry import TELEMETRY
from ..utils import canonical_json, spawn_seeds
from ..extensions.mapping_opt import (
    MappingSearchResult,
    _warn_n_jobs_ignored,
    greedy_mapping,
    local_search_mapping,
    perturb_mapping,
)
from .allocator import BudgetAllocator, Climb, resolve_allocator
from .budget import EvaluationBudget, _BudgetSlice

__all__ = [
    "RestartRecord",
    "PortfolioResult",
    "portfolio_seeds",
    "portfolio_search",
]


def _json_period(value: float) -> float | None:
    """``None`` for a starved search's ``inf`` — ``json.dumps`` would
    otherwise emit the non-RFC token ``Infinity`` that strict parsers
    (jq, ``JSON.parse``) reject."""
    return value if np.isfinite(value) else None


@dataclass(frozen=True)
class RestartRecord:
    """Trace of one restart of the portfolio.

    Attributes
    ----------
    index:
        Position in the restart schedule.
    kind:
        Seed strategy: ``"greedy"``, ``"random"`` or
        ``"perturbed-elite"``.
    seed:
        Entropy of the restart's seed sequence (reproducibility key).
    period:
        Best period this restart reached (``inf`` if the budget dried
        up before its first evaluation completed).
    evaluations:
        Oracle calls this restart was granted (summed over its rungs).
    trace:
        Periods of successive accepted solutions (monotone).
    assignments:
        The restart's best mapping.
    rungs:
        Evaluations spent in each budget grant of this restart.  A
        fair-share restart runs in one rung; a racing restart that
        survives ``k`` promotions records ``k + 1`` entries.
    """

    index: int
    kind: str
    seed: int
    period: float
    evaluations: int
    trace: tuple[float, ...]
    assignments: tuple[tuple[int, ...], ...]
    rungs: tuple[int, ...] = ()

    def to_dict(self) -> dict:
        """JSON-ready representation (``period`` is ``None`` if starved)."""
        return {
            "index": self.index,
            "kind": self.kind,
            "seed": self.seed,
            "period": _json_period(self.period),
            "evaluations": self.evaluations,
            "trace": list(self.trace),
            "assignments": [list(s) for s in self.assignments],
            "rungs": list(self.rungs),
        }


@dataclass(frozen=True)
class PortfolioResult:
    """Outcome of a multi-start portfolio search.

    Attributes
    ----------
    mapping:
        Best mapping across all restarts (first achiever on ties).
    period:
        Its exact period.
    evaluations:
        Total oracle calls actually spent (never exceeds ``budget``).
    budget:
        The evaluation allowance the portfolio ran under (``None`` =
        unlimited).
    model:
        Communication model value ("overlap"/"strict").
    restarts:
        Per-restart records, in schedule order.
    allocator:
        Name of the budget allocator that dealt the pool
        (``"fair-share"`` / ``"racing"``).
    """

    mapping: Mapping
    period: float
    evaluations: int
    budget: int | None
    model: str
    restarts: tuple[RestartRecord, ...]
    allocator: str = "fair-share"

    @property
    def best_restart(self) -> RestartRecord | None:
        """The record that produced :attr:`mapping` (first on ties).

        Provenance is matched on the mapping itself: racing rungs
        interleave incumbent updates, so the lowest ``(period, index)``
        record can be a *tied* climb that produced a different mapping —
        records carrying :attr:`mapping`'s assignments take precedence.

        ``None`` when the portfolio was starved before any restart ran
        (``budget=0``) — the same runs whose :attr:`period` is ``inf``.
        """
        if not self.restarts:
            return None
        produced = [r for r in self.restarts
                    if r.assignments == self.mapping.assignments]
        pool = produced or self.restarts
        return min(pool, key=lambda r: (r.period, r.index))

    def to_dict(self) -> dict:
        """JSON-ready representation (see ``portfolio_to_json``).

        Non-finite periods (budget-starved runs) serialize as ``None``
        so the output stays strict RFC 8259 JSON.
        """
        return {
            "model": self.model,
            "allocator": self.allocator,
            "period": _json_period(self.period),
            "evaluations": self.evaluations,
            "budget": self.budget,
            "assignments": [list(s) for s in self.mapping.assignments],
            "restarts": [r.to_dict() for r in self.restarts],
        }

    def to_json(self, indent: int | None = 2) -> str:
        """Serialize to strict JSON text (``allow_nan=False`` enforced).

        Routed through :func:`repro.utils.canonical_json`: sorted keys
        and canonical separators, so equal results are byte-identical
        files under every exporter in the repo.
        """
        return canonical_json(self.to_dict(), indent=indent)


def portfolio_seeds(
    app: Application,
    model: CommModel | str,
    n_restarts: int,
    root_seed: int = 20090302,
) -> list[int]:
    """Deterministic per-restart seed entropies.

    Keyed by ``crc32("portfolio|" + app.name)`` — the same stable-digest
    scheme as :func:`repro.experiments.runner.family_seeds`, immune to
    ``PYTHONHASHSEED`` randomization — plus the model bit, so overlap
    and strict portfolios explore independent seed streams.
    """
    return spawn_seeds(root_seed, f"portfolio|{app.name}",
                       CommModel.parse(model).overlap, n_restarts)


def _restart_kind(index: int, has_elite: bool) -> str:
    """The restart schedule: greedy first, then alternate random/elite."""
    if index == 0:
        return "greedy"
    if has_elite and index % 2 == 0:
        return "perturbed-elite"
    return "random"


class _ClimbDriver:
    """``portfolio_search``'s launch/resume services for allocators.

    Owns the restart semantics (seed streams, greedy/random/elite
    starts, the shared engine) and the incumbent; the allocator only
    decides grant sizes and ordering.  Implements
    :class:`repro.search.allocator.ClimbDriver`.
    """

    def __init__(self, app: Application, plat: Platform, model: CommModel,
                 eng: BatchEngine, pool: EvaluationBudget, root_seed: int,
                 n_restarts: int, max_iters: int, max_paths: int,
                 perturbation_moves: int) -> None:
        self.app = app
        self.plat = plat
        self.model = model
        self.eng = eng
        self.pool = pool
        self.root_seed = root_seed
        self.n_restarts = n_restarts
        self.max_iters = max_iters
        self.max_paths = max_paths
        self.perturbation_moves = perturbation_moves
        self.best_mapping: Mapping | None = None
        self.best_period = float("inf")
        self._children = portfolio_seeds(app, model, n_restarts + 1,
                                         root_seed=root_seed)

    def _seed(self, index: int) -> int:
        """Seed entropy of restart ``index`` (lazily grown seed tree).

        Children ``0 .. n_restarts - 1`` are the scheduled restarts and
        child ``n_restarts`` drives the intensify phase; allocators that
        launch extra restarts (racing brackets) get the children after
        it — ``portfolio_seeds`` is prefix-stable, so growing the tree
        never reshuffles earlier seeds.
        """
        child = index if index < self.n_restarts else index + 1
        if child >= len(self._children):
            self._children = portfolio_seeds(self.app, self.model, child + 1,
                                             root_seed=self.root_seed)
        return self._children[child]

    def _note(self, climb: Climb) -> None:
        """Track the incumbent (first achiever wins ties)."""
        if climb.period < self.best_period and climb.mapping is not None:
            self.best_period = climb.period
            self.best_mapping = climb.mapping

    def launch(self, index: int, cap: int | None) -> Climb:
        """Run restart ``index`` under a budget cap (one rung)."""
        seed = self._seed(index)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        kind = _restart_kind(index, self.best_mapping is not None)
        slice_budget = _BudgetSlice(self.pool, cap)

        extra_evals = 0
        extra_trace: tuple[float, ...] = ()
        if kind == "greedy":
            g = greedy_mapping(self.app, self.plat, self.model,
                               max_paths=self.max_paths, engine=self.eng,
                               budget=slice_budget)
            start = g.mapping if np.isfinite(g.period) else None
            extra_evals, extra_trace = g.evaluations, g.trace
        elif kind == "perturbed-elite":
            start = perturb_mapping(self.best_mapping, rng,
                                    moves=self.perturbation_moves,
                                    n_processors=self.plat.n_processors)
        else:
            start = None  # drawn uniformly inside local_search_mapping

        res: MappingSearchResult = local_search_mapping(
            self.app, self.plat, self.model, rng=rng, start=start,
            max_iters=self.max_iters, max_paths=self.max_paths,
            engine=self.eng, budget=slice_budget,
        )
        climb = Climb(index=index, kind=kind, seed=seed)
        climb.period = min(res.period, *extra_trace) if extra_trace \
            else res.period
        climb.evaluations = extra_evals + res.evaluations
        climb.trace = extra_trace + res.trace
        climb.mapping = res.mapping
        climb.checkpoint = res.checkpoint
        climb.rungs = (climb.evaluations,)
        self._note(climb)
        return climb

    def resume(self, climb: Climb, cap: int | None) -> None:
        """Grant a paused climb another rung from its checkpoint."""
        if climb.checkpoint is None:
            return
        slice_budget = _BudgetSlice(self.pool, cap)
        res = local_search_mapping(
            self.app, self.plat, self.model, checkpoint=climb.checkpoint,
            max_iters=self.max_iters, max_paths=self.max_paths,
            engine=self.eng, budget=slice_budget,
        )
        climb.period = min(climb.period, res.period)
        climb.evaluations += res.evaluations
        climb.trace = climb.trace + res.trace
        climb.mapping = res.mapping
        climb.checkpoint = res.checkpoint
        climb.rungs = climb.rungs + (res.evaluations,)
        self._note(climb)


def portfolio_search(
    app: Application,
    plat: Platform,
    model: CommModel | str = "overlap",
    n_restarts: int = 6,
    budget: int | None = 1500,
    root_seed: int = 20090302,
    max_iters: int = 100,
    max_paths: int = 3000,
    perturbation_moves: int = 2,
    engine: BatchEngine | None = None,
    n_jobs: int | None = None,
    allocator: str | BudgetAllocator = "fair-share",
) -> PortfolioResult:
    """Multi-start local search under a shared evaluation budget.

    Parameters
    ----------
    app, plat:
        The application chain and the platform to map it on.
    model:
        Communication model scoring the candidates.
    n_restarts:
        Diversified restarts to schedule (greedy / random /
        perturbed-elite); later restarts are skipped once the budget is
        exhausted.  Raises
        :class:`~repro.errors.ValidationError` up front when negative or
        when no valid mapping exists (fewer processors than stages).
    budget:
        Total period-oracle evaluations granted across all restarts
        (``None`` = unlimited).  How the pool is dealt is the
        ``allocator``'s business; slices a restart leaves unspent
        (early local optimum) always roll forward.
    root_seed:
        Root entropy of the :func:`portfolio_seeds` tree.
    max_iters:
        Hill-climbing iteration cap per restart.
    max_paths:
        Reject mappings whose ``lcm(m_i)`` exceeds this (same budget as
        :mod:`repro.experiments.runner`).
    perturbation_moves:
        Kick strength of perturbed-elite restarts.
    engine:
        Caller-owned :class:`~repro.engine.batch.BatchEngine` to share
        its topology cache; by default one engine is created for the
        whole portfolio.
    n_jobs:
        Deprecated and ignored; removed in 4.0.  Every climb evaluates
        one candidate at a time on the shared engine.
    allocator:
        Budget-allocation strategy: ``"fair-share"`` (even split, the
        default), ``"racing"`` (successive halving over checkpointed
        climbs), or any :class:`~repro.search.allocator.BudgetAllocator`
        instance.  Equal budget either way — only the spending schedule
        differs.

    Examples
    --------
    >>> from repro import Application, Platform
    >>> app = Application(works=[4.0, 9.0], file_sizes=[1.0], name="doc")
    >>> plat = Platform.homogeneous(3, speed=1.0, bandwidth=10.0)
    >>> res = portfolio_search(app, plat, "overlap", n_restarts=3, budget=60)
    >>> res.period  # S1 replicated on two unit-speed processors
    4.5
    >>> res.evaluations <= 60
    True
    """
    if n_jobs is not None:
        _warn_n_jobs_ignored("portfolio_search")
    model = CommModel.parse(model)
    alloc = resolve_allocator(allocator)
    if n_restarts < 0:
        raise ValidationError(
            f"n_restarts must be non-negative, got {n_restarts}")
    if plat.n_processors < app.n_stages:
        # No valid replicated mapping exists at all (a processor runs at
        # most one stage, every stage needs one) — fail loudly up front.
        raise ValidationError(
            f"no valid mapping: {app.n_stages} stages need at least "
            f"{app.n_stages} processors, platform has {plat.n_processors}"
        )
    eng = engine if engine is not None else BatchEngine(max_rows=max_paths + 1)
    pool = EvaluationBudget(budget)
    # SeedSequence.spawn is prefix-stable, so seeds[:n_restarts] equals
    # portfolio_seeds(..., n_restarts); the extra child drives the final
    # intensify phase.
    final_seed = portfolio_seeds(app, model, n_restarts + 1,
                                 root_seed=root_seed)[-1]

    driver = _ClimbDriver(app, plat, model, eng, pool, root_seed, n_restarts,
                          max_iters, max_paths, perturbation_moves)
    with TELEMETRY.span("portfolio-allocate", allocator=alloc.name,
                        restarts=n_restarts):
        climbs = alloc.allocate(driver)
    restarts = [
        RestartRecord(
            index=c.index,
            kind=c.kind,
            seed=c.seed,
            period=c.period,
            evaluations=c.evaluations,
            trace=c.trace,
            assignments=c.mapping.assignments,
            rungs=c.rungs,
        )
        for c in climbs
    ]
    best_mapping = driver.best_mapping
    best_period = driver.best_period

    if best_mapping is not None and not pool.exhausted and np.isfinite(best_period):
        # Intensify: resume from the incumbent with the leftover budget
        # (uncapped — exploration is over, certify/deepen the best basin).
        rng = np.random.default_rng(np.random.SeedSequence(final_seed))
        with TELEMETRY.span("portfolio-intensify"):
            res = local_search_mapping(
                app, plat, model, rng=rng, start=best_mapping,
                max_iters=max_iters, max_paths=max_paths, engine=eng,
                budget=pool,
            )
        # The next unused index: racing brackets may have launched extra
        # restarts past n_restarts, and record indexes must stay unique.
        intensify_index = max(
            [n_restarts] + [c.index + 1 for c in climbs])
        restarts.append(RestartRecord(
            index=intensify_index,
            kind="intensify",
            seed=final_seed,
            period=res.period,
            evaluations=res.evaluations,
            trace=res.trace,
            assignments=res.mapping.assignments,
            rungs=(res.evaluations,),
        ))
        if res.period < best_period:
            best_period = res.period
            best_mapping = res.mapping

    if best_mapping is None:
        # Zero budget (or every restart starved before its first oracle
        # call): fall back to a deterministic valid mapping so callers
        # always get *a* mapping, flagged by the infinite period.
        fallback = restarts[-1].assignments if restarts else tuple(
            (u,) for u in range(app.n_stages))
        best_mapping = Mapping(fallback, n_processors=plat.n_processors)

    if TELEMETRY.enabled:
        TELEMETRY.count("search.portfolios")
        TELEMETRY.count("search.restarts", len(restarts))
        TELEMETRY.count("search.evaluations", pool.spent)

    return PortfolioResult(
        mapping=best_mapping,
        period=best_period,
        evaluations=pool.spent,
        budget=budget,
        model=model.value,
        restarts=tuple(restarts),
        allocator=alloc.name,
    )
