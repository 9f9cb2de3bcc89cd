"""Pareto-archive portfolio: multi-criteria mapping search.

:func:`pareto_portfolio_search` generalizes
:func:`repro.search.portfolio_search` from the period alone to the
(period, latency, reliability) plane of :mod:`repro.objectives`.  The
shape is the same — diversified restarts dealt a shared evaluation pool
by a :class:`~repro.search.allocator.BudgetAllocator` — but each restart
is now a **scalarization direction**: a deterministic reduction of the
objective vector to one comparable score, climbed by first-improvement
local search over the same swap/move/rotate neighborhoods as the
period-only search.  Two direction families exist, selected by the
allocator (:class:`~repro.search.allocator.EpsilonConstraintAllocator`
/ :class:`~repro.search.allocator.WeightedScalarizationAllocator`):

* **epsilon-constraint** — optimize the primary objective (the first in
  canonical order, i.e. the period when present) subject to a bound on
  one secondary objective, the bounds swept across the probed objective
  ranges; scores compare as ``(constraint violation, primary value)``
  tuples, so feasibility always beats optimality.
* **weighted-sum** — minimize ``w · v`` over range-normalized
  minimization-space vectors, weight vectors on a deterministic simplex
  grid.

Every evaluated mapping — probes, climb starts, every neighborhood
candidate the scan reaches — is offered to one shared
:class:`~repro.objectives.ParetoArchive` in direction-major order.
Each direction climbs through the same first-improvement scan as
:func:`repro.extensions.mapping_opt.local_search_mapping`, with the
direction's score in place of the period: one candidate is charged,
evaluated and offered at a time, so the archive contents are a pure
function of the inputs.

Determinism inventory: probe mappings are the two
:func:`repro.objectives.replication_policy_mapping` policies plus
seeded random draws; objective ranges come from the probe vectors; the
direction schedule is integer arithmetic on those ranges; restart seeds
derive from ``crc32("pareto|" + app.name)`` through a
:class:`numpy.random.SeedSequence` tree (prefix-stable, the
:func:`repro.search.portfolio.portfolio_seeds` scheme).  No wall clock,
no ``hash()``, no dict-order dependence anywhere.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from math import comb
from typing import Any

import numpy as np

from ..core.application import Application
from ..core.instance import Instance
from ..core.mapping import Mapping
from ..core.models import CommModel
from ..core.platform import Platform
from ..core.throughput import PeriodResult
from ..engine import BatchEngine
from ..errors import ValidationError
from ..extensions.mapping_opt import (
    _Climb,
    _climb,
    _warn_n_jobs_ignored,
    random_mapping,
)
from ..objectives import (
    DEFAULT_LATENCY_DATASETS,
    REPLICATION_POLICIES,
    EvalResult,
    ParetoArchive,
    ParetoEntry,
    attach_objectives,
    parse_objectives,
    replication_policy_mapping,
)
from ..objectives.evaluate import ObjectiveEvaluator
from ..telemetry import TELEMETRY
from ..utils import canonical_json, spawn_seeds
from .allocator import (
    BudgetAllocator,
    Climb,
    ParetoAllocator,
    resolve_allocator,
)
from .budget import EvaluationBudget, _BudgetSlice

__all__ = [
    "Direction",
    "DirectionRecord",
    "ParetoPortfolioResult",
    "pareto_seeds",
    "scalarization_directions",
    "pareto_portfolio_search",
]

#: Score of an unevaluated / infeasible candidate (compares worst).
_INF_SCORE = (float("inf"), float("inf"))


def _normalized(value: float, lo: float, hi: float) -> float:
    """``value`` mapped into the probed range (0 when the range is flat)."""
    if hi > lo:
        return (value - lo) / (hi - lo)
    return 0.0


@dataclass(frozen=True)
class Direction:
    """One scalarization direction of the multi-criteria portfolio.

    A direction reduces a minimization-space objective vector to a
    totally ordered score tuple ``(violation, value)``:

    * weighted directions have no constraints (``violation = 0``) and
      ``value = w · normalized(v)``;
    * epsilon directions sum the range-normalized excess over each
      ``(objective index, bound)`` pair into ``violation`` and use the
      primary objective as ``value`` — lexicographic comparison, so
      restoring feasibility always dominates improving the primary.

    ``lo``/``hi`` are the probed per-objective ranges the normalization
    uses; they are baked into the direction so scoring is a pure
    function of the vector.
    """

    index: int
    kind: str
    label: str
    weights: tuple[float, ...] = ()
    primary: int = 0
    bounds: tuple[tuple[int, float], ...] = ()
    lo: tuple[float, ...] = ()
    hi: tuple[float, ...] = ()

    def score(self, vector: Sequence[float]) -> tuple[float, float]:
        """The direction's score of one minimization-space vector."""
        if self.kind == "weighted":
            total = 0.0
            for k, weight in enumerate(self.weights):
                total += weight * _normalized(
                    float(vector[k]), self.lo[k], self.hi[k]
                )
            return (0.0, total)
        violation = 0.0
        for j, bound in self.bounds:
            value = float(vector[j])
            if value > bound:
                span = self.hi[j] - self.lo[j]
                violation += (value - bound) / span if span > 0.0 else 1.0
        return (violation, float(vector[self.primary]))


@dataclass(frozen=True)
class DirectionRecord:
    """Trace of one scalarized climb, in schedule order.

    ``best_vector`` is the minimization-space vector of the climb's
    incumbent (``None`` when the climb starved before its first
    evaluation); ``accepted`` counts accepted moves including the start
    evaluation.
    """

    index: int
    kind: str
    label: str
    seed: int
    evaluations: int
    accepted: int
    best_vector: tuple[float, ...] | None
    assignments: tuple[tuple[int, ...], ...]

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation."""
        return {
            "index": self.index,
            "kind": self.kind,
            "label": self.label,
            "seed": self.seed,
            "evaluations": self.evaluations,
            "accepted": self.accepted,
            "best_vector": None
            if self.best_vector is None
            else list(self.best_vector),
            "assignments": [list(s) for s in self.assignments],
        }


@dataclass(frozen=True)
class ParetoPortfolioResult:
    """Outcome of a multi-criteria portfolio search.

    Attributes
    ----------
    objectives:
        Canonical objective tuple the run optimized.
    model:
        Communication model value ("overlap"/"strict").
    allocator:
        Registry name of the Pareto allocator that dealt the pool.
    budget:
        The evaluation allowance (``None`` = unlimited).
    evaluations:
        Oracle calls actually spent (never exceeds ``budget``).
    archive:
        The shared :class:`~repro.objectives.ParetoArchive` — its
        :meth:`~repro.objectives.ParetoArchive.front` is the result.
    records:
        Per-direction climb records, in schedule order.
    directions:
        Direction labels, in schedule order.
    """

    objectives: tuple[str, ...]
    model: str
    allocator: str
    budget: int | None
    evaluations: int
    archive: ParetoArchive
    records: tuple[DirectionRecord, ...]
    directions: tuple[str, ...]

    def front(self) -> list[ParetoEntry]:
        """The non-dominated entries in deterministic export order."""
        return self.archive.front()

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (front in deterministic order)."""
        return {
            "objectives": list(self.objectives),
            "model": self.model,
            "allocator": self.allocator,
            "budget": self.budget,
            "evaluations": self.evaluations,
            "directions": list(self.directions),
            "records": [r.to_dict() for r in self.records],
            "front": [e.to_dict() for e in self.archive.front()],
        }

    def to_json(self, indent: int | None = 2) -> str:
        """Canonical-JSON text of :meth:`to_dict` (byte-deterministic)."""
        return canonical_json(self.to_dict(), indent=indent)


def pareto_seeds(
    app: Application,
    model: CommModel | str,
    n: int,
    root_seed: int = 20090302,
) -> list[int]:
    """Deterministic seed entropies of the multi-criteria portfolio.

    Child 0 drives the probe phase, children ``1 .. n - 1`` the
    scalarized climbs.  Keyed by ``crc32("pareto|" + app.name)`` plus
    the model bit — the :func:`repro.search.portfolio.portfolio_seeds`
    scheme on an independent stream (prefix-stable: growing ``n`` never
    reshuffles earlier seeds).
    """
    return spawn_seeds(root_seed, f"pareto|{app.name}",
                       CommModel.parse(model).overlap, n)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All ordered compositions of ``total`` into ``parts`` non-negative
    integers, in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head, *rest)


def _weight_grid(m: int, n_directions: int) -> list[tuple[float, ...]]:
    """``n_directions`` weight vectors on the smallest simplex grid that
    holds them, picked at evenly spaced lexicographic positions."""
    if m == 1:
        return [(1.0,)] * n_directions
    granularity = 1
    while comb(granularity + m - 1, m - 1) < n_directions:
        granularity += 1
    grid = list(_compositions(granularity, m))
    count = len(grid)
    if n_directions == 1:
        picks = [count // 2]
    else:
        picks = [
            i * (count - 1) // (n_directions - 1) for i in range(n_directions)
        ]
    return [
        tuple(part / granularity for part in grid[pick]) for pick in picks
    ]


def scalarization_directions(
    strategy: str,
    objectives: Sequence[str] | str,
    n_directions: int,
    lo: Sequence[float],
    hi: Sequence[float],
) -> list[Direction]:
    """The deterministic direction schedule of one Pareto portfolio.

    ``strategy`` is an allocator's
    :attr:`~repro.search.allocator.ParetoAllocator.strategy`
    (``"epsilon"`` / ``"weighted"``); ``lo``/``hi`` are the probed
    per-objective ranges in minimization space.  Pure integer/float
    arithmetic — the schedule is a function of its arguments only.

    >>> dirs = scalarization_directions(
    ...     "weighted", ("period", "latency"), 3, (0.0, 0.0), (1.0, 1.0))
    >>> [d.weights for d in dirs]
    [(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)]
    >>> dirs = scalarization_directions(
    ...     "epsilon", ("period", "latency"), 2, (10.0, 4.0), (20.0, 8.0))
    >>> [d.label for d in dirs]
    ['epsilon:latency<=5.33333', 'epsilon:latency<=6.66667']
    """
    names = parse_objectives(objectives)
    if n_directions < 1:
        raise ValidationError("n_directions must be at least 1")
    lo_t = tuple(float(x) for x in lo)
    hi_t = tuple(float(x) for x in hi)
    if len(lo_t) != len(names) or len(hi_t) != len(names):
        raise ValidationError("lo/hi must have one bound per objective")
    directions: list[Direction] = []
    if strategy == "weighted":
        for index, weights in enumerate(_weight_grid(len(names), n_directions)):
            label = "weighted:" + "/".join(f"{w:.3f}" for w in weights)
            directions.append(
                Direction(
                    index=index,
                    kind="weighted",
                    label=label,
                    weights=weights,
                    lo=lo_t,
                    hi=hi_t,
                )
            )
        return directions
    if strategy != "epsilon":
        raise ValidationError(
            f"unknown scalarization strategy {strategy!r} "
            "(expected epsilon/weighted)"
        )
    others = list(range(1, len(names)))
    if not others:
        return [
            Direction(
                index=index,
                kind="epsilon",
                label=f"epsilon:{names[0]}",
                primary=0,
                lo=lo_t,
                hi=hi_t,
            )
            for index in range(n_directions)
        ]
    counts = [
        n_directions // len(others) + (1 if t < n_directions % len(others) else 0)
        for t in range(len(others))
    ]
    # Interleave the constrained objectives so a truncated schedule
    # still covers every secondary objective early.
    index = 0
    for level in range(max(counts)):
        for t, j in enumerate(others):
            if level >= counts[t]:
                continue
            frac = (level + 1) / (counts[t] + 1)
            bound = lo_t[j] + (hi_t[j] - lo_t[j]) * frac
            directions.append(
                Direction(
                    index=index,
                    kind="epsilon",
                    label=f"epsilon:{names[j]}<={bound:.6g}",
                    primary=0,
                    bounds=((j, bound),),
                    lo=lo_t,
                    hi=hi_t,
                )
            )
            index += 1
    return directions


class _ParetoDriver:
    """Launch/resume services for the Pareto portfolio's allocator.

    Implements :class:`repro.search.allocator.ClimbDriver`: ``launch``
    runs one scalarized climb under a budget cap through the shared
    first-improvement scan of :mod:`repro.extensions.mapping_opt` and
    offers every serially reached evaluation to the shared archive;
    multi-criteria climbs do not checkpoint, so ``resume`` is a no-op
    (fair-share dealing never resumes anyway).
    """

    def __init__(
        self,
        app: Application,
        plat: Platform,
        model: CommModel,
        evaluator: ObjectiveEvaluator,
        archive: ParetoArchive,
        pool: EvaluationBudget,
        directions: Sequence[Direction],
        root_seed: int,
        n_restarts: int,
        max_iters: int,
        max_paths: int,
    ) -> None:
        self.app = app
        self.plat = plat
        self.model = model
        self.evaluator = evaluator
        self.archive = archive
        self.pool = pool
        self.directions = list(directions)
        self.root_seed = root_seed
        self.n_restarts = n_restarts
        self.max_iters = max_iters
        self.max_paths = max_paths
        self.records: list[DirectionRecord] = []
        self._seeds = pareto_seeds(
            app, model, n_restarts + 1, root_seed=root_seed
        )

    def _seed(self, index: int) -> int:
        """Seed entropy of climb ``index`` (child 0 is the probe phase)."""
        child = index + 1
        if child >= len(self._seeds):
            self._seeds = pareto_seeds(
                self.app, self.model, child + 1, root_seed=self.root_seed
            )
        return self._seeds[child]

    def _start_mapping(
        self, direction: Direction, rng: np.random.Generator
    ) -> Mapping:
        """The direction's climb start: the archive entry scoring best
        under the direction (deterministic front order), or a seeded
        random draw when the archive is still empty."""
        front = self.archive.front()
        if front:
            best = min(
                enumerate(front),
                key=lambda item: (direction.score(item[1].vector), item[0]),
            )[1]
            return Mapping(
                best.assignments, n_processors=self.plat.n_processors
            )
        return random_mapping(self.app, self.plat, rng, self.max_paths)

    def launch(self, index: int, cap: int | None) -> Climb:
        """Run one scalarized climb under a budget cap."""
        direction = self.directions[index % len(self.directions)]
        seed = self._seed(index)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        climb = Climb(index=index, kind=direction.kind, seed=seed)

        def score(
            inst: Instance, period_result: PeriodResult
        ) -> tuple[tuple[float, float], EvalResult]:
            # Latency and reliability attach as each candidate is
            # reached, so the archive offers follow the scan order.
            result = attach_objectives(
                inst,
                period_result,
                self.evaluator.objectives,
                latency_mode=self.evaluator.latency_mode,
                latency_datasets=self.evaluator.latency_datasets,
            )
            self.archive.add(result, inst.mapping.assignments, source=direction.label)
            return direction.score(result.vector()), result

        state = _Climb(
            mapping=self._start_mapping(direction, rng),
            best=(_INF_SCORE, None),
            rng=rng,
        )
        _climb(
            state,
            self.app,
            self.plat,
            self.model,
            score=score,
            better=lambda new, best: new[0] < best[0],
            engine=self.evaluator.engine,
            max_iters=self.max_iters,
            max_paths=self.max_paths,
            budget=_BudgetSlice(self.pool, cap),
        )
        # An infeasible start enters the trace unscored.
        accepted = [r for _, r in state.trace if r is not None]
        best_result = state.best[1]
        climb.period = (
            float(best_result.vector()[0])
            if best_result is not None
            else float("inf")
        )
        climb.evaluations = state.evaluations
        climb.trace = tuple(float(r.vector()[0]) for r in accepted)
        climb.mapping = state.mapping
        climb.rungs = (state.evaluations,)
        self.records.append(
            DirectionRecord(
                index=index,
                kind=direction.kind,
                label=direction.label,
                seed=seed,
                evaluations=state.evaluations,
                accepted=len(accepted),
                best_vector=None
                if best_result is None
                else best_result.vector(),
                assignments=state.mapping.assignments,
            )
        )
        return climb

    def resume(self, climb: Climb, cap: int | None) -> None:
        """Multi-criteria climbs do not checkpoint — nothing to resume."""
        return


def pareto_portfolio_search(
    app: Application,
    plat: Platform,
    model: CommModel | str = "overlap",
    objectives: Sequence[str] | str = ("period", "latency"),
    n_restarts: int = 6,
    budget: int | None = 1500,
    root_seed: int = 20090302,
    max_iters: int = 100,
    max_paths: int = 3000,
    n_probes: int = 6,
    engine: BatchEngine | None = None,
    n_jobs: int | None = None,
    allocator: str | BudgetAllocator = "epsilon-constraint",
    latency_mode: str = "bound",
    latency_datasets: int = DEFAULT_LATENCY_DATASETS,
) -> ParetoPortfolioResult:
    """Multi-criteria portfolio search into a shared Pareto archive.

    The run has two deterministic phases charged to one shared
    evaluation pool:

    1. **Probe** — the two replication-policy mappings
       (:func:`repro.objectives.replication_policy_mapping`, one per
       end of the throughput/reliability trade-off) plus seeded random
       draws, up to ``n_probes``; their objective vectors set the
       per-objective ranges the direction schedule normalizes against.
    2. **Climb** — ``n_restarts`` scalarization directions (the
       allocator's strategy: epsilon sweeps or simplex-grid weights),
       each a first-improvement local search from the archive's best
       point under that direction, dealt even budget slices.

    Every evaluation the climbs reach is offered to the archive in
    direction-major order.  ``n_jobs`` is deprecated and ignored
    (removed in 4.0).

    Parameters mirror :func:`repro.search.portfolio_search`; the
    additions are ``objectives`` (see
    :func:`repro.objectives.parse_objectives`), ``n_probes``,
    ``latency_mode``/``latency_datasets`` (see
    :class:`repro.objectives.ObjectiveEvaluator`) and the default
    ``allocator`` (``"epsilon-constraint"``; ``"weighted-sum"`` is the
    other multi-criteria strategy — plain period-only allocators are
    rejected here).

    Examples
    --------
    >>> from repro import Application, Platform
    >>> app = Application(works=[4.0, 9.0], file_sizes=[1.0], name="doc")
    >>> plat = Platform.homogeneous(3, speed=1.0, bandwidth=10.0)
    >>> res = pareto_portfolio_search(app, plat, "overlap",
    ...                               objectives="period,latency",
    ...                               n_restarts=2, budget=80)
    >>> res.objectives
    ('period', 'latency')
    >>> len(res.front()) >= 1
    True
    >>> res.evaluations <= 80
    True
    """
    if n_jobs is not None:
        _warn_n_jobs_ignored("pareto_portfolio_search")
    model = CommModel.parse(model)
    names = parse_objectives(objectives)
    alloc = resolve_allocator(allocator)
    if not isinstance(alloc, ParetoAllocator):
        raise ValidationError(
            f"pareto_portfolio_search needs a Pareto allocator "
            f"(epsilon-constraint / weighted-sum), got {alloc.name!r}"
        )
    if plat.n_processors < app.n_stages:
        raise ValidationError(
            f"no valid mapping: {app.n_stages} stages need at least "
            f"{app.n_stages} processors, platform has {plat.n_processors}"
        )
    eng = engine if engine is not None else BatchEngine(max_rows=max_paths + 1)
    evaluator = ObjectiveEvaluator(
        engine=eng,
        objectives=names,
        latency_mode=latency_mode,
        latency_datasets=latency_datasets,
    )
    archive = ParetoArchive(names)
    pool = EvaluationBudget(budget)

    # Phase 1: probes — policy mappings first, seeded random fill.
    probe_seed = pareto_seeds(app, model, 1, root_seed=root_seed)[0]
    probe_rng = np.random.default_rng(np.random.SeedSequence(probe_seed))
    probes: list[Mapping] = [
        replication_policy_mapping(app, plat, policy, max_paths=max_paths)
        for policy in REPLICATION_POLICIES
    ]
    while len(probes) < n_probes:
        probes.append(random_mapping(app, plat, probe_rng, max_paths))
    vectors: list[tuple[float, ...]] = []
    with TELEMETRY.span("pareto-probe", probes=len(probes)):
        for probe in probes[:n_probes]:
            if pool.take(1) == 0:
                break
            if probe.num_paths > max_paths:
                continue
            result = evaluator.evaluate(
                Instance(app, plat, probe), model
            )
            archive.add(result, probe.assignments, source="probe")
            vectors.append(result.vector())
    if vectors:
        lo = tuple(min(v[k] for v in vectors) for k in range(len(names)))
        hi = tuple(max(v[k] for v in vectors) for k in range(len(names)))
    else:
        lo = hi = (0.0,) * len(names)

    # Phase 2: scalarized climbs dealt by the allocator.
    directions = scalarization_directions(
        alloc.strategy, names, n_restarts, lo, hi
    )
    driver = _ParetoDriver(
        app,
        plat,
        model,
        evaluator,
        archive,
        pool,
        directions,
        root_seed,
        n_restarts,
        max_iters,
        max_paths,
    )
    with TELEMETRY.span(
        "pareto-allocate", allocator=alloc.name, restarts=n_restarts
    ):
        alloc.allocate(driver)

    if TELEMETRY.enabled:
        TELEMETRY.count("search.pareto_portfolios")
        TELEMETRY.count("search.restarts", len(driver.records))
        TELEMETRY.count("search.evaluations", pool.spent)

    return ParetoPortfolioResult(
        objectives=names,
        model=model.value,
        allocator=alloc.name,
        budget=budget,
        evaluations=pool.spent,
        archive=archive,
        records=tuple(driver.records),
        directions=tuple(d.label for d in directions),
    )
