"""Batch evaluation: skeleton cache, group lockstep solves, sharding.

:class:`BatchEngine` is the per-process cache of
:class:`~repro.engine.skeleton.TpnSkeleton` objects keyed by
:func:`~repro.engine.signature.topology_signature` — the model and the
replica counts, so relabelled mappings share one entry.  Its
:meth:`~BatchEngine.evaluate` is the engine's one entry point: a single
instance takes the scalar cache path and returns one result, a sequence
returns a list aligned with the input.  :func:`evaluate` is the
module-level entry point that shards large batches across worker
processes; it always returns a list.

**Group evaluation** is the hot path: consecutive pairs that share a
topology signature and a resolved method are evaluated as one slab.
TPN-method runs are stamped into one ``(B, E)`` weight matrix and
solved in lockstep by :func:`repro.maxplus.howard.solve_prepared_many`;
polynomial-method runs go through one Theorem-1 array pass
(:func:`repro.algorithms.overlap_poly._overlap_values_many`).  Both
read one slot-space gather, which also feeds the batched
classification.  It kicks in for runs of at least
:data:`MIN_GROUP_ROWS` same-signature pairs and slabs huge groups at
:data:`MAX_GROUP_ROWS` rows to bound the array footprint.  Group
results are bit-identical to per-pair evaluation.

Sharding is deterministic: the input order is cut into contiguous
chunks of ``chunk_size`` pairs, which a ``ProcessPoolExecutor`` maps in
order; results come back in submission order.  Contiguous chunks
deliberately preserve the caller's grouping — a sweep that emits
instances topology-by-topology gets near-perfect skeleton cache hit
rates *and* full-chunk lockstep groups inside every worker.  Each
worker process keeps one long-lived :class:`BatchEngine`, so the cache
survives across chunks of the same batch (and across batches, for
repeated calls inside one worker lifetime).  A caller-owned
``engine=`` evaluates every pair that stays in the calling process (a
serial call, or a batch too small to shard); sharded chunks run on the
worker engines, built with the caller engine's ``max_rows``.

Every evaluation is a pure function of ``(instance, model, method)``:
Howard starts cold on every solve, so results are bit-identical
whatever ``n_jobs``, ``chunk_size`` or the evaluation history.  Cache
and solve counts are telemetry counters (``engine.cache_hits``,
``engine.skeleton_builds``, ``engine.points``, ``engine.group_solves``,
``engine.group_rows``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence, overload

import numpy as np

from ..algorithms.general_tpn import TpnSolution
from ..algorithms.overlap_poly import overlap_period  # noqa: F401 - perfbench/layers.py wraps this name
from ..algorithms.overlap_poly import _overlap_values_many, overlap_period_value
from ..core.instance import Instance
from ..core.models import CommModel
from ..core.throughput import PeriodResult, compute_period
from ..errors import ValidationError
from ..faults import FAULTS
from ..petri.builder import DEFAULT_MAX_ROWS, SlotTimes
from ..telemetry import TELEMETRY
from .classify import CycleTimePlan, build_cycle_time_plan
from .signature import Signature, topology_signature
from .skeleton import TpnSkeleton, build_skeleton

__all__ = [
    "BatchEngine",
    "evaluate",
    "MIN_GROUP_ROWS",
    "MAX_GROUP_ROWS",
]

#: Below this many pairs a process pool costs more than it saves;
#: :func:`evaluate` keeps the batch in-process (on the caller's engine
#: when one is passed).
_MIN_PARALLEL_BATCH = 4

#: Smallest same-signature run routed through the lockstep group solver;
#: a single pair goes through the scalar path (identical results, no
#: batch setup cost).
MIN_GROUP_ROWS = 2

#: Largest number of rows stamped into one lockstep solve (or gathered
#: into one Theorem-1 pass).  Bounds the ``(B, E)`` weight matrix;
#: longer runs are solved in consecutive slabs of this size.
MAX_GROUP_ROWS = 256


@dataclass
class BatchEngine:
    """Skeleton-caching period evaluator, drop-in for ``compute_period``.

    Parameters
    ----------
    max_rows:
        Row budget on ``m = lcm(m_i)`` for TPN-based methods, enforced
        per evaluation exactly like the scalar path (``None`` disables).
    cache_limit:
        Maximum number of cached skeletons (at least 1); the oldest
        entry is evicted beyond it (sweeps use a handful of topologies,
        but a mapping *search* streams through thousands — the bound
        keeps memory flat).  ``None`` disables eviction.

    Notes
    -----
    ``evaluate`` returns :class:`PeriodResult` objects whose numeric
    fields (``period``, ``throughput``, ``mct``, ``relative_gap``,
    ``has_critical_resource``, ``m``, ``method``, ``model``) and
    ``tpn_solution.ratio`` payloads are bit-identical to
    ``compute_period(inst, model, method)``.  Two payloads are left out
    because the engine never materializes them: TPN results carry
    ``tpn_solution.net = None`` (no per-instance net object) and
    polynomial results carry ``breakdown=None`` (the period comes from
    :func:`~repro.algorithms.overlap_poly.overlap_period_value`, or its
    group form for same-signature runs, which skip patterns that cannot
    reach the max).  Call :func:`~repro.core.throughput.compute_period`
    for either.

    A sequence's same-signature runs are evaluated as slabs: lockstep
    Howard for TPN runs, one Theorem-1 array pass for polynomial runs.
    Polynomial slabs count the per-point contract counters but no
    ``engine.group_solves`` / ``engine.group_rows``, which describe
    lockstep slabs only; the ``engine.evaluate`` fault site fires once
    per slab, as for TPN slabs.
    """

    max_rows: int | None = DEFAULT_MAX_ROWS
    cache_limit: int | None = 1024
    _skeletons: dict[Signature, TpnSkeleton] = field(default_factory=dict)
    _ct_plans: dict[Signature, CycleTimePlan] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.cache_limit is not None and self.cache_limit < 1:
            raise ValidationError(
                f"cache_limit must be None or >= 1, got {self.cache_limit}"
            )

    def skeleton(self, inst: Instance, model: CommModel | str) -> TpnSkeleton:
        """Fetch (or build and cache) the topology group's skeleton."""
        return self._skeleton_for(topology_signature(inst, model), inst, model)

    def _skeleton_for(
        self, key: Signature, inst: Instance, model: CommModel | str
    ) -> TpnSkeleton:
        sk = self._skeletons.get(key)
        if sk is None:
            sk = build_skeleton(inst, model, max_rows=self.max_rows)
            if self.cache_limit is not None and len(self._skeletons) >= self.cache_limit:
                self._skeletons.pop(next(iter(self._skeletons)))
            self._skeletons[key] = sk
            if TELEMETRY.enabled:
                TELEMETRY.count("engine.skeleton_builds")
        elif TELEMETRY.enabled:
            TELEMETRY.count("engine.cache_hits")
        return sk

    def _ct_plan_for(
        self, key: Signature, inst: Instance, model: CommModel
    ) -> CycleTimePlan:
        """Fetch (or build) the topology group's cycle-time plan.

        Cached independently of the skeletons: the polynomial path needs
        the plan but never builds a skeleton.  Same bound, same oldest-
        entry eviction.
        """
        plan = self._ct_plans.get(key)
        if plan is None:
            plan = build_cycle_time_plan(inst, model)
            if self.cache_limit is not None and len(self._ct_plans) >= self.cache_limit:
                self._ct_plans.pop(next(iter(self._ct_plans)))
            self._ct_plans[key] = plan
        return plan

    @overload
    def evaluate(
        self,
        instances: Instance,
        models: CommModel | str,
        method: str = ...,
    ) -> PeriodResult: ...

    @overload
    def evaluate(
        self,
        instances: Sequence[Instance] | Iterable[Instance],
        models: CommModel | str | Sequence[CommModel | str],
        method: str = ...,
    ) -> list[PeriodResult]: ...

    def evaluate(
        self,
        instances: Instance | Sequence[Instance] | Iterable[Instance],
        models: CommModel | str | Sequence[CommModel | str],
        method: str = "auto",
    ) -> PeriodResult | list[PeriodResult]:
        """The engine's one entry point.

        One :class:`~repro.core.instance.Instance` (with one model)
        evaluates through the scalar cache path and returns one result.
        A sequence of instances (with one model, or one per instance)
        evaluates in order and returns a list aligned with the input;
        consecutive same-topology runs are evaluated as slabs.

        Method selection, validation errors and the
        ``ReplicationExplosionError`` budget behave exactly like
        :func:`repro.core.throughput.compute_period`.
        """
        if isinstance(instances, Instance):
            if isinstance(models, (list, tuple)):
                raise ValidationError(
                    "a single instance takes a single model, not a sequence"
                )
            return self._evaluate_point(instances, models, method)
        return self._evaluate_sequence(_normalize_pairs(instances, models), method)

    def _evaluate_point(
        self, inst: Instance, model: CommModel | str, method: str = "auto"
    ) -> PeriodResult:
        """Evaluate one pair through the cache (scalar-path semantics)."""
        model = CommModel.parse(model)
        if method == "auto":
            method = "polynomial" if model.overlap else "tpn"

        if FAULTS.enabled:
            # A stall here models a slow machine: the worker's lease
            # heartbeats arrive late and the fabric's watchdog path
            # (stale takeover) is exercised end-to-end.
            FAULTS.hit("engine.evaluate")
        if TELEMETRY.enabled:
            # Contract counters: one per point, split by resolved
            # method, plus the point's path count — all pure functions
            # of the point, so totals are partition-invariant.
            TELEMETRY.count("engine.points")
            TELEMETRY.count("engine.points." + method)
            TELEMETRY.count("engine.paths", inst.num_paths)
        key = topology_signature(inst, model)
        solution: TpnSolution | None = None
        if method == "polynomial":
            if not model.overlap:
                raise ValidationError(
                    "the polynomial algorithm (Theorem 1) only applies to the "
                    "OVERLAP ONE-PORT model; use method='tpn' for STRICT"
                )
            # Period only: the bound-pruned Theorem-1 routine, same bits
            # as the oracle's breakdown.period.
            period = overlap_period_value(inst)
        elif method == "tpn":
            sk = self._skeleton_for(key, inst, model)
            sk.check_budget(self.max_rows)
            ratio = sk.solve(inst)
            period = ratio.value / sk.m
            solution = TpnSolution(period=period, ratio=ratio, net=None)
        elif method == "simulation":
            # No structure worth caching: the simulator walks the full net.
            return compute_period(
                inst, model, method="simulation", max_rows=self.max_rows
            )
        else:
            raise ValidationError(
                f"unknown method {method!r}; expected auto/polynomial/tpn/simulation"
            )

        # Classification through the cached index-array plan: bit-identical
        # to classify_critical_resource, ~3x cheaper per evaluation.
        mct, has_critical, _ = self._ct_plan_for(key, inst, model).verdict(
            inst, period
        )
        return PeriodResult(
            period=period,
            throughput=1.0 / period if period > 0 else float("inf"),
            model=model,
            method=method,
            m=inst.num_paths,
            mct=mct,
            has_critical_resource=has_critical,
            breakdown=None,
            tpn_solution=solution,
        )

    def _evaluate_tpn_group(
        self, key: Signature, instances: Sequence[Instance], model: CommModel
    ) -> list[PeriodResult]:
        """One lockstep slab: stamp, solve, classify, package."""
        if FAULTS.enabled:
            FAULTS.hit("engine.evaluate")
        B = len(instances)
        sk = self._skeleton_for(key, instances[0], model)
        if TELEMETRY.enabled:
            TELEMETRY.count("engine.points", B)
            TELEMETRY.count("engine.points.tpn", B)
            TELEMETRY.count("engine.paths", sk.m * B)
            # Cache-lookup parity with B scalar evaluations of the group.
            TELEMETRY.count("engine.cache_hits", B - 1)
            TELEMETRY.count("engine.group_solves")
            TELEMETRY.count("engine.group_rows", B)
        sk.check_budget(self.max_rows)
        # One slot-space gather feeds both the stamping and the verdict.
        times = SlotTimes.of(instances)
        with TELEMETRY.span("group-solve", rows=B):
            ratios = sk.solve_many(times)
        periods = [r.value / sk.m for r in ratios]
        ct_plan = self._ct_plan_for(key, instances[0], model)
        mcts, crits, _ = ct_plan.verdict_many(times, np.asarray(periods))
        out = []
        for b, inst in enumerate(instances):
            period = periods[b]
            out.append(PeriodResult(
                period=period,
                throughput=1.0 / period if period > 0 else float("inf"),
                model=model,
                method="tpn",
                m=sk.m,  # == inst.num_paths for every group member
                mct=float(mcts[b]),
                has_critical_resource=bool(crits[b]),
                breakdown=None,
                tpn_solution=TpnSolution(period=period, ratio=ratios[b], net=None),
            ))
        return out

    def _evaluate_poly_group(
        self, key: Signature, instances: Sequence[Instance], model: CommModel
    ) -> list[PeriodResult]:
        """One Theorem-1 slab: gather, array pass, classify, package."""
        if FAULTS.enabled:
            FAULTS.hit("engine.evaluate")
        B = len(instances)
        m = instances[0].num_paths
        if TELEMETRY.enabled:
            # The scalar path's contract counters; no group_solves or
            # group_rows, which describe lockstep slabs only.
            TELEMETRY.count("engine.points", B)
            TELEMETRY.count("engine.points.polynomial", B)
            TELEMETRY.count("engine.paths", m * B)
        # One slot-space gather feeds both Theorem 1 and the verdict.
        times = SlotTimes.of(instances)
        periods = _overlap_values_many(times, instances[0].mapping)
        ct_plan = self._ct_plan_for(key, instances[0], model)
        mcts, crits, _ = ct_plan.verdict_many(times, np.asarray(periods))
        return [
            PeriodResult(
                period=period,
                throughput=1.0 / period if period > 0 else float("inf"),
                model=model,
                method="polynomial",
                m=m,
                mct=float(mcts[b]),
                has_critical_resource=bool(crits[b]),
                breakdown=None,
                tpn_solution=None,
            )
            for b, period in enumerate(periods)
        ]

    def _evaluate_sequence(
        self, pairs: list[tuple[Instance, CommModel]], method: str = "auto"
    ) -> list[PeriodResult]:
        """Evaluate pairs in order, same-topology runs as slabs.

        The batched counterpart of calling the scalar path in a loop:
        each :func:`_signature_runs` segment of at least
        :data:`MIN_GROUP_ROWS` pairs goes through slabs of at most
        :data:`MAX_GROUP_ROWS` rows (lockstep Howard for TPN runs, one
        Theorem-1 array pass for polynomial runs); everything else
        (singleton runs, the simulation method) takes the scalar path.
        Results align with the input and are bit-identical to the
        per-pair loop.
        """
        out: list[PeriodResult] = []
        for i, j, model, resolved, key in _signature_runs(pairs, method):
            if key is None or j - i < MIN_GROUP_ROWS:
                out.extend(
                    self._evaluate_point(inst, model, method)
                    for inst, _ in pairs[i:j]
                )
                continue
            group = (
                self._evaluate_tpn_group if resolved == "tpn"
                else self._evaluate_poly_group
            )
            for k in range(i, j, MAX_GROUP_ROWS):
                slab = [inst for inst, _ in pairs[k: min(j, k + MAX_GROUP_ROWS)]]
                out.extend(group(key, slab, model))
        return out


def _signature_runs(
    pairs: list[tuple[Instance, CommModel]], method: str
) -> Iterator[tuple[int, int, CommModel, str, Signature | None]]:
    """Contiguous ``[i, j)`` segments of a pair list, for group dispatch.

    Pairs whose resolved method is ``"tpn"``, or ``"polynomial"`` on
    OVERLAP, extend their segment while model and topology signature
    match (``key`` is the shared signature); other pairs yield singleton
    segments with ``key = None``, so the scalar path runs or rejects
    them.  Each segment carries its resolved method: ``method="tpn"`` on
    OVERLAP stays a TPN run.  The single owner of
    the run-boundary predicate: :meth:`BatchEngine._evaluate_sequence`
    walks it for every sequence, serial or inside a worker chunk.
    """
    i = 0
    while i < len(pairs):
        inst, model = pairs[i]
        resolved = method
        if resolved == "auto":
            resolved = "polynomial" if model.overlap else "tpn"
        if resolved != "tpn" and not (resolved == "polynomial" and model.overlap):
            yield i, i + 1, model, resolved, None
            i += 1
            continue
        key = topology_signature(inst, model)
        j = i + 1
        while j < len(pairs) and pairs[j][1] == model \
                and topology_signature(pairs[j][0], model) == key:
            j += 1
        yield i, j, model, resolved, key
        i = j


def _normalize_pairs(
    instances: Sequence[Instance] | Iterable[Instance],
    models: CommModel | str | Sequence[CommModel | str],
) -> list[tuple[Instance, CommModel]]:
    instances = list(instances)
    if isinstance(models, (CommModel, str)):
        parsed = CommModel.parse(models)
        return [(inst, parsed) for inst in instances]
    models = [CommModel.parse(m) for m in models]
    if len(models) != len(instances):
        raise ValidationError(
            f"got {len(instances)} instances but {len(models)} models; pass "
            f"a single model or one per instance"
        )
    return list(zip(instances, models))


# ----------------------------------------------------------------------
# worker-process plumbing
# ----------------------------------------------------------------------
#: One engine per worker process, reused across chunks so the skeleton
#: cache amortizes over the whole batch, not a single chunk.
_WORKER_ENGINE: BatchEngine | None = None


def _evaluate_chunk(
    payload: tuple[list[tuple[Instance, CommModel]], str, int | None, bool],
) -> tuple[list[PeriodResult], dict[str, int] | None]:
    """Module-level trampoline for process pools (picklable).

    Returns the chunk's results plus, when the parent runs with
    telemetry on, this chunk's counter snapshot.  Counters merge by
    summation, so the parent's totals are independent of chunk
    completion order (NUM205-safe).  The collector is re-enabled (reset)
    or disabled explicitly per chunk: forked workers inherit the
    parent's collector state, which must never double-count.
    """
    global _WORKER_ENGINE
    chunk, method, max_rows, telemetry_on = payload
    if telemetry_on:
        TELEMETRY.enable("chunk")
    else:
        TELEMETRY.disable()
    if _WORKER_ENGINE is None or _WORKER_ENGINE.max_rows != max_rows:
        _WORKER_ENGINE = BatchEngine(max_rows=max_rows)
    results = _WORKER_ENGINE._evaluate_sequence(chunk, method)
    counters = TELEMETRY.counter_snapshot() if telemetry_on else None
    return results, counters


def evaluate(
    instances: Sequence[Instance] | Iterable[Instance],
    models: CommModel | str | Sequence[CommModel | str],
    method: str = "auto",
    *,
    max_rows: int | None = DEFAULT_MAX_ROWS,
    n_jobs: int | None = None,
    chunk_size: int | None = None,
    engine: BatchEngine | None = None,
) -> list[PeriodResult]:
    """The module-level entry point: evaluate pairs, sharded on request.

    Drop-in replacement for ``[compute_period(i, m, method) for i, m in
    pairs]`` — same values, same exceptions — with skeleton caching and
    optional multi-process sharding.  Returns a list aligned with the
    input.

    Parameters
    ----------
    instances:
        The instances to evaluate.
    models:
        A single model applied to every instance, or one model per
        instance.
    method:
        ``"auto"`` / ``"polynomial"`` / ``"tpn"`` / ``"simulation"``,
        with :func:`compute_period`'s semantics.
    max_rows:
        TPN row budget (per evaluation, like the scalar path); ignored
        when ``engine=`` is passed, whose own ``max_rows`` applies to
        every pair, sharded or not.
    n_jobs:
        ``None``/``1`` evaluates serially in-process; ``0`` uses all
        cores; ``k > 1`` uses ``k`` worker processes.  Results are
        bit-identical whatever the worker count.  Negative values raise
        :class:`~repro.errors.ValidationError`.
    chunk_size:
        Pairs per worker task (at least 1); default balances ~4 chunks
        per worker.  Chunks are contiguous, so keep topology groups
        adjacent in the input for best cache locality *and* full-chunk
        lockstep groups.
    engine:
        Reuse a caller-owned :class:`BatchEngine` (e.g. to share its
        cache across successive sweeps or search neighborhoods) for the
        pairs evaluated in this process.  Sharded chunks run on worker
        engines, which cannot share the caller's cache.

    Examples
    --------
    >>> from repro.experiments.examples_paper import example_a
    >>> from repro.core.throughput import compute_period
    >>> batch = evaluate([example_a()] * 3, "overlap")
    >>> [r.period for r in batch]
    [189.0, 189.0, 189.0]
    >>> batch[0].period == compute_period(example_a(), "overlap").period
    True
    """
    if n_jobs is not None and n_jobs < 0:
        raise ValidationError(f"n_jobs must be None or >= 0, got {n_jobs}")
    if chunk_size is not None and chunk_size < 1:
        raise ValidationError(f"chunk_size must be None or >= 1, got {chunk_size}")
    if engine is not None:
        max_rows = engine.max_rows
    pairs = _normalize_pairs(instances, models)
    if n_jobs is None or n_jobs == 1 or len(pairs) < _MIN_PARALLEL_BATCH:
        eng = engine if engine is not None else BatchEngine(max_rows=max_rows)
        return eng._evaluate_sequence(pairs, method)

    workers = (os.cpu_count() or 1) if n_jobs == 0 else n_jobs
    if chunk_size is None:
        chunk_size = max(1, -(-len(pairs) // (workers * 4)))
    telemetry_on = TELEMETRY.enabled
    payloads = [
        (pairs[i: i + chunk_size], method, max_rows, telemetry_on)
        for i in range(0, len(pairs), chunk_size)
    ]
    from concurrent.futures import ProcessPoolExecutor

    out: list[PeriodResult] = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for results, counters in pool.map(_evaluate_chunk, payloads):
            if counters is not None:
                TELEMETRY.merge_counters(counters)
            out.extend(results)
    return out
