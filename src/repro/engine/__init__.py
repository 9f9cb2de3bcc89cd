"""Batched throughput evaluation engine.

Every large-scale scenario built on this library — the Table 2 sweeps,
the mapping-search extension, scaling studies of Theorem 1 — reduces to
evaluating :func:`repro.core.throughput.compute_period` over thousands
of ``(instance, model)`` pairs.  The scalar entry point rebuilds the
timed Petri net, reduces it to a ratio graph and re-runs the structural
phases of the cycle-ratio solver from scratch on every call, even when
all instances of a sweep share one mapping topology.

This package amortizes that hot path:

* :func:`~repro.engine.signature.topology_signature` — hashable key
  ``(model, replication counts)`` identifying the structure an instance
  shares with its sweep siblings, whichever processors it runs on;
* :class:`~repro.engine.skeleton.TpnSkeleton` — the cached structural
  artifact of one group: TPN transition/place layout, CSR-prepared
  max-plus solver plan, and vectorized duration stamping arrays;
* :class:`~repro.engine.batch.BatchEngine` — skeleton cache plus a
  drop-in ``evaluate`` returning the same
  :class:`~repro.core.throughput.PeriodResult` values as the scalar
  path, bit-identical: one instance in, one result out; a sequence in,
  a list out, with consecutive same-topology TPN runs locksteped
  through :func:`repro.maxplus.howard.solve_prepared_many` — one
  ``(B, E)`` weight matrix, one policy iteration for the whole group —
  and polynomial runs evaluated by one Theorem-1 array pass;
* :func:`~repro.engine.batch.evaluate` — the module-level batch entry
  point with deterministic chunk sharding across a
  ``ProcessPoolExecutor``; it always returns a list in input order.

Quick start::

    from repro.engine import BatchEngine, evaluate

    results = evaluate(instances, "strict")         # list[PeriodResult]
    results = evaluate(instances, models, n_jobs=0)    # all cores
    engine = BatchEngine()
    one = engine.evaluate(instances[0], "strict")   # PeriodResult
    many = engine.evaluate(instances, "strict")     # list[PeriodResult]

Multi-criteria values (latency, reliability) come from
:class:`repro.objectives.ObjectiveEvaluator`, which wraps an engine.

Guarantees
----------
* **Bit-identical results.**  For every supported method the batched
  path executes the same floating-point operations in the same order as
  ``compute_period``; only redundant structural work is skipped.  The
  single intentional difference: batched TPN results carry
  ``tpn_solution.net = None`` (the heavyweight net object is not
  rebuilt per instance) while ``ratio``, ``period`` and every numeric
  field match exactly.
* **Order preservation.**  Results align index-by-index with the input
  iterable, whatever the worker count or chunking.
* **Determinism.**  Evaluation is a pure function of
  ``(instance, model, method)``, with no exception: every Howard solve
  starts cold, so neither ``n_jobs``, chunking nor evaluation history
  changes a result; they only change wall-clock.
"""

from .batch import (
    MAX_GROUP_ROWS,
    MIN_GROUP_ROWS,
    BatchEngine,
    evaluate,
)
from .classify import CycleTimePlan, build_cycle_time_plan
from .signature import topology_signature
from .skeleton import TpnSkeleton, build_skeleton

__all__ = [
    "BatchEngine",
    "evaluate",
    "MIN_GROUP_ROWS",
    "MAX_GROUP_ROWS",
    "topology_signature",
    "TpnSkeleton",
    "build_skeleton",
    "CycleTimePlan",
    "build_cycle_time_plan",
]
