"""Experiment runner: sweep random instances, in series or in parallel.

Each experiment draws an instance from a Table 2 family, computes the
exact period and the cycle-time bound ``M_ct`` under one communication
model, and records whether the bound is attained ("critical resource").

Reproducibility and parallelism: every experiment owns a child of the
root :class:`numpy.random.SeedSequence`, so results are bit-identical
whatever the worker count.  The family's position in the seed tree is
derived with :func:`zlib.crc32` — a *stable* digest of the family name —
never with Python's :func:`hash`, whose per-process randomization
(``PYTHONHASHSEED``) would silently make "reproducible" sweeps differ
between interpreter runs.

:func:`run_family` draws every instance up front and evaluates the whole
family through :func:`repro.engine.evaluate`, which caches the TPN
skeleton and solver preparation per mapping topology and shards large
sweeps across worker processes with deterministic chunking; with a
``store=`` it drains only unstored points through the campaign loop.
:func:`run_single` is the per-seed
:func:`~repro.core.throughput.compute_period` oracle: its records are
bit-identical to the matching :func:`run_family` records.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - layering: campaign sits above
    from ..campaign.store import ResultStore

from ..core.instance import Instance
from ..core.models import CommModel
from ..core.throughput import PeriodResult, compute_period
from ..engine import evaluate
from ..errors import ReproError
from ..utils import spawn_seeds
from .generator import ExperimentConfig, instance_from_config

__all__ = ["ExperimentRecord", "run_family", "run_single", "family_seeds"]

#: Replication draws are rejected above this ``lcm(m_i)`` so the STRICT
#: model (full TPN) stays tractable; Table 2's size families stay well
#: below it most of the time (see DESIGN.md section 7).
DEFAULT_MAX_PATHS = 3000


@dataclass(frozen=True)
class ExperimentRecord:
    """Outcome of one random experiment.

    Attributes
    ----------
    config_name:
        The Table 2 family.
    model:
        Communication model value ("overlap"/"strict").
    seed:
        Entropy of the experiment's seed sequence (reproducibility key).
    n_stages, n_procs:
        Drawn size pair.
    replication:
        Drawn per-stage replication counts.
    m:
        ``lcm(m_i)``.
    period, mct:
        Exact period and cycle-time bound.
    critical:
        ``True`` when ``period == mct`` (a critical resource exists).
    gap:
        Relative gap ``(P - M_ct) / M_ct``.
    """

    config_name: str
    model: str
    seed: int
    n_stages: int
    n_procs: int
    replication: tuple[int, ...]
    m: int
    period: float
    mct: float
    critical: bool
    gap: float


def _record_from(
    config: ExperimentConfig,
    model: CommModel,
    seed_entropy: int,
    inst: Instance,
    result: PeriodResult,
) -> ExperimentRecord:
    """Assemble a record from an evaluated instance.

    The critical-resource verdict (``mct`` / ``critical`` / ``gap``) is
    read off the :class:`PeriodResult` — ``compute_period`` already ran
    the classification, so re-running it here would double the work.
    """
    return ExperimentRecord(
        config_name=config.name,
        model=model.value,
        seed=seed_entropy,
        n_stages=inst.n_stages,
        n_procs=inst.platform.n_processors,
        replication=inst.replication_counts,
        m=inst.num_paths,
        period=result.period,
        mct=result.mct,
        critical=result.has_critical_resource,
        gap=result.relative_gap,
    )


def _draw_instance(
    config: ExperimentConfig, seed_entropy: int, max_paths: int
) -> Instance:
    """The experiment's instance is a pure function of its seed."""
    rng = np.random.default_rng(np.random.SeedSequence(seed_entropy))
    return instance_from_config(config, rng, max_paths=max_paths)


def run_single(
    config: ExperimentConfig,
    model: CommModel | str,
    seed_entropy: int,
    max_paths: int = DEFAULT_MAX_PATHS,
) -> ExperimentRecord:
    """Run one experiment through ``compute_period`` (the sweep oracle)."""
    model = CommModel.parse(model)
    inst = _draw_instance(config, seed_entropy, max_paths)
    result = compute_period(inst, model, max_rows=max_paths + 1)
    return _record_from(config, model, seed_entropy, inst, result)


def family_seeds(
    config: ExperimentConfig,
    model: CommModel | str,
    count: int,
    root_seed: int = 20090302,
) -> list[int]:
    """Deterministic per-experiment seed entropies of one (family, model).

    The family's branch of the seed tree is keyed by
    ``crc32(config.name)`` — stable across interpreters and platforms,
    unlike ``hash()`` which is randomized per process by
    ``PYTHONHASHSEED``.

    Raises
    ------
    ValidationError
        If ``count`` is negative.
    """
    return spawn_seeds(root_seed, config.name, CommModel.parse(model).overlap, count)


def run_family(
    config: ExperimentConfig,
    model: CommModel | str,
    count: int | None = None,
    root_seed: int = 20090302,
    n_jobs: int | None = None,
    max_paths: int = DEFAULT_MAX_PATHS,
    store: "ResultStore | None" = None,
) -> list[ExperimentRecord]:
    """Run ``count`` experiments of one family under one model.

    Parameters
    ----------
    count:
        Number of experiments; defaults to the family's paper count.
    root_seed:
        Root entropy; per-experiment seeds are spawned from it so the
        sweep is deterministic for any ``n_jobs`` — and, because the
        family branch uses a stable digest (:func:`family_seeds`), for
        any interpreter invocation.
    n_jobs:
        Worker processes; ``None``/1 runs serially, 0 uses all cores;
        with a store, lease workers (file-backed store only).
    store:
        Optional content-addressed
        :class:`~repro.campaign.store.ResultStore`: already-stored
        evaluations are loaded instead of recomputed and fresh ones are
        written back, so repeated sweeps — or a sweep overlapping a
        campaign — cost only the missing points.  Records are
        bit-identical with or without a store.

    Raises
    ------
    ValidationError
        If ``count`` or ``n_jobs`` is negative, if ``store`` is not a
        :class:`~repro.campaign.store.ResultStore`, or if it is in
        memory and ``n_jobs`` asks for worker processes.
    """
    model = CommModel.parse(model)
    if count is None:
        count = config.count
    seeds = family_seeds(config, model, count, root_seed=root_seed)
    return _sweep([(config, model, seeds)], n_jobs, max_paths, store)[0]


def _sweep(
    rows: Sequence[tuple[ExperimentConfig, CommModel, list[int]]],
    n_jobs: int | None,
    max_paths: int,
    store: "ResultStore | None",
) -> list[list[ExperimentRecord]]:
    """The records of every ``(config, model, seeds)`` row, in one pass.

    Without a store one :func:`evaluate` call evaluates every instance.
    With one, the points form the one share of a campaign share plan
    whose digests are known: its record keeps the distinct unstored
    digests in engine order, one campaign drain evaluates them, in
    this process or in ``n_jobs`` lease workers, and every record is
    rebuilt from its stored payload (read one query per slice of
    digests).
    """
    if store is not None:
        # Function-level import: experiments.io imports this module, and
        # campaign.store imports experiments.io — importing at module
        # scope would close the cycle.
        from ..campaign import executor
        from ..campaign.store import record_from_payload

        workers, options = executor._drain_options(store, n_jobs, max_paths + 1)
    points = [(config, model, s) for config, model, seeds in rows for s in seeds]
    instances = [_draw_instance(config, s, max_paths) for config, _, s in points]
    if store is None:
        results = evaluate(instances, [model for _, model, _ in points],
                           max_rows=max_paths + 1, n_jobs=n_jobs)
        records = [_record_from(*point, inst, res)
                   for point, inst, res in zip(points, instances, results)]
    else:
        given = [executor._Given(inst, model.value)
                 for (_, model, _), inst in zip(points, instances)]
        digests = executor._digests_of(given, ("period",))
        plan = executor._Shares(given, range(len(points)),
                                options["objectives"], digests, True, 1)
        work = executor._share_record(plan, store, 0)[1]
        crashed = executor._drain_local(store, work, workers, options)[2]
        payloads = list(store._payloads(digests))
        if None in payloads:
            raise ReproError(f"worker processes {list(crashed)} crashed; "
                             f"rerun to resume the sweep from the store")
        records = [record_from_payload(config.name, model, s, payload)
                   for (config, model, s), payload in zip(points, payloads)]
    it = iter(records)
    return [list(islice(it, len(seeds))) for _, _, seeds in rows]
