"""Objective evaluation over the shared batch engine.

:class:`ObjectiveEvaluator` is the bridge between the engine's exact
period oracle and the multi-criteria plane: periods come from a
caller-owned :class:`~repro.engine.batch.BatchEngine` (skeleton cache,
lockstep group solves — all the PR-1..PR-8 machinery), while latency
and reliability are cheap pure per-instance functions computed in the
calling process.  That split is what makes objective-aware results
bit-identical whichever process — a serial drain or a campaign
worker — computed the period.

Latency comes in two modes:

* ``"bound"`` (default) — :func:`worst_path_latency`, the maximum
  contention-free path bound over the mapping's ``m`` round-robin
  paths.  Deterministic, closed-form, cheap enough for search
  neighborhoods.
* ``"measured"`` — exact TPN simulation via
  :func:`repro.core.latency.measure_latency` (saturated regime, worst
  data set); orders of magnitude more expensive, for reporting.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..core.instance import Instance
from ..core.latency import measure_latency, path_latency_bound
from ..core.models import CommModel
from ..core.throughput import PeriodResult
from ..errors import ValidationError
from ..telemetry import TELEMETRY
from .base import EvalResult, parse_objectives
from .reliability import instance_reliability

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..engine.batch import BatchEngine

__all__ = [
    "DEFAULT_LATENCY_DATASETS",
    "worst_path_latency",
    "attach_objectives",
    "ObjectiveEvaluator",
]

#: Data sets simulated by the ``"measured"`` latency mode.
DEFAULT_LATENCY_DATASETS = 24


def worst_path_latency(inst: Instance) -> float:
    """Worst contention-free latency over all ``m`` round-robin paths.

    The maximum of :func:`repro.core.latency.path_latency_bound` over
    one full round-robin sweep — a deterministic lower bound on the
    pipeline's worst per-data-set latency in every regime, and the
    default latency objective.
    """
    worst = 0.0
    for dataset in range(inst.num_paths):
        bound = path_latency_bound(inst, dataset)
        if bound > worst:
            worst = bound
    return worst


def _latency_of(
    inst: Instance,
    model: CommModel,
    latency_mode: str,
    latency_datasets: int,
) -> float:
    if latency_mode == "bound":
        return worst_path_latency(inst)
    if latency_mode == "measured":
        report = measure_latency(inst, model, n_datasets=latency_datasets)
        return float(report.max)
    raise ValidationError(
        f"unknown latency_mode {latency_mode!r}; expected bound/measured"
    )


def attach_objectives(
    inst: Instance,
    result: PeriodResult,
    objectives: Sequence[str] | str | None,
    latency_mode: str = "bound",
    latency_datasets: int = DEFAULT_LATENCY_DATASETS,
) -> EvalResult:
    """Lift one engine :class:`PeriodResult` into an :class:`EvalResult`.

    The period result passes through untouched (bit-identical); latency
    and reliability are computed here only when their objective was
    requested.
    """
    names = parse_objectives(objectives)
    latency: float | None = None
    reliability: float | None = None
    if "latency" in names:
        latency = _latency_of(inst, result.model, latency_mode, latency_datasets)
    if "reliability" in names:
        reliability = instance_reliability(inst)
    if TELEMETRY.enabled:
        TELEMETRY.count("objectives.evaluations")
        for name in names:
            TELEMETRY.count("objectives.evaluations." + name)
    return EvalResult(
        objectives=names,
        period_result=result,
        latency=latency,
        reliability=reliability,
        latency_mode=latency_mode,
    )


@dataclass
class ObjectiveEvaluator:
    """Multi-criteria oracle over a shared :class:`BatchEngine`.

    Parameters
    ----------
    engine:
        The period oracle (caller-owned; its cache amortizes across
        every evaluation this evaluator performs).
    objectives:
        Objective selection, canonicalized by
        :func:`~repro.objectives.base.parse_objectives`.
    latency_mode / latency_datasets:
        See the module docstring.
    """

    engine: "BatchEngine"
    objectives: tuple[str, ...] = ("period",)
    latency_mode: str = "bound"
    latency_datasets: int = DEFAULT_LATENCY_DATASETS

    def __post_init__(self) -> None:
        self.objectives = parse_objectives(self.objectives)

    def evaluate(
        self,
        inst: Instance,
        model: CommModel | str,
        method: str = "auto",
    ) -> EvalResult:
        """Evaluate one instance to an :class:`EvalResult`."""
        result = self.engine.evaluate(inst, model, method)
        return attach_objectives(
            inst,
            result,
            self.objectives,
            latency_mode=self.latency_mode,
            latency_datasets=self.latency_datasets,
        )

    def evaluate_many(
        self,
        instances: Sequence[Instance] | Iterable[Instance],
        models: CommModel | str | Sequence[CommModel | str],
        method: str = "auto",
    ) -> list[EvalResult]:
        """Evaluate a sequence (lockstep same-topology runs) in order."""
        insts = list(instances)
        results = self.engine.evaluate(insts, models, method)
        return [
            attach_objectives(
                inst,
                result,
                self.objectives,
                latency_mode=self.latency_mode,
                latency_datasets=self.latency_datasets,
            )
            for inst, result in zip(insts, results)
        ]
