"""Table 2 reproduction: how rare are mappings without critical resource?

Runs the six experiment families under both communication models and
tabulates, per row, the number of instances whose period strictly
exceeds every resource cycle-time.  The paper's findings, which this
harness reproduces in *shape*:

* OVERLAP ONE-PORT: **zero** cases without critical resource across all
  2576 experiments;
* STRICT ONE-PORT: a handful of cases (14/220, 5/68, 10/1000) confined
  to the *small-time-range* rows, with relative gaps below 3-9%.

``scale`` shrinks the per-row counts proportionally for quick runs; the
full campaign (scale=1.0) reproduces the paper's 5152 experiments.
All rows are swept in one pass, as one
:func:`~repro.experiments.runner.run_family` would sweep them: one
:func:`repro.engine.evaluate` call, or with a ``store=`` one campaign
drain over the points the store does not hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..core.models import CommModel
from .generator import TABLE2_CONFIGS, ExperimentConfig
from .runner import DEFAULT_MAX_PATHS, ExperimentRecord, _sweep, family_seeds

if TYPE_CHECKING:  # pragma: no cover - layering: campaign sits above
    from ..campaign.store import ResultStore

__all__ = ["Table2Row", "run_table2", "format_table2"]


@dataclass(frozen=True)
class Table2Row:
    """Aggregated result of one (family, model) row of Table 2.

    Attributes
    ----------
    config:
        The experiment family.
    model:
        "overlap" or "strict".
    total:
        Number of experiments run.
    no_critical:
        How many had no critical resource (``P > M_ct``).
    max_gap:
        Largest relative gap observed (the paper reports "diff less than
        X%" per row).
    records:
        The raw per-experiment records.
    """

    config: ExperimentConfig
    model: str
    total: int
    no_critical: int
    max_gap: float
    records: tuple[ExperimentRecord, ...]


def run_table2(
    scale: float = 1.0,
    models: tuple[str, ...] = ("overlap", "strict"),
    configs: tuple[ExperimentConfig, ...] = TABLE2_CONFIGS,
    root_seed: int = 20090302,
    n_jobs: int | None = None,
    max_paths: int = DEFAULT_MAX_PATHS,
    store: "ResultStore | None" = None,
) -> list[Table2Row]:
    """Run the full campaign (or a scaled-down version).

    Parameters
    ----------
    scale:
        Multiplier on each family's paper count (minimum 1 experiment).
    models:
        Which communication models to sweep.
    n_jobs:
        Parallel worker processes (0 = all cores).
    store:
        Optional content-addressed store, used as by
        :func:`~repro.experiments.runner.run_family`: re-running Table 2
        (or scaling it up) only computes the points not already stored.
    """
    rows = [
        (config, model, family_seeds(config, model,
                                     max(1, round(config.count * scale)),
                                     root_seed=root_seed))
        for model in map(CommModel.parse, models)
        for config in configs
    ]
    return [
        Table2Row(config=config, model=model.value, total=len(records),
                  no_critical=sum(not r.critical for r in records),
                  max_gap=max((r.gap for r in records if not r.critical),
                              default=0.0),
                  records=tuple(records))
        for (config, model, _), records
        in zip(rows, _sweep(rows, n_jobs, max_paths, store))
    ]


def format_table2(rows: list[Table2Row]) -> str:
    """Render rows in the paper's layout (counts of no-critical cases)."""
    lines = [
        "Size / time ranges                             | model   | "
        "#no-critical / total | max gap",
        "-" * 100,
    ]
    current_model = None
    for row in rows:
        if row.model != current_model:
            current_model = row.model
            header = "With overlap:" if row.model == "overlap" else "Without overlap:"
            lines.append(header)
        gap = f"{100 * row.max_gap:.1f}%" if row.no_critical else "-"
        lines.append(
            f"  {row.config.name:<44} | {row.model:<7} | "
            f"{row.no_critical:>5} / {row.total:<12} | {gap}"
        )
    return "\n".join(lines)
