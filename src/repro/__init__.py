"""repro — throughput of replicated workflows on heterogeneous platforms.

A faithful, self-contained reproduction of

    Anne Benoit, Matthieu Gallet, Bruno Gaujal, Yves Robert,
    "Computing the throughput of replicated workflows on heterogeneous
    platforms", LIP RR-2009-08 / ICPP 2009.

Quick start::

    from repro import Application, Platform, Mapping, Instance, compute_period

    inst = Instance(
        Application(works=[4.0, 8.0, 4.0], file_sizes=[2.0, 2.0]),
        Platform.homogeneous(5, speed=1.0, bandwidth=1.0),
        Mapping([(0,), (1, 2), (3,)]),       # middle stage replicated
    )
    result = compute_period(inst, "overlap")
    print(result.summary())

Sub-packages
------------
``repro.core``
    Applications, platforms, replicated mappings, round-robin paths,
    resource cycle-times, and the :func:`compute_period` entry point.
``repro.petri``
    Timed Petri net construction (both one-port models), validation,
    column reduction / pattern graphs (Theorem 1), DOT export.
``repro.maxplus``
    Max-plus algebra and maximum-cycle-ratio solvers (Karp, Lawler,
    Howard) used to extract critical cycles.
``repro.simulation``
    Exact discrete-event simulation, per-resource schedules, Gantt charts.
``repro.algorithms``
    Theorem 1 polynomial algorithm, full-TPN solver, period bounds.
``repro.experiments``
    Paper examples A/B/C, the random-instance generator and the Table 2
    campaign harness.
``repro.engine``
    Batched throughput evaluation: per-topology TPN-skeleton caching,
    vectorized weight re-stamping, lockstep Howard solves and
    multi-process sharding — bit-identical to :func:`compute_period`,
    several times faster on sweeps (``evaluate`` /
    ``BatchEngine.evaluate``).
``repro.search``
    Mapping-space optimization: the multi-start portfolio
    (``portfolio_search``) with diversified restarts, a shared
    evaluation budget and deterministic seeding, plus the
    multi-criteria Pareto portfolio (``pareto_portfolio_search``).
``repro.objectives``
    The multi-criteria objective plane: period × latency × reliability
    (``EvalResult``, ``parse_objectives``, ``ParetoArchive``,
    replication policies, the reliability model).
``repro.campaign``
    Durable experiment campaigns: declarative JSON/TOML scenario specs,
    a content-addressed SQLite result store and a resumable streaming
    executor (``CampaignSpec`` / ``ResultStore`` / ``run_campaign``).
``repro.extensions``
    Beyond-paper extras: mapping heuristics and stochastic platforms.

The names most users need are re-exported here: the core model types
(``Application`` / ``Platform`` / ``Mapping`` / ``Instance``), the
period and latency oracles (``compute_period`` / ``measure_latency``),
the batch engine (``BatchEngine``), the portfolio searches
(``portfolio_search`` / ``pareto_portfolio_search``) and the campaign
subsystem's entry points (``CampaignSpec`` / ``run_campaign``).
"""

from ._lazy import lazy_exports
from .core import (
    Application,
    CommModel,
    CycleTimeReport,
    Instance,
    LatencyReport,
    Mapping,
    Path,
    PeriodResult,
    Platform,
    ProcessorCycleTime,
    Stage,
    compute_period,
    compute_throughput,
    cycle_times,
    enumerate_paths,
    format_path_table,
    maximum_cycle_time,
    measure_latency,
    path_latency_bound,
    path_of_dataset,
)
from .errors import (
    DeadlockError,
    MappingError,
    ReplicationExplosionError,
    ReproError,
    SimulationError,
    SolverError,
    StoreCorruptionError,
    ValidationError,
)

# Imported on first use (``repro._lazy``): the campaign path loads only
# the campaign path, never search or the objective plane.
__getattr__, __dir__ = lazy_exports(globals(), {
    ".campaign": ("CampaignSpec", "run_campaign"),
    ".engine": ("BatchEngine",),
    ".objectives": ("EvalResult", "ParetoArchive", "parse_objectives"),
    ".search": ("pareto_portfolio_search", "portfolio_search"),
})

__version__ = "3.0.0"

__all__ = [
    "__version__",
    # core models
    "Application",
    "Stage",
    "Platform",
    "Mapping",
    "Instance",
    "CommModel",
    # paths
    "Path",
    "enumerate_paths",
    "path_of_dataset",
    "format_path_table",
    # cycle times & period
    "CycleTimeReport",
    "ProcessorCycleTime",
    "cycle_times",
    "maximum_cycle_time",
    "PeriodResult",
    "compute_period",
    "compute_throughput",
    "LatencyReport",
    "measure_latency",
    "path_latency_bound",
    # batch evaluation
    "BatchEngine",
    # objective plane
    "EvalResult",
    "ParetoArchive",
    "parse_objectives",
    # mapping search
    "portfolio_search",
    "pareto_portfolio_search",
    # campaigns
    "CampaignSpec",
    "run_campaign",
    # errors
    "ReproError",
    "ValidationError",
    "MappingError",
    "DeadlockError",
    "SolverError",
    "ReplicationExplosionError",
    "SimulationError",
    "StoreCorruptionError",
]
