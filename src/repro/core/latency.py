"""Latency analysis of mapped workflows (companion metric to the period).

The paper optimizes throughput; the literature it builds on (Subhlok &
Vondran's latency/throughput tradeoffs, Vydyanathan et al.'s
latency-under-throughput-constraints) makes *latency* — the time one data
set spends in the pipeline — the natural companion metric, so the library
provides it too.

Two regimes, both computed on the exact TPN simulation:

* **saturated** — all data sets available at time 0 (the period-defining
  regime); latency of data set ``j`` is measured from the start of its
  ``S_0`` computation to the completion of its ``S_{n-1}``;
* **paced** — data set ``j`` is released at ``j * T`` for an injection
  period ``T``; latency is completion minus release.  For ``T < P`` the
  backlog grows and latency diverges linearly; for ``T >> P`` each data
  set flows through an empty pipeline and the latency approaches the
  contention-free path bound.

:func:`path_latency_bound` gives that contention-free bound — the sum of
computation and transfer times along the data set's round-robin path — a
lower bound on any regime's latency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from ..errors import SimulationError
from ..petri.builder import DEFAULT_MAX_ROWS, build_tpn
from .instance import Instance
from .models import CommModel
from .paths import path_of_dataset

__all__ = ["LatencyReport", "measure_latency", "path_latency_bound"]


@dataclass(frozen=True)
class LatencyReport:
    """Latency statistics over the first ``N`` data sets.

    Attributes
    ----------
    latencies:
        Per-data-set latency, index = data set number.
    injection_period:
        ``None`` for the saturated regime, else the pacing ``T``.
    model:
        Communication model simulated.
    """

    latencies: npt.NDArray[np.float64]
    injection_period: float | None
    model: CommModel

    @property
    def n_datasets(self) -> int:
        """Number of data sets measured."""
        return int(self.latencies.size)

    @property
    def mean(self) -> float:
        """Mean latency (float64 accumulator pinned explicitly)."""
        return float(self.latencies.mean(dtype=np.float64))

    @property
    def max(self) -> float:
        """Worst latency."""
        return float(self.latencies.max())

    def steady_latency(self, tail_fraction: float = 0.25) -> float:
        """Mean latency over the trailing window (transient excluded).

        Meaningful in the paced regime with ``T >= P`` where latency
        converges; in the saturated regime it keeps growing (backlog).
        ``tail_fraction`` must lie in ``(0, 1]``; the window always
        contains at least one data set, so single-dataset reports are
        well-defined for every legal fraction.
        """
        if not 0.0 < tail_fraction <= 1.0:
            raise SimulationError(
                f"tail_fraction must be in (0, 1], got {tail_fraction!r}"
            )
        k = max(1, int(self.n_datasets * tail_fraction))
        return float(self.latencies[-k:].mean(dtype=np.float64))


def path_latency_bound(inst: Instance, dataset: int = 0) -> float:
    """Contention-free latency of a data set: its path's total time.

    Sums ``w_i / Pi`` and ``delta_i / b`` along the round-robin path of
    ``dataset``.  A lower bound on the latency in every regime and every
    communication model.
    """
    path = path_of_dataset(inst.mapping, dataset)
    total = 0.0
    for stage, proc in enumerate(path.processors):
        total += inst.comp_time(stage, proc)
        if stage < inst.n_stages - 1:
            total += inst.comm_time(stage, proc, path.processors[stage + 1])
    return total


def measure_latency(
    inst: Instance,
    model: CommModel | str,
    n_datasets: int = 60,
    injection_period: float | None = None,
    max_rows: int | None = DEFAULT_MAX_ROWS,
) -> LatencyReport:
    """Exact latency of the first ``n_datasets`` data sets by simulation.

    Parameters
    ----------
    inst, model:
        The mapped instance and communication model.
    n_datasets:
        How many data sets to measure (the simulation horizon is the
        covering number of round-robin sweeps).
    injection_period:
        ``None`` → saturated regime (latency from the start of the data
        set's first computation); a float ``T`` → data set ``j`` released
        at ``j * T`` (latency from release).

    Examples
    --------
    With slow pacing, latency equals the contention-free path bound:

    >>> from repro.experiments import example_a
    >>> inst = example_a()
    >>> rep = measure_latency(inst, "overlap", n_datasets=12,
    ...                       injection_period=10_000.0)
    >>> bound = path_latency_bound(inst, 0)
    >>> bool(abs(rep.latencies[0] - bound) < 1e-9)
    True
    """
    from ..simulation.event_sim import simulate

    if n_datasets < 1:
        raise SimulationError("n_datasets must be >= 1")
    model = CommModel.parse(model)
    net = build_tpn(inst, model, max_rows=max_rows)
    m = net.n_rows
    n_firings = (n_datasets + m - 1) // m + 1
    trace = simulate(net, n_firings, release_period=injection_period)

    last_col = net.n_columns - 1
    first_ids = np.array([net.transition_at(r, 0).index for r in range(m)])
    last_ids = np.array([net.transition_at(r, last_col).index for r in range(m)])
    first_durs = np.array([net.transitions[t].duration for t in first_ids])

    completions = trace.completion[:, last_ids].reshape(-1)  # dataset order
    if injection_period is None:
        starts = (trace.completion[:, first_ids] - first_durs).reshape(-1)
    else:
        starts = np.arange(n_firings * m, dtype=float) * injection_period
    latencies = (completions - starts)[:n_datasets]
    latencies.setflags(write=False)
    return LatencyReport(
        latencies=latencies,
        injection_period=injection_period,
        model=model,
    )
