"""Cached TPN skeletons: build once per topology, re-stamp weights per instance.

A :class:`TpnSkeleton` captures everything about a ``(model, counts)``
group that does not depend on the instance's processors or times:

* the net's transition layout as numpy arrays (``comp_mask``,
  ``stage_or_file``, ``slot_u``, ``slot_v``) that let
  :meth:`TpnSkeleton.stamp_durations` compute all firing durations with
  three vectorized expressions instead of ``m * (2n - 1)`` Python calls;
* the place list as ``(edge_src, edge_dst, edge_tokens)`` arrays — the
  cycle-ratio graph's structure;
* the CSR-prepared Howard plan
  (:func:`repro.maxplus.howard.prepare_howard`), so repeated solves skip
  the liveness check, Tarjan's SCC pass, subgraph extraction and the
  per-SCC edge sort.

The arrays come straight from :func:`repro.petri.builder.tpn_structure`,
the builder behind :func:`~repro.petri.builder.build_tpn` too, so a
skeleton never materializes a net object.  They index replica slots,
which each instance resolves to its own processors when it stamps.

:meth:`TpnSkeleton.solve_many` is the group fast path: it stamps every
instance of a topology group into one ``(B, E)`` weight matrix, read
from the group's :class:`~repro.petri.builder.SlotTimes`, and runs
:func:`repro.maxplus.howard.solve_prepared_many` — lockstep policy
iteration across the whole batch — instead of ``B`` scalar solves.

Bit-identical contract: the duration formulas mirror
:meth:`repro.core.platform.Platform.comp_time` / ``comm_time``
(elementwise IEEE-754 double divisions in the same order), the edge
weights reproduce :meth:`repro.petri.net.TimedEventGraph.to_ratio_graph`
(weight of a place = duration of its input transition), and the solve
delegates to the same :func:`~repro.maxplus.howard.solve_prepared` /
Lawler-fallback dispatch as :func:`repro.maxplus.cycle_ratio.max_cycle_ratio`
with ``method="auto"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import numpy.typing as npt

from ..core.instance import Instance
from ..core.models import CommModel
from ..errors import ReplicationExplosionError, SolverError, ValidationError
from ..maxplus.cycle_ratio import CycleRatioResult
from ..maxplus.graph import RatioGraph
from ..maxplus.howard import (
    HowardPlan,
    prepare_howard,
    solve_prepared,
    solve_prepared_many,
)
from ..maxplus.lawler import max_cycle_ratio_lawler
from ..petri.builder import DEFAULT_MAX_ROWS, SlotTimes, stamp_durations, tpn_structure
from ..petri.builder import build_tpn  # noqa: F401 - perfbench/layers.py wraps this name
from ..telemetry import TELEMETRY

__all__ = ["TpnSkeleton", "build_skeleton"]


@dataclass(frozen=True)
class TpnSkeleton:
    """Structural cache entry for one ``(model, counts)`` topology group.

    Attributes
    ----------
    model:
        Communication model the net was built for.
    m:
        Number of TPN rows ``lcm(m_i)`` (also the period divisor).
    n_transitions:
        ``m * (2n - 1)``.
    comp_mask:
        Boolean per transition: ``True`` for computations.
    stage_or_file:
        Stage index (computations) or file index (transmissions).
    slot_u, slot_v:
        Replica slot of the executing processor, resp. of the (sender,
        receiver) pair; ``slot_v`` is ``-1`` on computation rows.
    edge_src, edge_dst, edge_tokens:
        Place arrays of the reduced cycle-ratio graph.
    plan:
        CSR-prepared Howard solver plan for the graph's structure.
    """

    model: CommModel
    m: int
    n_transitions: int
    comp_mask: npt.NDArray[np.bool_]
    stage_or_file: npt.NDArray[np.int64]
    slot_u: npt.NDArray[np.int64]
    slot_v: npt.NDArray[np.int64]
    edge_src: npt.NDArray[np.int64]
    edge_dst: npt.NDArray[np.int64]
    edge_tokens: npt.NDArray[np.int64]
    plan: HowardPlan

    def check_budget(self, max_rows: int | None) -> None:
        """Enforce the row budget exactly like :func:`build_tpn` would."""
        if max_rows is not None and self.m > max_rows:
            raise ReplicationExplosionError(self.m, max_rows)

    def stamp_durations(self, inst: Instance) -> npt.NDArray[np.float64]:
        """Per-transition firing durations of ``inst`` (vectorized).

        Equals ``[t.duration for t in build_tpn(inst, model).transitions]``
        bit-for-bit: ``w_i / Pi_u`` for computations, ``delta_i / b_{u,v}``
        for transmissions (0 on infinite-bandwidth links, exactly as
        :meth:`Platform.comm_time` returns).
        """
        procs = np.asarray(inst.mapping.used_processors, dtype=np.int64)
        return stamp_durations(
            inst, self.comp_mask, self.stage_or_file, procs[self.slot_u], procs[self.slot_v]
        )

    def stamp_weights(self, inst: Instance) -> npt.NDArray[np.float64]:
        """Edge weights of the cycle-ratio graph for ``inst``.

        The weight of a place is the duration of its *input* transition
        (see :meth:`TimedEventGraph.to_ratio_graph`).
        """
        return self.stamp_durations(inst)[self.edge_src]

    def solve(self, inst: Instance, solver: str = "auto") -> CycleRatioResult:
        """Maximum cycle ratio for ``inst`` on the cached structure.

        Mirrors :func:`repro.maxplus.cycle_ratio.max_cycle_ratio`'s
        ``"auto"``/``"howard"``/``"lawler"`` dispatch (Karp is pointless
        here: round-robin wrap places mean tokens are not all 1).
        Howard starts cold, so the result depends on ``inst`` alone.
        Under ``"auto"`` a :class:`~repro.errors.SolverError` from
        Howard switches to Lawler and counts
        ``engine.lawler_fallbacks``.
        """
        return self._solve_weights(self.stamp_weights(inst), solver)

    def _solve_weights(
        self, weights: npt.NDArray[np.float64], solver: str = "auto"
    ) -> CycleRatioResult:
        if solver == "lawler":
            return CycleRatioResult(
                max_cycle_ratio_lawler(self._graph(weights)), (), (), "lawler"
            )
        if solver not in ("auto", "howard"):
            raise ValidationError(f"unknown method {solver!r}")
        try:
            res = solve_prepared(self.plan, weights)
            return CycleRatioResult(res.value, res.cycle_nodes, res.cycle_edges, "howard")
        except SolverError:
            if solver == "howard":
                raise
            if TELEMETRY.enabled:
                TELEMETRY.count("engine.lawler_fallbacks")
            return CycleRatioResult(
                max_cycle_ratio_lawler(self._graph(weights)), (), (), "lawler"
            )

    def stamp_durations_many(
        self, group: Sequence[Instance] | SlotTimes
    ) -> npt.NDArray[np.float64]:
        """``(B, n_transitions)`` firing-duration matrix of a whole group.

        Row ``b`` equals ``stamp_durations(group[b])`` bit for bit: the
        stacked formulation performs the same elementwise IEEE-754
        divisions on the same operands (a slot gather copies doubles),
        platforms of different sizes included.
        """
        times = SlotTimes.of(group)
        cm = self.comp_mask
        comm = ~cm
        dur = np.empty((times.works.shape[0], self.n_transitions))
        dur[:, cm] = times.works[:, self.stage_or_file[cm]] / times.speeds[:, self.slot_u[cm]]
        dur[:, comm] = times.sizes[:, self.stage_or_file[comm]] / times.bandwidths[
            :, self.slot_u[comm], self.slot_v[comm]
        ]
        return dur

    def stamp_weights_many(
        self, group: Sequence[Instance] | SlotTimes
    ) -> npt.NDArray[np.float64]:
        """``(B, n_edges)`` cycle-ratio weight matrix of a whole group."""
        return self.stamp_durations_many(group)[:, self.edge_src]

    def solve_many(
        self,
        group: Sequence[Instance] | SlotTimes,
        solver: str = "auto",
    ) -> list[CycleRatioResult]:
        """Maximum cycle ratios for a whole topology group, in lockstep.

        Stamps every instance's weights into one ``(B, E)`` matrix and
        runs :func:`~repro.maxplus.howard.solve_prepared_many`, which
        seeds every row from its token-edge reduction and certifies it
        in one batched pass.  Results are bit-identical to per-instance
        :meth:`solve` calls in value and critical cycle: each row is
        certified equal to the cold solve or solved cold.

        Any :class:`~repro.errors.SolverError` from the lockstep path
        (non-convergence, acyclic graph) falls back to per-row scalar
        solves so errors and Lawler dispatch behave exactly like
        :meth:`solve`, row by row.
        """
        weights = self.stamp_weights_many(group)
        if solver in ("auto", "howard"):
            try:
                return [
                    CycleRatioResult(r.value, r.cycle_nodes, r.cycle_edges, "howard")
                    for r in solve_prepared_many(self.plan, weights)
                ]
            except SolverError:
                if TELEMETRY.enabled:
                    TELEMETRY.count("engine.group_fallbacks")
                    TELEMETRY.count("engine.group_fallback_rows", len(weights))
        return [self._solve_weights(w, solver) for w in weights]

    def _graph(self, weights: npt.NDArray[np.float64]) -> RatioGraph:
        """Materialize the full ratio graph (Lawler fallback only)."""
        return RatioGraph.from_arrays(
            self.n_transitions, self.edge_src, self.edge_dst, weights, self.edge_tokens
        )


def build_skeleton(
    inst: Instance,
    model: CommModel | str,
    max_rows: int | None = DEFAULT_MAX_ROWS,
) -> TpnSkeleton:
    """Build the structural skeleton from one representative instance.

    Any instance of the topology group works as representative: the
    arrays of :func:`~repro.petri.builder.tpn_structure` and the Howard
    plan depend only on the model and the replica counts, so no net
    object or per-place graph is ever materialized.
    """
    st = tpn_structure(inst.mapping, model, max_rows=max_rows)
    graph = RatioGraph.from_arrays(
        st.n_transitions, st.src, st.dst, np.zeros(st.src.size), st.tokens
    )
    return TpnSkeleton(
        model=st.model,
        m=st.n_rows,
        n_transitions=st.n_transitions,
        comp_mask=st.comp_mask,
        stage_or_file=st.stage_or_file,
        slot_u=st.slot_u,
        slot_v=st.slot_v,
        edge_src=st.src,
        edge_dst=st.dst,
        edge_tokens=st.tokens,
        plan=prepare_howard(graph),
    )
