"""Cached cycle-time plans: vectorized ``M_ct`` with byte-stable sums.

``classify_critical_resource`` re-enumerates every processor's in/out
communication windows in Python on each call — after PR 1 removed the
structural TPN work from the batched path, that classification became
~30% of batched evaluation time.  Like the TPN skeleton, the *structure*
of the cycle-time computation (which replica sums which transfer
terms, over which round-robin window) depends only on
``(model, mapping.replication_counts)``; processor ids only pick which
speeds and bandwidths are read, and only the time values change.

:class:`CycleTimePlan` caches that structure as flat index arrays over
replica slots, so one instance's ``M_ct`` is a handful of vectorized
expressions.

Bit-identity contract
---------------------
Every float operation mirrors the scalar path
(:func:`repro.core.cycle_time.cycle_times`) in IEEE-754 order:

* ``C_comp = (w_i / Pi_u) / m_i`` — two elementwise double divisions,
  exactly like ``inst.comp_time(stage, u) / m_i``;
* in/out port totals accumulate with :func:`numpy.bincount`, which
  applies additions **in term order** — the same left-to-right
  ``0.0 + t_0 + t_1 + ...`` as the scalar ``sum(...)``, never
  pairwise/tree summation (the byte-stable summation order the batched
  path requires);
* transfer durations are ``delta_i / b_{u,v}`` with infinite-bandwidth
  links contributing exactly ``+0.0`` like ``Platform.comm_time``;
* STRICT aggregation is the left-associated ``(cin + ccomp) + cout``;
  OVERLAP is the elementwise maximum.

``tests/test_engine_classify.py`` pins equality (``==`` on floats, not
approx) against the scalar classifier across random instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import numpy.typing as npt

from ..algorithms.bounds import DEFAULT_REL_TOL
from ..core.instance import Instance
from ..core.models import CommModel
from ..petri.builder import SlotTimes
from ..telemetry import TELEMETRY
from ..utils import lcm_all

__all__ = ["CycleTimePlan", "build_cycle_time_plan"]


@dataclass(frozen=True)
class CycleTimePlan:
    """Index-array formulation of ``cycle_times`` for one topology group.

    One entry per replica slot: entry ``s`` is the *used* processor
    ``mapping.used_processors[s]``, the scalar path's order.  Term arrays
    are laid out entry-major and, within an entry, in the scalar path's
    ``j``-increasing window order, so sequential accumulation reproduces
    the scalar sums byte for byte.

    Attributes
    ----------
    model:
        Communication model the aggregation uses.
    entry_stage:
        Stage of each entry.
    entry_m:
        Replication count ``m_i`` of the entry's stage (the ``C_comp``
        divisor), as float.
    in_entry, in_src, in_file, in_window / out_entry, out_dst,
    out_file, out_window:
        Flattened transfer terms of the input (resp. output) port sums:
        owning entry, peer slot, file index, and the per-entry
        round-robin window divisor (1.0 for entries with no terms, whose
        total stays ``+0.0``).
    """

    model: CommModel
    entry_stage: npt.NDArray[np.int64]
    entry_m: npt.NDArray[np.int64]
    in_entry: npt.NDArray[np.int64]
    in_src: npt.NDArray[np.int64]
    in_file: npt.NDArray[np.int64]
    in_window: npt.NDArray[np.float64]
    out_entry: npt.NDArray[np.int64]
    out_dst: npt.NDArray[np.int64]
    out_file: npt.NDArray[np.int64]
    out_window: npt.NDArray[np.float64]

    @property
    def n_entries(self) -> int:
        """Number of used processors (= scalar report entries)."""
        return int(self.entry_stage.size)

    def components(
        self, inst: Instance
    ) -> tuple[npt.NDArray[np.float64], npt.NDArray[np.float64], npt.NDArray[np.float64]]:
        """Per-entry ``(cin, ccomp, cout)`` of ``inst`` (vectorized).

        Bit-identical to the scalar
        :class:`~repro.core.cycle_time.ProcessorCycleTime` fields.
        """
        procs = np.asarray(inst.mapping.used_processors, dtype=np.int64)
        bw = inst.platform.bandwidths
        return self._components(
            np.asarray(inst.application.works, dtype=float),
            inst.platform.speeds[procs],
            np.asarray(inst.application.file_sizes, dtype=float),
            bw[procs[self.in_src], procs[self.in_entry]],
            bw[procs[self.out_entry], procs[self.out_dst]],
        )

    def _components(
        self,
        works: npt.NDArray[np.float64],
        speeds: npt.NDArray[np.float64],
        sizes: npt.NDArray[np.float64],
        bw_in: npt.NDArray[np.float64],
        bw_out: npt.NDArray[np.float64],
    ) -> tuple[npt.NDArray[np.float64], npt.NDArray[np.float64], npt.NDArray[np.float64]]:
        """``(cin, ccomp, cout)`` from slot-space operands of one
        instance (1-D) or of a group (2-D, one row per instance)."""
        ccomp = works.take(self.entry_stage, axis=-1) / speeds / self.entry_m
        cin = self._totals(sizes.take(self.in_file, axis=-1) / bw_in, self.in_entry, self.in_window)
        cout = self._totals(
            sizes.take(self.out_file, axis=-1) / bw_out, self.out_entry, self.out_window
        )
        return cin, ccomp, cout

    def _totals(
        self,
        terms: npt.NDArray[np.float64],
        entry: npt.NDArray[np.int64],
        window: npt.NDArray[np.float64],
    ) -> npt.NDArray[np.float64]:
        """Per-entry port totals of ``terms``, divided by the window.

        ``size / inf == +0.0`` matches ``Platform.comm_time``'s fast-link
        branch.  ``np.bincount`` keyed by ``(row, entry)`` scans its input
        once in C order, so each row's terms add left to right in term
        order, starting from ``0.0`` — the scalar ``sum()`` byte for byte.
        """
        n = self.n_entries
        if terms.ndim == 1:
            return np.bincount(entry, weights=terms, minlength=n) / window
        B = terms.shape[0]
        keys = (np.arange(B)[:, None] * n + entry).ravel()
        totals = np.bincount(keys, weights=terms.ravel(), minlength=B * n)
        return totals.reshape(B, n) / window

    def mct(self, inst: Instance) -> float:
        """``M_ct`` of ``inst`` — equals ``cycle_times(inst, model).mct``."""
        return float(self._cexec(*self.components(inst)).max())

    def _cexec(
        self,
        cin: npt.NDArray[np.float64],
        ccomp: npt.NDArray[np.float64],
        cout: npt.NDArray[np.float64],
    ) -> npt.NDArray[np.float64]:
        if self.model.overlap:
            return np.maximum(np.maximum(cin, ccomp), cout)
        return (cin + ccomp) + cout

    def verdict(self, inst: Instance, period: float,
                rel_tol: float = DEFAULT_REL_TOL) -> tuple[float, bool, float]:
        """``(mct, has_critical_resource, relative_gap)`` for a period.

        Same formulas as
        :func:`repro.algorithms.bounds.classify_critical_resource`, minus
        the per-resource report object the batched path never reads.
        """
        mct = self.mct(inst)
        gap = (period - mct) / mct if mct > 0 else 0.0
        return mct, gap <= rel_tol, gap

    def components_many(
        self, group: Sequence[Instance] | SlotTimes
    ) -> tuple[npt.NDArray[np.float64], npt.NDArray[np.float64], npt.NDArray[np.float64]]:
        """Per-entry ``(cin, ccomp, cout)`` of a whole group — ``(B, n)``.

        Row ``b`` equals ``components(group[b])`` bit for bit: the same
        doubles, gathered into slot space
        (:class:`~repro.petri.builder.SlotTimes`; pass one to share the
        skeleton's gather), go through the same expressions row by row.
        """
        times = SlotTimes.of(group)
        return self._components(
            times.works,
            times.speeds,
            times.sizes,
            times.bandwidths[:, self.in_src, self.in_entry],
            times.bandwidths[:, self.out_entry, self.out_dst],
        )

    def mct_many(self, group: Sequence[Instance] | SlotTimes) -> npt.NDArray[np.float64]:
        """``M_ct`` of every instance of a group — shape ``(B,)``."""
        return self._cexec(*self.components_many(group)).max(axis=1)

    def verdict_many(
        self,
        group: Sequence[Instance] | SlotTimes,
        periods: npt.NDArray[np.float64],
        rel_tol: float = DEFAULT_REL_TOL,
    ) -> tuple[npt.NDArray[np.float64], npt.NDArray[np.bool_], npt.NDArray[np.float64]]:
        """Batched :meth:`verdict` — ``(mct, critical, gap)`` arrays.

        ``periods`` aligns with ``group``; entry ``b`` of each returned
        array is bit-identical to ``verdict(group[b], periods[b],
        rel_tol)``.
        """
        mct = self.mct_many(group)
        periods = np.asarray(periods, dtype=float)
        gap = np.zeros(mct.size)
        pos = mct > 0
        gap[pos] = (periods[pos] - mct[pos]) / mct[pos]
        return mct, gap <= rel_tol, gap


def build_cycle_time_plan(
    inst: Instance, model: CommModel | str
) -> CycleTimePlan:
    """Extract the cycle-time index arrays from one representative.

    Any instance of the topology group works: the entry list, term
    layout and window divisors depend only on the replica counts (and
    the model, which only affects aggregation).
    """
    model = CommModel.parse(model)
    if TELEMETRY.enabled:
        TELEMETRY.count("engine.plan_builds")
    counts = inst.mapping.replication_counts
    as_i = lambda xs: np.asarray(xs, dtype=np.int64)  # noqa: E731
    in_entry, in_src, in_file, in_window = _port_terms(counts, -1)
    out_entry, out_dst, out_file, out_window = _port_terms(counts, +1)
    return CycleTimePlan(
        model=model,
        entry_stage=np.repeat(np.arange(len(counts)), counts),
        entry_m=np.repeat(np.asarray(counts, dtype=float), counts),
        in_entry=as_i(in_entry),
        in_src=as_i(in_src),
        in_file=as_i(in_file),
        in_window=np.asarray(in_window),
        out_entry=as_i(out_entry),
        out_dst=as_i(out_dst),
        out_file=as_i(out_file),
        out_window=np.asarray(out_window),
    )


def _port_terms(
    counts: tuple[int, ...], step: int
) -> tuple[list[int], list[int], list[int], list[float]]:
    """Input (``step = -1``) or output (``+1``) port terms over slots.

    Returns ``(entry, peer, file, window)``: per term its entry, peer
    slot in stage ``stage + step`` and file index, in the scalar
    path's entry-major, ``j``-increasing order, and per entry the
    round-robin window ``lcm(m_i, m_peer)`` (1.0 without a peer stage).
    """
    first = [sum(counts[:i]) for i in range(len(counts))]
    entry: list[int] = []
    peer: list[int] = []
    files: list[int] = []
    window: list[float] = []
    for stage, m_i in enumerate(counts):
        other = stage + step
        m_o = counts[other] if 0 <= other < len(counts) else 0
        win = lcm_all([m_i, m_o]) if m_o else 1
        for replica in range(m_i):
            window.append(float(win))
            if not m_o:  # first stage's input / last stage's output
                continue
            for j in range(replica, win, m_i):
                entry.append(first[stage] + replica)
                peer.append(first[other] + j % m_o)
                files.append(min(stage, other))
    return entry, peer, files, window
