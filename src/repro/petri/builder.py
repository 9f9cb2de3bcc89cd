"""TPN construction for both communication models (Sections 3.2 and 3.3).

The construction is ``O(m n)`` in the size of the produced net, with
``m = lcm(m_0, ..., m_{n-1})`` rows and ``2n - 1`` columns:

* **row places** (both models, Figure 3a): within row ``j``,
  ``T^j_{2i} -> T^j_{2i+1} -> T^j_{2i+2}`` — a file cannot be sent before
  it is computed, a stage cannot start before its input file arrives;
* **OVERLAP ONE-PORT** (Figures 3b-3d): for every resource (CPU, output
  port, input port) a round-robin circuit chains, in increasing row
  order, all transitions of the column where that resource appears; the
  wrap-around place carries the single token — a resource serves one data
  set at a time and in round-robin order;
* **STRICT ONE-PORT** (Figure 5a): one circuit per *processor* chaining
  ``send(row j_l) -> receive(row j_{l+1})`` — the next reception starts
  only after the current receive/compute/send sequence completed.  For
  first (resp. last) stage processors the circuit enters at the
  computation (resp. exits at the computation).

Since ``m`` can grow multiplicatively (Example C: ``m = 10395``), the
builder enforces a configurable row budget and raises
:class:`~repro.errors.ReplicationExplosionError` beyond it.

One structure builder serves every consumer.  :func:`tpn_structure`
lays a net out as flat arrays from the model and the per-stage replica
counts alone — transitions row-major, places in the order above (flow
places row-major, then per stage, per replica, its circuits).  The
arrays name replica *slots*, not processors: slot ``s`` is position
``s`` of :attr:`Mapping.used_processors` (stage-then-replica order), so
every mapping with the same counts shares one layout.
:func:`build_tpn` resolves the slots and materializes the
:class:`TimedEventGraph` view of those arrays, and
:func:`repro.engine.skeleton.build_skeleton` hands them to the Howard
plan directly, without any per-place objects.  :class:`SlotTimes`
gathers the time operands of a group of instances into slot space, the
batched counterpart of :func:`stamp_durations`'s per-instance reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np
import numpy.typing as npt

from ..core.instance import Instance
from ..core.mapping import Mapping
from ..core.models import CommModel
from ..errors import ReplicationExplosionError, ValidationError
from .net import Place, PlaceKind, TimedEventGraph, Transition

__all__ = [
    "build_tpn", "tpn_structure", "stamp_durations", "SlotTimes", "TpnStructure",
    "DEFAULT_MAX_ROWS",
]

#: Default budget on the number of TPN rows (``m = lcm(m_i)``).
DEFAULT_MAX_ROWS = 20_000

#: Code of each place kind in :attr:`TpnStructure.kind`: its index in
#: :attr:`PlaceKind.ALL`.
_KIND_CODE = {kind: code for code, kind in enumerate(PlaceKind.ALL)}
#: Resource-name suffix per kind code; flow places own no resource.
_RESOURCE_SUFFIX = tuple(
    {PlaceKind.RR_COMP: ":comp", PlaceKind.RR_OUT: ":out", PlaceKind.RR_IN: ":in",
     PlaceKind.RCS: ""}.get(kind) for kind in PlaceKind.ALL
)


@dataclass(frozen=True)
class TpnStructure:
    """Weight-free layout of a TPN as flat arrays.

    Transition ``t = row * n_columns + column`` is described by
    ``comp_mask[t]`` (computation or transmission), ``stage_or_file[t]``
    and its replica slots ``slot_u[t]`` (executor, resp. sender) and
    ``slot_v[t]`` (receiver, ``-1`` on computations).  Place ``p`` is the
    edge ``src[p] -> dst[p]`` holding ``tokens[p]`` tokens; ``kind[p]``
    indexes :attr:`PlaceKind.ALL` and ``resource_slot[p]`` is the slot
    owning its circuit (``-1`` for flow places).  Slot ``s`` stands for
    processor ``mapping.used_processors[s]``.
    """

    model: CommModel
    n_stages: int
    n_rows: int
    n_columns: int
    comp_mask: npt.NDArray[np.bool_]
    stage_or_file: npt.NDArray[np.int64]
    slot_u: npt.NDArray[np.int64]
    slot_v: npt.NDArray[np.int64]
    src: npt.NDArray[np.int64]
    dst: npt.NDArray[np.int64]
    tokens: npt.NDArray[np.int64]
    kind: npt.NDArray[np.int8]
    resource_slot: npt.NDArray[np.int64]

    @property
    def n_transitions(self) -> int:
        """``m * (2n - 1)``."""
        return self.n_rows * self.n_columns

    def resources(self, processors: Sequence[int]) -> list[str]:
        """Resource name of every place (``"P0:out"``, ``"P3"``, ``""`` ...).

        ``processors`` resolves slots, i.e. a mapping's ``used_processors``.
        """
        return [
            "" if _RESOURCE_SUFFIX[k] is None else f"P{processors[s]}{_RESOURCE_SUFFIX[k]}"
            for k, s in zip(self.kind.tolist(), self.resource_slot.tolist())
        ]


def tpn_structure(
    mapping: Mapping,
    model: CommModel | str,
    max_rows: int | None = DEFAULT_MAX_ROWS,
) -> TpnStructure:
    """Lay out the TPN of ``mapping`` under ``model`` as flat arrays.

    Depends on the model and ``mapping.replication_counts`` only, never
    on processor ids or times.  Raises
    :class:`~repro.errors.ReplicationExplosionError` when ``m = lcm(m_i)``
    exceeds ``max_rows`` (``None`` disables the check).
    """
    model = CommModel.parse(model)
    n = mapping.n_stages
    m = mapping.num_paths
    if max_rows is not None and m > max_rows:
        raise ReplicationExplosionError(m, max_rows)
    n_cols = 2 * n - 1

    # Transitions, row-major: t = row * n_cols + col.  slot[row, i] is the
    # replica slot running stage i for that row's data sets (round robin).
    counts = mapping.replication_counts
    first_slot = np.cumsum((0,) + counts[:-1], dtype=np.int64)
    t = np.arange(m * n_cols)
    row, col = np.divmod(t, n_cols)
    stage = col // 2
    slot = first_slot + np.arange(m)[:, None] % np.asarray(counts)
    comp_mask = col % 2 == 0
    slot_u = slot[row, stage]
    slot_v = np.where(comp_mask, -1, slot[row, np.minimum(stage + 1, n - 1)])

    # Round-robin circuits, one table entry per (stage, replica, circuit)
    # in build order.  Replica r of a stage with m_i replicas chains rows
    # r, r + m_i, ...; its place l goes (row_l, col_out) -> (row_{l+1},
    # col_in), and the wrap-around place (last row back to the first)
    # carries the single token.
    table: list[tuple[int, int, int, int, int, int]] = []
    for i, m_i in enumerate(counts):
        if model.overlap:
            circuits = [(2 * i, 2 * i, PlaceKind.RR_COMP)]  # constraint 2: CPU
            if i < n - 1:  # constraint 3: output port
                circuits.append((2 * i + 1, 2 * i + 1, PlaceKind.RR_OUT))
            if i > 0:  # constraint 4: input port
                circuits.append((2 * i - 1, 2 * i - 1, PlaceKind.RR_IN))
        else:
            # strict: one receive -> compute -> send serialization circuit.
            col_first = 2 * i - 1 if i > 0 else 2 * i
            col_last = 2 * i + 1 if i < n - 1 else 2 * i
            circuits = [(col_last, col_first, PlaceKind.RCS)]
        table.extend(
            (r, m_i, col_out, col_in, _KIND_CODE[kind], int(first_slot[i]) + r)
            for r in range(m_i)
            for col_out, col_in, kind in circuits
        )
    first, step, col_out, col_in, code, owner = np.array(table, dtype=np.int64).T
    length = m // step
    circ = np.repeat(np.arange(len(table)), length)
    pos = np.arange(circ.size) - np.repeat(np.cumsum(length, dtype=np.int64) - length, length)
    circ_src = (first[circ] + step[circ] * pos) * n_cols + col_out[circ]
    circ_dst = (first[circ] + step[circ] * ((pos + 1) % length[circ])) * n_cols + col_in[circ]

    # Constraint 1: row-internal flow places, row-major, come first.
    flow = t[col < n_cols - 1]
    n_flow = flow.size
    return TpnStructure(
        model=model,
        n_stages=n,
        n_rows=m,
        n_columns=n_cols,
        comp_mask=comp_mask,
        stage_or_file=stage,
        slot_u=slot_u,
        slot_v=slot_v,
        src=np.concatenate([flow, circ_src]),
        dst=np.concatenate([flow + 1, circ_dst]),
        tokens=np.concatenate(
            [np.zeros(n_flow, dtype=np.int64), (pos == length[circ] - 1).astype(np.int64)]
        ),
        kind=np.concatenate([np.zeros(n_flow, dtype=np.int8), code[circ].astype(np.int8)]),
        resource_slot=np.concatenate([np.full(n_flow, -1, dtype=np.int64), owner[circ]]),
    )


def stamp_durations(
    inst: Instance,
    comp_mask: npt.NDArray[np.bool_],
    stage_or_file: npt.NDArray[np.int64],
    proc_u: npt.NDArray[np.int64],
    proc_v: npt.NDArray[np.int64],
) -> npt.NDArray[np.float64]:
    """Firing durations of ``inst`` on a transition layout (vectorized).

    ``w_i / Pi_u`` for computations, ``delta_i / b_{u,v}`` for
    transmissions: the same IEEE-754 divisions as
    :meth:`Instance.comp_time` / :meth:`Instance.comm_time`, so the
    values are bit-identical (``size / inf`` is ``0.0``, matching
    :meth:`Platform.comm_time`'s fast-link case).
    """
    dur = np.empty(comp_mask.size)
    works = np.asarray(inst.application.works, dtype=float)
    dur[comp_mask] = works[stage_or_file[comp_mask]] / inst.platform.speeds[proc_u[comp_mask]]
    comm = ~comp_mask
    if comm.any():
        sizes = np.asarray(inst.application.file_sizes, dtype=float)
        dur[comm] = sizes[stage_or_file[comm]] / inst.platform.bandwidths[
            proc_u[comm], proc_v[comm]
        ]
    return dur


@dataclass(frozen=True)
class SlotTimes:
    """Time operands of a topology group's rows, gathered into slot space.

    Row ``b`` holds instance ``b``'s stage ``works``, ``file_sizes``,
    ``speeds[s]`` of the processor in slot ``s`` and ``bandwidths[s, t]``
    of the link between the processors in slots ``s`` and ``t``.  Slot
    space has the same width ``S = sum(m_i)`` for every member of a
    group, whatever the size of its platform.
    """

    works: npt.NDArray[np.float64]
    sizes: npt.NDArray[np.float64]
    speeds: npt.NDArray[np.float64]
    bandwidths: npt.NDArray[np.float64]

    @classmethod
    def of(cls, group: Sequence[Instance] | SlotTimes) -> SlotTimes:
        """Gather ``group`` (instances with equal replica counts) once.

        One fancy-index per operand: the platforms' speeds and raveled
        bandwidths are concatenated and read at per-row offsets plus
        ``used_processors[slot]``.  An already gathered group is
        returned as is.  An empty group has no slot space, and members
        whose ``mapping.replication_counts`` differ from the first
        member's would gather slots of another topology; both raise
        :class:`~repro.errors.ValidationError`.
        """
        if isinstance(group, SlotTimes):
            return group
        B = len(group)
        if not B:
            raise ValidationError("an empty group has no slot space")
        counts = group[0].mapping.replication_counts
        for b, inst in enumerate(group):
            if inst.mapping.replication_counts != counts:
                raise ValidationError(
                    f"group member {b} has replica counts "
                    f"{inst.mapping.replication_counts}, member 0 has {counts}: "
                    f"a slot-space group shares one count vector"
                )
        flat = chain.from_iterable
        # slots[b, s]: processor of slot s in row b; p[b]: platform size
        slots = np.fromiter(
            flat(flat(i.mapping.assignments for i in group)), dtype=np.int64
        ).reshape(B, -1)
        p = np.fromiter((i.platform.speeds.size for i in group), dtype=np.int64, count=B)
        speed_at = (np.cumsum(p, dtype=np.int64) - p)[:, None] + slots
        # flat index of bandwidths[slots[b, s], 0] in the raveled concatenation
        bw_row = (np.cumsum(p * p, dtype=np.int64) - p * p)[:, None] + slots * p[:, None]
        return cls(
            works=np.fromiter(flat(i.application.works for i in group), dtype=float).reshape(B, -1),
            sizes=np.fromiter(
                flat(i.application.file_sizes for i in group), dtype=float
            ).reshape(B, -1),
            speeds=np.concatenate([i.platform.speeds for i in group])[speed_at],
            bandwidths=np.concatenate([i.platform.bandwidths.ravel() for i in group])[
                bw_row[:, :, None] + slots[:, None, :]
            ],
        )


def build_tpn(
    inst: Instance,
    model: CommModel | str,
    max_rows: int | None = DEFAULT_MAX_ROWS,
) -> TimedEventGraph:
    """Build the timed Petri net of a mapped instance.

    The net is the object view of :func:`tpn_structure`'s arrays, with
    slots resolved to ``inst``'s processors and firing durations
    stamped from ``inst``.

    Parameters
    ----------
    inst:
        The validated problem instance.
    model:
        Communication model (``"overlap"`` or ``"strict"``).
    max_rows:
        Budget on ``m = lcm(m_i)``; ``None`` disables the check.

    Returns
    -------
    TimedEventGraph
        The net, with ``meta`` recording the model and dimensions.

    Examples
    --------
    Example A of the paper yields a 6-row, 7-column net:

    >>> from repro.experiments.examples_paper import example_a
    >>> net = build_tpn(example_a(), "overlap")
    >>> (net.n_rows, net.n_columns, net.n_transitions)
    (6, 7, 42)
    """
    st = tpn_structure(inst.mapping, model, max_rows=max_rows)
    n_cols = st.n_columns
    net = TimedEventGraph(n_rows=st.n_rows, n_columns=n_cols)
    net.meta.update(
        model=st.model.value,
        n_stages=st.n_stages,
        m=st.n_rows,
        replication=inst.mapping.replication_counts,
    )
    used = inst.mapping.used_processors
    procs = np.asarray(used, dtype=np.int64)
    proc_u = procs[st.slot_u]
    proc_v = np.where(st.slot_v < 0, -1, procs[st.slot_v])
    durations = stamp_durations(inst, st.comp_mask, st.stage_or_file, proc_u, proc_v)
    net.transitions = [
        Transition(t, t // n_cols, t % n_cols, d, "comp", s, (u,))
        if comp
        else Transition(t, t // n_cols, t % n_cols, d, "comm", s, (u, v))
        for t, (d, comp, s, u, v) in enumerate(
            zip(
                durations.tolist(),
                st.comp_mask.tolist(),
                st.stage_or_file.tolist(),
                proc_u.tolist(),
                proc_v.tolist(),
            )
        )
    ]
    net.places = [
        Place(p, s, d, tok, PlaceKind.ALL[k], res)
        for p, (s, d, tok, k, res) in enumerate(
            zip(
                st.src.tolist(),
                st.dst.tolist(),
                st.tokens.tolist(),
                st.kind.tolist(),
                st.resources(used),
            )
        )
    ]
    return net
