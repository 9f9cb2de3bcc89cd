"""Timed event graph data structure for workflow TPN models (Section 3).

The nets built by :mod:`repro.petri.builder` have the *event graph*
property: every place has exactly one input and one output transition.
Transitions carry firing durations; places carry token counts.  The net
is laid out as a matrix of ``m`` rows (one per round-robin path) by
``2n - 1`` columns (computations at even columns, file transmissions at
odd columns) exactly as in the paper.

Period extraction reduces the net to a :class:`~repro.maxplus.graph.RatioGraph`
whose nodes are transitions and whose edges are places, with edge weight
equal to the duration of the place's *input* transition — so a cycle's
weight is the sum of its transitions' durations, and the maximum cycle
ratio is the paper's ``max_C L(C)/t(C)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ValidationError
from ..maxplus.graph import RatioGraph

__all__ = ["Transition", "Place", "TimedEventGraph", "PlaceKind"]


class PlaceKind:
    """Constraint classes of the paper's construction (Section 3.2/3.3)."""

    #: Row-internal precedence: computation -> send -> next computation.
    FLOW = "flow"
    #: Round-robin circuit of a CPU (overlap model, constraint 2).
    RR_COMP = "rr_comp"
    #: Round-robin circuit of an output port (overlap model, constraint 3).
    RR_OUT = "rr_out"
    #: Round-robin circuit of an input port (overlap model, constraint 4).
    RR_IN = "rr_in"
    #: Receive -> compute -> send serialization circuit (strict model).
    RCS = "rcs"

    ALL = (FLOW, RR_COMP, RR_OUT, RR_IN, RCS)


@dataclass(frozen=True)
class Transition:
    """One TPN transition.

    Attributes
    ----------
    index:
        Dense transition id, ``row * (2n - 1) + column``.
    row, column:
        Matrix position; even columns are computations of stage
        ``column // 2``, odd columns transmissions of file ``column // 2``.
    duration:
        Firing time (``w_i / Pi_u`` or ``delta_i / b_{u,v}``).
    kind:
        ``"comp"`` or ``"comm"``.
    stage_or_file:
        Stage index for computations, file index for transmissions.
    procs:
        ``(u,)`` for a computation on ``P_u``; ``(u, v)`` for a
        transmission ``P_u -> P_v``.
    """

    index: int
    row: int
    column: int
    duration: float
    kind: str
    stage_or_file: int
    procs: tuple[int, ...]

    @property
    def label(self) -> str:
        """Human-readable label, e.g. ``S1/P2 [row 3]`` or ``F0:P0->P2``."""
        if self.kind == "comp":
            return f"S{self.stage_or_file}/P{self.procs[0]} [row {self.row}]"
        return f"F{self.stage_or_file}:P{self.procs[0]}->P{self.procs[1]} [row {self.row}]"

    def resources(self, overlap: bool) -> tuple[str, ...]:
        """Hardware resources this transition occupies while firing.

        Under the OVERLAP model a transmission occupies the sender's output
        port and the receiver's input port; a computation occupies the CPU.
        Under the STRICT model all three activities of a processor occupy
        the *whole* processor.
        """
        if self.kind == "comp":
            return (f"P{self.procs[0]}:comp",) if overlap else (f"P{self.procs[0]}",)
        u, v = self.procs
        if overlap:
            return (f"P{u}:out", f"P{v}:in")
        return (f"P{u}", f"P{v}")


@dataclass(frozen=True)
class Place:
    """One TPN place: an edge ``src -> dst`` holding ``tokens`` tokens."""

    index: int
    src: int
    dst: int
    tokens: int
    kind: str
    #: Owning resource for round-robin circuits (e.g. ``"P0:out"``), empty
    #: for flow places.
    resource: str = ""


@dataclass
class TimedEventGraph:
    """A timed Petri net with the event-graph property.

    Built by :func:`repro.petri.builder.build_tpn`; can also be assembled
    manually for tests.  ``meta`` carries provenance (model, instance
    dimensions) used by reports.
    """

    n_rows: int
    n_columns: int
    transitions: list[Transition] = field(default_factory=list)
    places: list[Place] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def add_transition(
        self,
        row: int,
        column: int,
        duration: float,
        kind: str,
        stage_or_file: int,
        procs: tuple[int, ...],
    ) -> Transition:
        """Append a transition at a fixed matrix position."""
        expected = row * self.n_columns + column
        if len(self.transitions) != expected:
            raise ValidationError(
                f"transitions must be added in row-major order: expected "
                f"index {len(self.transitions)}, got position ({row}, {column})"
            )
        t = Transition(expected, row, column, float(duration), kind, stage_or_file, procs)
        self.transitions.append(t)
        return t

    def add_place(
        self, src: int, dst: int, tokens: int, kind: str, resource: str = ""
    ) -> Place:
        """Append a place (an edge between two existing transitions)."""
        n = len(self.transitions)
        if not (0 <= src < n and 0 <= dst < n):
            raise ValidationError(f"place ({src} -> {dst}) references missing transitions")
        if kind not in PlaceKind.ALL:
            raise ValidationError(f"unknown place kind {kind!r}")
        p = Place(len(self.places), int(src), int(dst), int(tokens), kind, resource)
        self.places.append(p)
        return p

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def n_transitions(self) -> int:
        """Number of transitions (``m * (2n - 1)`` for built nets)."""
        return len(self.transitions)

    @property
    def n_places(self) -> int:
        """Number of places."""
        return len(self.places)

    def transition_at(self, row: int, column: int) -> Transition:
        """Transition at matrix position ``(row, column)``."""
        if not (0 <= row < self.n_rows and 0 <= column < self.n_columns):
            raise IndexError(f"position ({row}, {column}) outside {self.n_rows}x{self.n_columns}")
        return self.transitions[row * self.n_columns + column]

    def column_transitions(self, column: int) -> list[Transition]:
        """All transitions of one column, in row order."""
        return [self.transition_at(r, column) for r in range(self.n_rows)]

    def places_by_kind(self, kind: str) -> list[Place]:
        """All places of one constraint class."""
        return [p for p in self.places if p.kind == kind]

    def total_tokens(self) -> int:
        """Total initial marking (one token per round-robin circuit)."""
        return sum(p.tokens for p in self.places)

    # ------------------------------------------------------------------
    # conversion
    # ------------------------------------------------------------------
    def to_ratio_graph(self) -> RatioGraph:
        """Reduce to the cycle-ratio graph (nodes = transitions).

        Edge weight is the duration of the place's input transition so
        cycle weights equal the summed durations of traversed transitions.
        """
        src = np.array([p.src for p in self.places], dtype=np.int64)
        durations = np.array([t.duration for t in self.transitions], dtype=float)
        return RatioGraph.from_arrays(
            self.n_transitions,
            src,
            [p.dst for p in self.places],
            durations[src],
            [p.tokens for p in self.places],
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TimedEventGraph({self.n_rows}x{self.n_columns}, "
            f"{self.n_transitions} transitions, {self.n_places} places, "
            f"model={self.meta.get('model', '?')})"
        )
