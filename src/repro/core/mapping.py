"""Mapping model: replicated stage-to-processor assignment (Section 2).

A mapping assigns stage ``S_i`` to an ordered tuple of ``m_i`` distinct
processors ``(P_{i,0}, ..., P_{i,m_i-1})``.  The paper enforces two rules,
both validated here:

1. a processor executes **at most one** stage;
2. the replicas of a stage serve consecutive data sets in **round-robin**
   order: data set ``j`` of stage ``S_i`` runs on ``P_{i, j mod m_i}``.

The order of processors inside a stage's tuple is therefore semantically
meaningful — it fixes the round-robin phase.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

from ..errors import MappingError
from ..utils import lcm_all

__all__ = ["Mapping"]


class Mapping:
    """Stage-to-processors assignment with replication.

    Parameters
    ----------
    assignments:
        One tuple of processor indices per stage, e.g.
        ``[(0,), (1, 2), (3, 4, 5), (6,)]`` for Example A of the paper
        (``S_1`` replicated on two processors, ``S_2`` on three).
    n_processors:
        Optional platform size used for range validation.  When omitted,
        only non-negativity is checked.

    Examples
    --------
    >>> mp = Mapping([(0,), (1, 2), (3, 4, 5), (6,)])
    >>> mp.replication_counts
    (1, 2, 3, 1)
    >>> mp.num_paths          # Proposition 1: lcm(1, 2, 3, 1)
    6
    >>> mp.processor_for(stage=2, dataset=4)
    4
    """

    __slots__ = ("assignments", "_counts")

    def __init__(
        self,
        assignments: Sequence[Sequence[int]],
        n_processors: int | None = None,
    ) -> None:
        assign: list[tuple[int, ...]] = []
        seen: dict[int, int] = {}
        if len(assignments) < 1:
            raise MappingError("a mapping needs at least one stage")
        for i, procs in enumerate(assignments):
            tup = tuple(int(u) for u in procs)
            if len(tup) == 0:
                raise MappingError(f"stage S{i} is mapped on no processor")
            if len(set(tup)) != len(tup):
                raise MappingError(
                    f"stage S{i} lists a processor twice: {tup}; replicas "
                    f"must be distinct processors"
                )
            for u in tup:
                if u < 0:
                    raise MappingError(f"negative processor index {u} in stage S{i}")
                if n_processors is not None and u >= n_processors:
                    raise MappingError(
                        f"stage S{i} uses processor P{u} but the platform "
                        f"only has {n_processors} processors"
                    )
                if u in seen:
                    raise MappingError(
                        f"processor P{u} is assigned to both S{seen[u]} and "
                        f"S{i}; a processor executes at most one stage"
                    )
                seen[u] = i
            assign.append(tup)
        #: Per-stage tuples of processor indices (round-robin order).
        self.assignments = tuple(assign)
        self._counts = tuple(len(tup) for tup in assign)

    # ------------------------------------------------------------------
    # round-robin semantics
    # ------------------------------------------------------------------
    @property
    def n_stages(self) -> int:
        """Number of stages covered by the mapping."""
        return len(self.assignments)

    @property
    def replication_counts(self) -> tuple[int, ...]:
        """``(m_0, ..., m_{n-1})`` — the per-stage replication factors
        (computed once, at construction)."""
        return self._counts

    @property
    def num_paths(self) -> int:
        """Number of distinct round-robin paths ``m = lcm(m_i)`` (Prop. 1)."""
        return lcm_all(self.replication_counts)

    @property
    def used_processors(self) -> tuple[int, ...]:
        """All processors used by the mapping, in stage-then-replica order."""
        return tuple(u for procs in self.assignments for u in procs)

    def processors_of(self, stage: int) -> tuple[int, ...]:
        """Replica tuple of stage ``S_i`` in round-robin order."""
        return self.assignments[self._check_stage(stage)]

    def replication(self, stage: int) -> int:
        """Replication factor ``m_i`` of stage ``S_i``."""
        return len(self.processors_of(stage))

    def processor_for(self, stage: int, dataset: int) -> int:
        """Processor executing data set ``dataset`` of stage ``stage``.

        Round-robin rule: ``P_{i, dataset mod m_i}``.
        """
        procs = self.processors_of(stage)
        return procs[int(dataset) % len(procs)]

    def stage_of(self, proc: int) -> int | None:
        """Stage executed by processor ``proc``, or ``None`` when unused."""
        for i, procs in enumerate(self.assignments):
            if proc in procs:
                return i
        return None

    def replica_index(self, proc: int) -> int | None:
        """Round-robin position of ``proc`` inside its stage, or ``None``."""
        for procs in self.assignments:
            if proc in procs:
                return procs.index(proc)
        return None

    def comm_pairs(self, i: int) -> list[tuple[int, int]]:
        """Distinct (sender, receiver) pairs carrying file ``F_i``.

        Sender ``P_{i, j mod m_i}`` ships data set ``j`` to receiver
        ``P_{i+1, j mod m_{i+1}}``; the set of realized pairs repeats with
        period ``lcm(m_i, m_{i+1})`` in ``j``.  Pairs are returned in
        increasing data-set order of first use.
        """
        if not 0 <= i < self.n_stages - 1:
            raise IndexError(f"file index {i} out of range [0, {self.n_stages - 1})")
        senders = self.assignments[i]
        receivers = self.assignments[i + 1]
        window = lcm_all([len(senders), len(receivers)])
        return [
            (senders[j % len(senders)], receivers[j % len(receivers)])
            for j in range(window)
        ]

    def comm_structure(self, i: int) -> tuple[int, int, int, int]:
        """``(p, u, v, L)`` decomposition constants for file ``F_i``.

        ``p = gcd(m_i, m_{i+1})`` connected components, each a torus of
        ``u = m_i / p`` senders by ``v = m_{i+1} / p`` receivers;
        ``L = lcm(m_i, m_{i+1})`` is the data-set window after which
        sender/receiver pairings repeat (Theorem 1's ``u``, ``v``, ``p``).
        """
        if not 0 <= i < self.n_stages - 1:
            raise IndexError(f"file index {i} out of range [0, {self.n_stages - 1})")
        a = len(self.assignments[i])
        b = len(self.assignments[i + 1])
        p = math.gcd(a, b)
        return p, a // p, b // p, a // p * b

    def _check_stage(self, i: int) -> int:
        if not 0 <= i < self.n_stages:
            raise IndexError(f"stage index {i} out of range [0, {self.n_stages})")
        return i

    # ------------------------------------------------------------------
    # serialization & dunder
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Plain-data representation."""
        return {"assignments": [list(procs) for procs in self.assignments]}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Mapping":
        """Inverse of :meth:`to_dict`."""
        return cls(data["assignments"])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Mapping({[list(p) for p in self.assignments]})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mapping):
            return NotImplemented
        return self.assignments == other.assignments

    def __hash__(self) -> int:
        return hash(self.assignments)
