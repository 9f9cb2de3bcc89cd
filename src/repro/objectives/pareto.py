"""Deterministic Pareto archive over the minimization-space plane.

The portfolio's multi-criteria mode collects every evaluated mapping
into one :class:`ParetoArchive`: the set of mutually non-dominated
(period, latency, reliability) points, each carrying the mapping that
achieved it.  Everything here is deliberately boring and deterministic:

* dominance compares :meth:`EvalResult.vector` tuples (reliability is
  already negated into minimization space);
* insertion is first-wins on exact vector ties, and dominated entries
  are evicted preserving insertion order — so the archive contents are
  a pure function of the *sequence* of candidates offered;
* :meth:`ParetoArchive.front` sorts by (vector, source) so the exported
  front bytes do not depend on insertion order at all.

Searches feed candidates in a fixed direction-major order, which makes
archive contents identical across reruns and across serial vs fabric
campaign runs — the acceptance bar of the objective plane.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Any

from ..telemetry import TELEMETRY
from ..utils import canonical_json
from .base import EvalResult, parse_objectives

__all__ = ["dominates", "ParetoEntry", "ParetoArchive"]


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when ``a`` Pareto-dominates ``b`` in minimization space.

    Componentwise ``a <= b`` with at least one strict improvement.

    >>> dominates((1.0, 2.0), (1.0, 3.0))
    True
    >>> dominates((1.0, 3.0), (2.0, 1.0))
    False
    >>> dominates((1.0, 2.0), (1.0, 2.0))
    False
    """
    if len(a) != len(b):
        raise ValueError("vectors must have equal length")
    strict = False
    for x, y in zip(a, b):
        if x > y:
            return False
        if x < y:
            strict = True
    return strict


@dataclass(frozen=True)
class ParetoEntry:
    """One non-dominated point: objective values + the mapping behind it.

    ``source`` records deterministic provenance (which scalarization
    direction / epsilon level produced the point) and doubles as the
    sort tie-break for exactly co-located vectors.
    """

    result: EvalResult
    assignments: tuple[tuple[int, ...], ...]
    source: str = ""

    @property
    def vector(self) -> tuple[float, ...]:
        """Minimization-space objective vector."""
        return self.result.vector()

    def to_dict(self) -> dict[str, Any]:
        """Plain-data representation (canonical-JSON friendly)."""
        return {
            "assignments": [list(procs) for procs in self.assignments],
            "source": self.source,
            **self.result.to_dict(),
        }


class ParetoArchive:
    """Mutually non-dominated set with deterministic semantics.

    >>> from repro.core.throughput import PeriodResult
    >>> from repro.core.models import CommModel
    >>> from repro.objectives.base import EvalResult
    >>> def point(period, latency):
    ...     pr = PeriodResult(period=period, throughput=1 / period,
    ...                       model=CommModel.parse("overlap"),
    ...                       method="polynomial",
    ...                       m=1, mct=period, has_critical_resource=True)
    ...     return EvalResult(objectives=("period", "latency"),
    ...                       period_result=pr, latency=latency)
    >>> archive = ParetoArchive(("period", "latency"))
    >>> archive.add(point(10.0, 5.0), assignments=((0,),))
    True
    >>> archive.add(point(12.0, 6.0), assignments=((1,),))   # dominated
    False
    >>> archive.add(point(8.0, 7.0), assignments=((2,),))    # trade-off
    True
    >>> [e.vector for e in archive.front()]
    [(8.0, 7.0), (10.0, 5.0)]
    """

    def __init__(self, objectives: Sequence[str] | str) -> None:
        self.objectives = parse_objectives(objectives)
        self._entries: list[ParetoEntry] = []

    def __len__(self) -> int:
        return len(self._entries)

    def add(
        self,
        result: EvalResult,
        assignments: Sequence[Sequence[int]],
        source: str = "",
    ) -> bool:
        """Offer one candidate; return True when it enters the archive.

        Rejected when an incumbent dominates it *or* ties its vector
        exactly (first-wins); otherwise inserted, evicting every
        incumbent it dominates (survivor order preserved).
        """
        entry = ParetoEntry(
            result=result,
            assignments=tuple(tuple(int(u) for u in procs)
                              for procs in assignments),
            source=source,
        )
        vector = entry.vector
        for incumbent in self._entries:
            iv = incumbent.vector
            if iv == vector or dominates(iv, vector):
                if TELEMETRY.enabled:
                    TELEMETRY.count("pareto.rejected")
                return False
        self._entries = [
            e for e in self._entries if not dominates(vector, e.vector)
        ]
        self._entries.append(entry)
        if TELEMETRY.enabled:
            TELEMETRY.count("pareto.inserted")
        return True

    def extend(self, entries: Iterable[ParetoEntry]) -> int:
        """Offer entries in order (e.g. merging another archive's front)."""
        inserted = 0
        for entry in entries:
            if self.add(entry.result, entry.assignments, source=entry.source):
                inserted += 1
        return inserted

    def front(self) -> list[ParetoEntry]:
        """The archive sorted by (vector, source, assignments).

        The sort key covers every field that can differ, so the
        returned order — and any bytes derived from it — is independent
        of insertion order.
        """
        return sorted(
            self._entries,
            key=lambda e: (e.vector, e.source, e.assignments),
        )

    def to_dict(self) -> dict[str, Any]:
        """Plain-data front in deterministic order."""
        return {
            "objectives": list(self.objectives),
            "size": len(self._entries),
            "front": [e.to_dict() for e in self.front()],
        }

    def to_json(self, indent: int | None = 2) -> str:
        """Canonical-JSON text of :meth:`to_dict` (byte-deterministic)."""
        return canonical_json(self.to_dict(), indent=indent)
