"""The process-local collector: counter channel + span channel.

Design rules the rest of the stack relies on:

* ``TELEMETRY`` starts disabled; :meth:`Telemetry.count` and
  :meth:`Telemetry.span` are no-ops until :meth:`Telemetry.enable`
  runs.  Hot loops additionally guard on ``TELEMETRY.enabled`` so the
  disabled cost is a single branch (the no-op guard asserted by
  ``tests/test_telemetry.py``).
* Counters are exact integers merged by summation —
  order-independent, so snapshots collected from pool workers or
  fabric processes combine to the same totals regardless of completion
  order (NUM205-safe).
* Spans record ``time.perf_counter`` offsets relative to the
  collector's enable time plus a ``time.time`` epoch, so traces from
  different processes can be aligned on one timeline.  Span values are
  never read back by logic: the two channels only meet in trace files.

Counter taxonomy
----------------
*Contract* counters count work the partitioning cannot change: each
campaign point is evaluated by exactly one worker and stored exactly
once, so their totals are bit-identical across serial, ``n_jobs > 1``
and multi-worker fabric runs of the same spec.  Everything else
(cache hits, Howard rounds of lockstep groups, lease traffic ...) is
*diagnostic*: deterministic for a fixed execution plan, but legitimately
dependent on chunking and worker count.  Only contract counters may be
compared across partitionings or gated by ``run_all.py --compare``.
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field
from types import TracebackType

__all__ = [
    "CONTRACT_COUNTERS",
    "TELEMETRY",
    "SpanRecord",
    "Telemetry",
    "contract_counters",
    "is_contract_counter",
]

#: Partition-invariant counter names: identical totals for serial,
#: ``n_jobs > 1`` and ``--workers N`` runs of one campaign spec.
CONTRACT_COUNTERS = frozenset(
    {
        "engine.points",
        "engine.paths",
        "store.puts",
        "store.quarantines",
    }
)

#: Per-method splits of ``engine.points`` are contract counters too:
#: the method choice is a pure function of the point.
_CONTRACT_PREFIXES = ("engine.points.",)


def is_contract_counter(name: str) -> bool:
    """Whether ``name`` belongs to the partition-invariant contract set."""
    return name in CONTRACT_COUNTERS or name.startswith(_CONTRACT_PREFIXES)


def contract_counters(counters: Mapping[str, int]) -> dict[str, int]:
    """The contract subset of a counter mapping, sorted by name."""
    return {
        name: counters[name]
        for name in sorted(counters)
        if is_contract_counter(name)
    }


@dataclass
class SpanRecord:
    """One closed wall-clock interval in a process's span tree.

    ``t0``/``t1`` are seconds relative to the collector's enable-time
    origin; ``parent`` is the index of the enclosing span (-1 at the
    top level).  ``attrs`` holds small deterministic annotations (row
    counts, worker indexes) — never timing values.
    """

    index: int
    parent: int
    name: str
    t0: float
    t1: float
    attrs: dict[str, float | int | str] = field(default_factory=dict)

    def as_dict(self) -> dict[str, object]:
        """JSON-ready form with deterministically ordered attrs."""
        return {
            "attrs": {key: self.attrs[key] for key in sorted(self.attrs)},
            "index": self.index,
            "name": self.name,
            "parent": self.parent,
            "t0": self.t0,
            "t1": self.t1,
        }


class _Span(AbstractContextManager[None]):
    """Live span context: records its interval on the collector."""

    __slots__ = ("_attrs", "_name", "_record", "_telemetry")

    def __init__(
        self,
        telemetry: "Telemetry",
        name: str,
        attrs: dict[str, float | int | str],
    ) -> None:
        self._telemetry = telemetry
        self._name = name
        self._attrs = attrs
        self._record: SpanRecord | None = None

    def __enter__(self) -> None:
        telemetry = self._telemetry
        record = SpanRecord(
            index=len(telemetry.spans),
            parent=telemetry.stack[-1] if telemetry.stack else -1,
            name=self._name,
            t0=0.0,
            t1=0.0,
            attrs=self._attrs,
        )
        telemetry.spans.append(record)
        telemetry.stack.append(record.index)
        self._record = record
        record.t0 = time.perf_counter() - telemetry.origin

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        t1 = time.perf_counter()
        telemetry = self._telemetry
        record = self._record
        if record is not None:
            record.t1 = t1 - telemetry.origin
            telemetry.stack.pop()


#: Shared no-op context returned by ``span()`` while disabled: zero
#: allocation on the disabled path.
_NULL_SPAN: AbstractContextManager[None] = nullcontext()


class Telemetry:
    """Per-process collector for both channels.

    Use the module singleton :data:`TELEMETRY`; constructing private
    collectors is only useful in tests.
    """

    __slots__ = (
        "counters",
        "enabled",
        "epoch",
        "origin",
        "spans",
        "stack",
        "worker",
    )

    def __init__(self) -> None:
        self.enabled = False
        self.worker = "main"
        self.epoch = 0.0
        self.origin = 0.0
        self.counters: dict[str, int] = {}
        self.spans: list[SpanRecord] = []
        self.stack: list[int] = []

    def enable(self, worker: str = "main") -> None:
        """Reset the collector and switch collection on.

        ``worker`` names this process in merged traces (``main``,
        ``worker-0`` ...).  Always called explicitly at process entry:
        forked pool workers inherit the parent's collector state, so
        every subprocess entry point either enables (fresh) or disables
        its copy before doing any work.
        """
        self.worker = worker
        self.counters = {}
        self.spans = []
        self.stack = []
        self.epoch = time.time()
        self.origin = time.perf_counter()
        self.enabled = True

    def disable(self) -> None:
        """Switch collection off (collected data stays readable)."""
        self.enabled = False

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (no-op while disabled)."""
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + n

    def merge_counters(self, other: Mapping[str, int]) -> None:
        """Sum a subprocess's counter snapshot into this collector."""
        if self.enabled:
            for name in sorted(other):
                self.counters[name] = self.counters.get(name, 0) + other[name]

    def span(
        self, name: str, **attrs: float | int | str
    ) -> AbstractContextManager[None]:
        """A context manager timing one named interval (no-op while disabled)."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, attrs)

    def counter_snapshot(self) -> dict[str, int]:
        """Copy of the counter channel, sorted by name."""
        return {name: self.counters[name] for name in sorted(self.counters)}


#: The process-wide collector every instrumentation point guards on.
TELEMETRY = Telemetry()
