"""Deterministic fault injection + the resilience half that survives it.

The campaign fabric's robustness layer, in two symmetric halves:

* **Chaos in** — :data:`FAULTS`, a zero-cost-when-disarmed injection
  plane (the telemetry collector's ``if enabled`` pattern) with named
  sites registered through the store, lease, sync, executor and engine
  layers.  A :class:`FaultPlan` — written explicitly or expanded from a
  crc32-keyed seed — schedules typed faults at those sites: locked
  databases, full disks, torn writes, clock jumps, stalls, real
  SIGKILLs.  Same plan, same workload → same chaos, byte-for-byte.
* **Resilience out** — :class:`RetryPolicy` (bounded exponential
  backoff, deterministic seeded jitter, per-operation budgets) adopted
  by store connect/commit, lease transactions and sync verbs; and the
  degradation ladder: retry → spill committed results to a local
  :class:`SpillJournal` → :func:`heal` (a sync pull of the journal)
  replays them into the store idempotently (``repro-workflow store heal``).

Every fault raised, retry spent and spill written is counted through
:mod:`repro.telemetry` as diagnostic counters (a heal by its pull's
``sync.*``); armed or not, the plane never touches stored values, so
all byte-determinism contracts hold whenever the faults themselves
don't kill the run — and after crashes, resume + heal restores the
exact same bytes.
"""

from __future__ import annotations

from .core import (
    FAULT_KINDS,
    FAULTS,
    INJECTION_SITES,
    FaultEvent,
    FaultPlan,
    FaultPlane,
    Site,
)
from .journal import SpillJournal, heal
from .retry import DEFAULT_RETRY, RetryPolicy, pause

__all__ = [
    "FAULT_KINDS",
    "FAULTS",
    "INJECTION_SITES",
    "FaultEvent",
    "FaultPlan",
    "FaultPlane",
    "Site",
    "SpillJournal",
    "heal",
    "DEFAULT_RETRY",
    "RetryPolicy",
    "pause",
]
