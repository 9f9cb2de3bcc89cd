"""Canonical-JSONL trace files and their deterministic merge.

One trace file per process: a header line (worker name, ``time.time``
epoch, schema), one line per counter (sorted by name), one line per
span (in record order).  Every line is :func:`repro.utils.canonical_json`,
so a trace file's bytes are a pure function of the collected data.

:func:`merge_traces` combines per-worker files into one merged trace —
counters sum (order-independent), spans align on a shared timeline via
the epoch deltas and sort by ``(worker, index)`` — so the merged
structure is a pure function of the input files regardless of argument
order.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from pathlib import Path
from typing import Any

from ..utils import canonical_json
from .core import Telemetry

__all__ = [
    "TRACE_SCHEMA",
    "merge_traces",
    "read_trace",
    "trace_files",
    "write_trace",
]

#: Version stamp on every trace header; bumped when the line shapes change.
TRACE_SCHEMA = 1

#: File-name pattern produced by the campaign runners: ``trace-main.jsonl``
#: plus ``trace-worker-<i>.jsonl`` per fabric worker.
_TRACE_GLOB = "trace-*.jsonl"


def write_trace(path: str | Path, telemetry: Telemetry) -> Path:
    """Write one collector's channels as a canonical-JSONL trace file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [
        canonical_json(
            {
                "epoch": telemetry.epoch,
                "kind": "header",
                "schema": TRACE_SCHEMA,
                "worker": telemetry.worker,
            }
        )
    ]
    for name, value in sorted(telemetry.counters.items()):
        lines.append(
            canonical_json({"kind": "counter", "name": name, "value": value})
        )
    for span in telemetry.spans:
        record = span.as_dict()
        record["kind"] = "span"
        lines.append(canonical_json(record))
    path.write_text("\n".join(lines) + "\n")
    return path


def read_trace(path: str | Path) -> dict[str, Any]:
    """Parse one trace file back into header + counters + span dicts."""
    path = Path(path)
    lines = [line for line in path.read_text().splitlines() if line]
    if not lines:
        raise ValueError(f"empty trace file: {path}")
    header = json.loads(lines[0])
    if header.get("kind") != "header":
        raise ValueError(f"trace file without header line: {path}")
    counters: dict[str, int] = {}
    spans: list[dict[str, Any]] = []
    for line in lines[1:]:
        record = json.loads(line)
        kind = record.pop("kind", None)
        if kind == "counter":
            counters[record["name"]] = int(record["value"])
        elif kind == "span":
            spans.append(record)
        else:
            raise ValueError(f"unknown trace record kind {kind!r} in {path}")
    return {
        "counters": counters,
        "epoch": float(header["epoch"]),
        "schema": int(header["schema"]),
        "spans": spans,
        "worker": str(header["worker"]),
    }


def trace_files(trace_dir: str | Path) -> list[Path]:
    """The trace files under a directory, in sorted (deterministic) order."""
    return sorted(Path(trace_dir).glob(_TRACE_GLOB))


def merge_traces(paths: Sequence[str | Path]) -> dict[str, Any]:
    """Combine per-worker trace files into one deterministic structure.

    Counters sum across workers.  Spans keep their per-worker record
    order but move onto a shared timeline: each worker's offsets shift
    by its epoch delta against the earliest worker, so concurrent spans
    from different processes line up.  The result does not depend on
    the order of ``paths``.
    """
    if not paths:
        raise ValueError("no trace files to merge")
    traces = [read_trace(path) for path in paths]
    by_worker = {trace["worker"]: trace for trace in traces}
    if len(by_worker) != len(traces):
        names = sorted(trace["worker"] for trace in traces)
        raise ValueError(f"duplicate worker names across trace files: {names}")
    base = min(trace["epoch"] for trace in traces)
    counters: dict[str, int] = {}
    spans: list[dict[str, Any]] = []
    for worker in sorted(by_worker):
        trace = by_worker[worker]
        for name in sorted(trace["counters"]):
            counters[name] = counters.get(name, 0) + trace["counters"][name]
        offset = trace["epoch"] - base
        for span in trace["spans"]:
            spans.append(
                {
                    "attrs": span["attrs"],
                    "index": span["index"],
                    "name": span["name"],
                    "parent": span["parent"],
                    "t0": span["t0"] + offset,
                    "t1": span["t1"] + offset,
                    "worker": worker,
                }
            )
    return {
        "counters": {name: counters[name] for name in sorted(counters)},
        "schema": TRACE_SCHEMA,
        "spans": spans,
        "workers": sorted(by_worker),
    }

