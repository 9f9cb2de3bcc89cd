"""CSV/JSON import/export of experiment and search results.

The Table 2 campaign can take minutes at full scale; persisting records
lets analyses (gap histograms, per-family breakdowns) run without
re-sweeping.  The format is plain CSV with a header, one row per
experiment.

Every exporter in this module is **byte-deterministic**: JSON payloads
are dumped with sorted keys (:func:`canonical_json`), floats use
Python's shortest round-trip ``repr``, and CSV rows end in ``"\\n"`` on
every platform.  Two runs that produce equal values produce equal
bytes, so campaign artifacts diff cleanly and the content-addressed
store (:mod:`repro.campaign.store`) can digest them stably.

Portfolio runs (:func:`repro.search.portfolio_search`) persist two
artifacts: the full result as JSON (:func:`portfolio_to_json` — best
mapping plus every restart's trace, round-trippable through
``json.loads``) and the per-restart summary as CSV
(:func:`restarts_to_csv` — one row per restart, for quick spreadsheet
triage of which seed strategy won).  Both back the
``repro-workflow optimize --json/--csv`` flags.

:func:`format_payload` is the CLI's unified ``--format {text,json}``
writer: every subcommand that can speak to machines routes its stdout
payload through it, so ``--format json`` output is canonical JSON
everywhere (the historical ``--json PATH`` / ``--summary-json PATH``
file flags remain as compatibility aliases).
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable

from ..errors import ValidationError
from ..utils import canonical_json

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (search -> engine)
    from ..search.portfolio import PortfolioResult
    from .runner import ExperimentRecord

__all__ = [
    "OUTPUT_FORMATS",
    "canonical_json",
    "format_payload",
    "write_canonical_json",
    "records_to_csv",
    "records_from_csv",
    "portfolio_to_json",
    "restarts_to_csv",
]

#: The CLI's unified machine-output convention (``--format`` choices).
OUTPUT_FORMATS = ("text", "json")


def format_payload(
    payload: object,
    fmt: str = "text",
    render: Callable[[object], str] | None = None,
) -> str:
    """One payload, rendered under the CLI's ``--format`` convention.

    The shared writer behind every subcommand's ``--format {text,json}``
    flag: ``"text"`` goes through the caller's human renderer (``str``
    when none is given), ``"json"`` always goes through
    :func:`canonical_json` — so machine output is byte-deterministic
    regardless of which subcommand produced it.  The returned text ends
    in exactly one newline in both modes.

    >>> format_payload({"b": 2, "a": 1}, "json")
    '{\\n  "a": 1,\\n  "b": 2\\n}\\n'
    >>> format_payload("done", "text")
    'done\\n'
    """
    if fmt not in OUTPUT_FORMATS:
        raise ValidationError(
            f"unknown output format {fmt!r} (expected one of: "
            f"{', '.join(OUTPUT_FORMATS)})"
        )
    if fmt == "json":
        return canonical_json(payload, indent=2) + "\n"
    text = str(payload) if render is None else render(payload)
    return text if text.endswith("\n") else text + "\n"


def write_canonical_json(payload: object, path: str | Path) -> str:
    """Write ``payload`` as canonical JSON (+ trailing newline) to ``path``.

    The one write path every machine-readable CLI artifact goes through
    (run summaries, status dumps, campaign/fabric reports, sync
    reports): sorted keys, ``repr`` floats, ``"\\n"`` newline discipline
    on every platform — so artifacts from different hosts diff and
    digest cleanly.  Returns the exact text written.
    """
    text = canonical_json(payload, indent=2) + "\n"
    Path(path).write_text(text, encoding="utf-8", newline="")
    return text


_COLUMNS = [
    "config_name",
    "model",
    "seed",
    "n_stages",
    "n_procs",
    "replication",
    "m",
    "period",
    "mct",
    "critical",
    "gap",
]


def records_to_csv(
    records: Iterable[ExperimentRecord], path: str | Path | None = None
) -> str:
    """Serialize records to CSV text; also writes ``path`` when given.

    Byte-deterministic: ``repr`` floats, ``"\\n"`` row terminators.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_COLUMNS)
    for r in records:
        writer.writerow([
            r.config_name,
            r.model,
            r.seed,
            r.n_stages,
            r.n_procs,
            " ".join(str(c) for c in r.replication),
            r.m,
            repr(r.period),
            repr(r.mct),
            int(r.critical),
            repr(r.gap),
        ])
    text = buf.getvalue()
    if path is not None:
        Path(path).write_text(text, encoding="utf-8", newline="")
    return text


def records_from_csv(source: str | Path) -> list[ExperimentRecord]:
    """Load records from CSV text or a file path (inverse of export)."""
    from .runner import ExperimentRecord

    if isinstance(source, Path):
        text = source.read_text(encoding="utf-8")
    else:
        text = str(source)
        if "\n" not in text and text.endswith(".csv"):
            text = Path(text).read_text(encoding="utf-8")
    reader = csv.DictReader(io.StringIO(text))
    out: list[ExperimentRecord] = []
    for row in reader:
        out.append(
            ExperimentRecord(
                config_name=row["config_name"],
                model=row["model"],
                seed=int(row["seed"]),
                n_stages=int(row["n_stages"]),
                n_procs=int(row["n_procs"]),
                replication=tuple(
                    int(c) for c in row["replication"].split()
                ),
                m=int(row["m"]),
                period=float(row["period"]),
                mct=float(row["mct"]),
                critical=bool(int(row["critical"])),
                gap=float(row["gap"]),
            )
        )
    return out


_RESTART_COLUMNS = [
    "index",
    "kind",
    "seed",
    "period",
    "evaluations",
    "trace",
    "assignments",
    "rungs",
]


def portfolio_to_json(
    result: "PortfolioResult", path: str | Path | None = None
) -> str:
    """Serialize a portfolio result to JSON; also writes ``path`` if given.

    The payload is ``result.to_dict()``: model, best period/assignments,
    spent vs granted budget, and one entry per restart (kind, seed,
    trace, mapping) — everything needed to reproduce or plot the run.
    """
    text = result.to_json()
    if path is not None:
        Path(path).write_text(text, encoding="utf-8", newline="")
    return text


def restarts_to_csv(
    result: "PortfolioResult", path: str | Path | None = None
) -> str:
    """One CSV row per restart of a portfolio; writes ``path`` if given.

    ``trace`` and ``rungs`` (per-grant evaluation counts) are
    space-separated (``repr`` floats for the trace, lossless); stages of
    ``assignments`` are ``|``-separated with space-separated processor
    indices, e.g. ``"0|1 2|3"``.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_RESTART_COLUMNS)
    for r in result.restarts:
        writer.writerow([
            r.index,
            r.kind,
            r.seed,
            repr(r.period),
            r.evaluations,
            " ".join(repr(t) for t in r.trace),
            "|".join(" ".join(str(u) for u in s) for s in r.assignments),
            " ".join(str(n) for n in r.rungs),
        ])
    text = buf.getvalue()
    if path is not None:
        Path(path).write_text(text, encoding="utf-8", newline="")
    return text
