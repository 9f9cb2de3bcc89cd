"""Content-addressed SQLite store of period-evaluation results.

The store maps a **content digest** — SHA-256 over the canonical JSON of
``(instance.to_dict(), model, schema version)`` — to the plain-data
outcome of evaluating that pair (period, ``M_ct``, classification).
Keying on content rather than on campaign/point identity has two
consequences the campaign subsystem is built on:

* **Resumability**: re-running a spec re-derives the same digests
  (expansion is deterministic; the digest manifest below spares
  re-materializing stored points) and skips every point already
  present — an interrupted campaign resumes exactly where it stopped,
  and a *grown* campaign (more draws, extra axes) only computes the
  new points.
* **Cross-harness sharing**: :func:`repro.experiments.runner.run_family`
  and :func:`~repro.experiments.table2.run_table2` drain through the
  campaign loop and read their records back from the store, so a Table
  2 sweep and a campaign that happen to draw the same instance share
  one stored evaluation.

Since the distributed-fabric work the store is also **multi-writer
safe**: files open in WAL journal mode with a busy timeout, so N worker
processes (or N hosts against one shared file) can interleave reads and
writes without corrupting each other — SQLite serializes the writers,
the busy timeout makes them queue instead of erroring, and content
addressing makes any racing duplicate a harmless no-op
(``INSERT OR IGNORE``).  The *coordination* layer that makes duplicates
rare rather than merely harmless is :mod:`repro.campaign.lease`; the
cross-store transport is :mod:`repro.campaign.sync`.  Both share this
file: alongside ``results`` the store carries a ``leases`` table
(claim/lease protocol state) and a ``quarantine`` table (payloads a
sync refused to merge, kept for forensics).

A ``manifests`` table caches row identity: per campaign spec
(:func:`manifest_key`), the packed 32-byte digests of its points in
spec order, written by a drain once it has materialized every point.
Resume, status and export read it instead of re-materializing each
point (the checks live in :mod:`repro.campaign.executor`).  Manifests
are a cache, never data: sync moves ``results`` rows only and
:meth:`ResultStore.recover` drops them, so such a store's readers
materialize every point until its next drain writes a fresh manifest.

Payloads are value-only (no config/seed identity): callers attach their
own context when reassembling records
(:func:`record_from_payload`).  All serialization goes through
:func:`repro.experiments.io.canonical_json`, so the stored bytes — and
any export derived from them — are deterministic.

The schema version is baked into every digest: bump
:data:`RESULT_SCHEMA_VERSION` whenever the payload layout or the
evaluation semantics change, and stale entries simply stop matching
instead of silently poisoning new runs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sqlite3
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from ..core.instance import Instance
from ..core.models import CommModel
from ..core.throughput import PeriodResult
from ..errors import (StoreCorruptionError, StoreLeaseError,
                      StoreUnavailableError, ValidationError)
from ..faults import DEFAULT_RETRY, FAULTS, RetryPolicy
from ..telemetry import TELEMETRY
from ..utils import canonical_json
from .spec import MATERIALIZATION_VERSION, CampaignSpec

if TYPE_CHECKING:
    from ..experiments.runner import ExperimentRecord

__all__ = [
    "RESULT_SCHEMA_VERSION",
    "ResultStore",
    "instance_digest",
    "manifest_key",
    "payload_from_result",
    "record_from_payload",
    "payload_error",
]

#: Bump when the payload layout or evaluation semantics change; digests
#: include it, so old entries become invisible rather than wrong.
RESULT_SCHEMA_VERSION = 1

#: Keys every stored payload must carry (recovery and sync drop rows
#: without them).
_REQUIRED_KEYS = frozenset({
    "schema", "model", "method", "period", "mct", "critical", "gap",
    "m", "n_stages", "n_procs", "replication",
})

#: Default time (seconds) a writer waits on a locked database before
#: sqlite raises — generous because campaign workers hold the write
#: lock only for their brief post-evaluation commit bursts.
DEFAULT_BUSY_TIMEOUT = 30.0

#: Digests per batched ``WHERE digest IN (...)`` lookup: under the 999
#: host parameters older SQLite builds allow per statement.
_IN_CHUNK = 500


def _chunks(digests: Sequence[str]) -> Iterator[Sequence[str]]:
    """``digests`` in consecutive slices of :data:`_IN_CHUNK`."""
    for start in range(0, len(digests), _IN_CHUNK):
        yield digests[start: start + _IN_CHUNK]


def instance_digest(
    inst: Instance,
    model: CommModel | str,
    schema: int = RESULT_SCHEMA_VERSION,
    objectives: Sequence[str] = ("period",),
) -> str:
    """Stable content digest of one ``(instance, model)`` evaluation.

    SHA-256 over canonical JSON (sorted keys, ``repr`` floats), so the
    digest is identical across interpreters and platforms for equal
    values.  ``objectives`` joins the digest payload only when it names
    more than the period — every pre-existing period-only digest is
    unchanged, while multi-objective evaluations (whose stored payloads
    carry extra values) address separate rows.

    Examples
    --------
    >>> from repro.experiments.examples_paper import example_a
    >>> d1 = instance_digest(example_a(), "overlap")
    >>> d1 == instance_digest(example_a(), "overlap")
    True
    >>> d1 == instance_digest(example_a(), "strict")
    False
    >>> d1 == instance_digest(example_a(), "overlap",
    ...                       objectives=("period", "latency"))
    False
    """
    payload = {
        "instance": inst.to_dict(),
        "model": CommModel.parse(model).value,
        "schema": schema,
    }
    names = tuple(objectives)
    if names != ("period",):
        payload["objectives"] = list(names)
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


# ----------------------------------------------------------------------
# the slice writer: digests of many instances, floats written in numpy
# ----------------------------------------------------------------------
#
# ``instance_digest`` spends most of its time in ``repr`` of the
# platform's floats.  :func:`_instance_digests` writes the same bytes for
# a whole slice: :func:`_float_texts` renders all of the slice's floats
# in a few numpy passes (Schubfach's shortest round-trip digits, then
# ``float.__repr__``'s positional layout), and the per-point JSON around
# them comes from cached ``canonical_json`` fragments.

_U = np.uint64
#: Binary exponents ``q`` (``|x| = c * 2**q``, ``2**52 <= c < 2**53``) of
#: the fast path: ``2**-14 <= |x| < 2**54`` covers ``repr``'s positional
#: range ``1e-4 <= |x| < 1e16``, and keeps every decimal exponent in
#: ``-20 .. 0`` so that ``10**-k`` is an exact integer.
_Q_MIN, _Q_MAX = -66, 1
#: Floats per numpy pass (whole points; bounds the temporaries).
_FLOAT_CHUNK = 4096
#: Separator written after a float: none, ``,`` or ``],[``.
_SEP_LEN = np.array([0, 1, 3])
#: A float's text row: 16 integer digit columns (``10**15 .. 10**0``),
#: ``.``, 20 fraction columns (``10**-1 .. 10**-20``), then ``],[``.
#: A minus sign takes the column before the first integer digit kept.
_ROW = 40
#: Eight ASCII zeros in a ``uint64`` (digit words are little-endian).
_ASCII0 = _U(0x3030303030303030)


def _digit_tables() -> tuple[np.ndarray, ...]:
    """Per ``(q, irregular)`` row: the multiplier ``5**-k`` (times 2
    where ``k - q`` is negative), the lower bound's step (twice the
    multiplier, once below a power of two), the float that scales
    ``|x|`` to the high word of ``4 * c * multiplier`` (``c = |x| /
    2**q``), the right shift ``k - q`` (at least 0), its complement
    ``63 - shift``, its low-bit mask and ``k`` itself, where ``k =
    floor(log10(width))`` for the rounding interval's width ``2**q``
    (``3/4 * 2**q`` below a power of two)."""
    rows = []
    for q in range(_Q_MIN, _Q_MAX + 1):
        for irregular in (0, 1):
            # floor(log10(2**q)) and floor(log10(3/4 * 2**q)), exact
            # over this range (Giulietti's integer estimates)
            k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
            mult = 5 ** -k << max(0, q - k)
            rows.append((mult, (2 - irregular) * mult,
                         math.ldexp(mult, -q - 62), max(0, k - q), k))
    mult, below, scale, shift, k = zip(*rows)
    shifts = np.array(shift, dtype=np.uint64)
    return (np.array(mult, dtype=np.uint64), np.array(below, dtype=np.int64),
            np.array(scale), shifts, _U(63) - shifts,
            (_U(1) << shifts) - _U(1), np.array(k, dtype=np.int64))


def _row_masks() -> np.ndarray:
    """Kept columns of a text row, one row per ``((a * 20 + b) * 2 +
    negative) * 3 + separator``: integer digits ``10**a .. 10**0``,
    fraction digits ``10**-1 .. 10**-(b + 1)``."""
    col = np.arange(_ROW)
    pos = np.where(col < 16, 15 - col, 16 - col)
    digit = (col < 37) & (col != 16)
    a = np.arange(16)[:, None, None, None, None]
    b = np.arange(20)[None, :, None, None, None]
    neg = np.arange(2)[None, None, :, None, None]
    sep = np.arange(3)[None, None, None, :, None]
    keep = (digit & (pos <= a) & (pos >= -1 - b) | (col == 16)
            | (neg == 1) & (col == 14 - a)
            | (sep == 1) & (col == 38) | (sep == 2) & (col >= 37))
    return keep.reshape(-1, _ROW)


_MULT, _BELOW, _SCALE, _SHIFT, _BACK, _LOW, _K = _digit_tables()
_MASKS = _row_masks()
#: The leading digit word of a 17-digit significand, by its first digit.
_LEADS = np.array([int.from_bytes(f"{v:08d}".encode(), "little")
                   for v in range(10)], dtype=np.uint64)


def _shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(d, k, short)``: ``repr``'s digits of every float of ``x`` as
    ``d * 10**k``, for ``x`` in the fast path's exponent range; ``d``
    carries trailing zeros only where ``short`` is set.

    Schubfach (Giulietti, 2020) with exact products: ``10**-k`` is an
    integer here, so ``4 * x * 10**-k`` and the rounding interval's
    bounds are a 128-bit product shifted and rounded to odd.  The shortest decimal of the interval is the one multiple of
    ``10**(k+1)`` in it (``short``), else the closer of the two
    multiples of ``10**k`` around ``x``, ties to even.
    """
    bits = x.view(np.uint64)
    frac = bits & _U((1 << 52) - 1)
    irregular = frac == 0
    row = (((((bits << _U(1)) >> _U(53)) - _U(1075 + _Q_MIN)) << _U(1))
           | irregular).astype(np.intp)
    pm, shift, back, low = (_MULT.take(row), _SHIFT.take(row),
                            _BACK.take(row), _LOW.take(row))
    c = frac | _U(1 << 52)
    # the 128-bit product 4c * pm: its low word wraps exactly, and its
    # high word is within 2**-14 of |x| * scale - low / 2**64 in floats
    lo = (c << _U(2)) * pm
    hi = np.rint(np.abs(x) * _SCALE.take(row)
                 - lo.astype(np.float64) * 2.0 ** -64).astype(np.uint64)
    # 4x * 10**-k = (hi * 2**64 + lo) / 2**shift: floor and remainder;
    # the bounds differ from it by 2 * 2**q * 10**-k = 2 * pm / 2**shift
    # above, and half that below 2**52 (the lower neighbour is closer)
    vb = (lo >> shift) | ((hi << _U(1)) << back)
    rest = lo & low
    up = rest + (pm << _U(1))
    down = rest.view(np.int64) - _BELOW.take(row)
    vbr = (vb + (up >> shift)) | ((up & low) != 0)
    vbl = ((vb + (down >> shift.view(np.int64)).view(np.uint64))
           | ((down.view(np.uint64) & low) != 0))
    vb |= rest != 0
    # an odd significand's interval is open: its ends do not round back
    odd = c & _U(1)
    vbl += odd
    vbr -= odd
    s = vb >> _U(2)
    sp = (s // _U(10)) * _U(10)
    tp = sp + _U(10)
    upin = vbl <= sp << _U(2)
    short = upin != (tp << _U(2) <= vbr)
    # t = s + 1 unless s alone is in the interval, or both are and s is
    # closer (x's offset from s is (vb & 3) / 4; a tie goes to even)
    s4 = s << _U(2)
    up_t = (vbl > s4) | ((s4 + _U(4) <= vbr)
                         & ((vb & _U(3)) + (s & _U(1)) > _U(2)))
    d = np.where(short, np.where(upin, sp, tp), s + up_t)
    return d, _K.take(row), short


def _ascii8(v: np.ndarray) -> np.ndarray:
    """Each ``v < 10**8`` as 8 ASCII digits packed into a ``uint64``
    (first digit in the low byte): two 4-digit lanes, then four 2-digit
    lanes, then eight 1-digit lanes."""
    hi = v // _U(10000)
    v = hi | ((v - hi * _U(10000)) << _U(32))
    d = ((v * _U(5243)) >> _U(19)) & _U(0x0000007F0000007F)
    v = d | ((v - d * _U(100)) << _U(16))
    d = ((v * _U(103)) >> _U(10)) & _U(0x000F000F000F000F)
    return (d | ((v - d * _U(10)) << _U(8))) + _ASCII0


class _Rows:
    """The buffers of :func:`_float_texts` for up to ``size`` floats,
    reused across the chunks of a slice (fresh pages for every chunk
    would cost more than the passes that fill them)."""

    def __init__(self, size: int) -> None:
        #: 24 ASCII digits per float at columns 16 .. 39 of a '0' pad
        self.pad = np.full((size, 8), _ASCII0, dtype="<u8")
        #: text rows and their kept columns, ``n * width`` of each used
        self.rows = np.empty(size * _ROW, np.uint8)
        self.keep = np.empty(size * _ROW, bool)
        self._masks: dict[int, np.ndarray] = {}

    def masks(self, lo: int) -> np.ndarray:
        """:data:`_MASKS` without its first ``lo`` columns."""
        if lo not in self._masks:
            self._masks[lo] = np.ascontiguousarray(_MASKS[:, lo:])
        return self._masks[lo]


def _float_texts(
    x: np.ndarray, seps: np.ndarray, rows: _Rows
) -> tuple[bytes, np.ndarray]:
    """``(text, lengths)``: ``repr`` of every float of ``x``, each
    followed by its separator (``seps``: 0 none, 1 ``,``, 2 ``],[``),
    as one byte string, and the byte length of each float's part.

    Finite floats whose ``repr`` is positional (``1e-4 <= |x| < 1e16``)
    and ``±0.0`` are written in numpy: :func:`_shortest`'s digits, as 24
    ASCII digits, are cut into a fixed-point row by the decimal exponent
    (one window per float into a padded buffer), then one table row per
    float selects the kept columns and one boolean compaction writes the
    text.  Every other float is written by ``repr``.
    """
    n = x.size
    bits = x.view(np.uint64)
    negative = (bits >> _U(63)).astype(np.intp)
    exponent = (bits >> _U(52)) & _U(0x7FF)
    zero = (bits << _U(1)) == 0
    fast = (exponent >= _U(1075 + _Q_MIN)) & (exponent <= _U(1075 + _Q_MAX))
    d, k, short = _shortest(np.where(fast, x, 1.0))
    d[zero] = 0
    # d < 2**53 * 10 < 10**17, so 16 or 17 digits
    lead = k + 15 + (d >= _U(10 ** 16))
    # trailing zeros: only a one-digit-short ``d`` has any, and few
    # have more than one
    zeros = short.astype(np.int64)
    at = np.flatnonzero(short & ~zero)
    shorter = d.take(at) // _U(10)
    while at.size:
        shorter, last = np.divmod(shorter, _U(10))
        hit = last == 0
        at, shorter = at[hit], shorter[hit]
        zeros[at] += 1
    slow = ~zero & ~(fast & (lead >= -4) & (lead <= 15 - negative))
    a = np.where(zero | slow, 0, np.maximum(lead, 0))
    b = np.where(zero | slow, 0, -1 - np.minimum(k + zeros, -1))
    pad = rows.pad[:n]
    top, rest = np.divmod(d, _U(10 ** 16))
    pad[:, 2] = _LEADS.take(top.astype(np.intp))
    top, rest = np.divmod(rest, _U(10 ** 8))
    pad[:, 3] = _ascii8(top)
    pad[:, 4] = _ascii8(rest)
    # the leftmost column a row keeps (a minus sign sits before 10**a):
    # the rows start there
    lo = 0 if slow.any() else int((15 - a - negative).min())
    width = _ROW - lo
    keep = rows.masks(lo).take(((a * 20 + b) * 2 + negative) * 3 + seps,
                               axis=0, mode="clip",
                               out=rows.keep[:n * width].reshape(n, width))
    # the digit of 10**15 sits at pad column 24 + k
    windows = np.lib.stride_tricks.as_strided(
        pad.view(np.uint8).reshape(-1), (64 * n - 35 + lo, 36 - lo), (1, 1))
    digits = windows[np.arange(24 + lo, 64 * n, 64) + np.where(slow, 0, k)]
    lengths = negative + a + b + 3 + _SEP_LEN.take(seps)
    for i in np.flatnonzero(slow).tolist():
        # repr's text in the digit columns, around the '.' column
        text = repr(float(x[i])).encode()
        digits[i, :len(text)] = np.frombuffer(text, np.uint8)
        keep[i, :37] = False
        keep[i, :min(len(text), 16)] = True
        keep[i, 17: len(text) + 1] = True
        lengths[i] = len(text) + _SEP_LEN[seps[i]]
    out = rows.rows[:n * width].reshape(n, width)
    out[:, :16 - lo] = digits[:, :16 - lo]
    out[:, 16 - lo] = ord(".")
    out[:, 17 - lo: 37 - lo] = digits[:, 16 - lo:]
    out[:, 37 - lo:] = np.frombuffer(b"],[", np.uint8)
    at = np.flatnonzero(negative.astype(bool) & ~slow)
    if at.size:
        out.reshape(-1)[at * width + 14 - lo - a[at]] = ord("-")
    return out[keep].tobytes(), lengths


def _float_seps(p: int) -> np.ndarray:
    """Separator codes of one platform's floats: ``p * p`` bandwidths
    (``,`` inside a row, ``],[`` between rows) then ``p`` speeds (``,``),
    no separator after the last of each."""
    seps = np.ones(p * p + p, dtype=np.intp)
    seps[p - 1: p * p: p] = 2
    seps[p * p - 1] = seps[-1] = 0
    return seps


def _frame(inst: Instance, model: CommModel | str,
           tail: str) -> tuple[bytes, bytes, bytes]:
    """The canonical JSON of a point around its two float lists: before
    the bandwidths, between them and the speeds, and after the speeds
    (``tail`` closes the payload: objectives and schema)."""
    return (('{"instance":{"application":'
             + canonical_json(inst.application.to_dict())
             + ',"mapping":' + canonical_json(inst.mapping.to_dict())
             + ',"platform":{"bandwidths":[[').encode(),
            (']],"name":' + canonical_json(inst.platform.name)
             + ',"speeds":[').encode(),
            (']}},"model":' + canonical_json(CommModel.parse(model).value)
             + tail).encode())


def _instance_digests(
    insts: Sequence[Instance],
    models: Sequence[CommModel | str],
    objectives: Sequence[str] = ("period",),
) -> list[str]:
    """``[instance_digest(inst, model, objectives=objectives) for ...]``
    for a slice of points, element for element, at a fraction of the
    cost.

    Each point's canonical JSON is its :func:`_frame` (cached within the
    slice per application object, mapping, platform name and model)
    around its bandwidth and speed floats, which :func:`_float_texts`
    writes in chunks of about :data:`_FLOAT_CHUNK` floats; then SHA-256
    per point.  Points with failure rates, and points with an infinite
    or NaN float, are digested by :func:`instance_digest` itself (so
    any error raised is its error).
    """
    names = tuple(objectives)
    tail = ("" if names == ("period",)
            else ',"objectives":' + canonical_json(list(names)))
    tail += f',"schema":{RESULT_SCHEMA_VERSION}}}'
    digests: list[str] = [""] * len(insts)
    frames: dict[tuple[Any, ...], tuple[bytes, bytes, bytes]] = {}
    seps: dict[int, np.ndarray] = {}
    rows: _Rows | None = None
    batch: list[tuple[int, Any, tuple[bytes, bytes, bytes]]] = []

    def flush() -> None:
        nonlocal rows, batch
        x = np.concatenate([a for _, plat, _ in batch for a in (
            plat.bandwidths.reshape(-1), plat.speeds)])
        counts = np.array([plat.speeds.size for _, plat, _ in batch])
        sizes = counts * (counts + 1)
        firsts = np.cumsum(sizes) - sizes
        finite = np.logical_and.reduceat(np.isfinite(x), firsts)
        if not finite.all():
            for j in np.flatnonzero(~finite).tolist():
                i = batch[j][0]
                digests[i] = instance_digest(insts[i], models[i],
                                             objectives=names)
            x = x[np.repeat(finite, sizes)]
            batch = [entry for entry, ok in zip(batch, finite) if ok]
            if not batch:
                return
            counts, sizes = counts[finite], sizes[finite]
            firsts = np.cumsum(sizes) - sizes
        if rows is None or len(rows.pad) < x.size:
            rows = _Rows(max(x.size, _FLOAT_CHUNK))
        text, lengths = _float_texts(
            x, np.concatenate([seps[p] for p in counts.tolist()]), rows)
        # each point's text ends at the last bandwidth, then the last speed
        cuts = np.empty(2 * len(batch), dtype=np.intp)
        cuts[0::2] = firsts + counts * counts - 1
        cuts[1::2] = firsts + sizes - 1
        ends = np.cumsum(lengths).take(cuts).tolist()
        view = memoryview(text)
        start = 0
        for (i, _, (head, mid, end)), middle, stop in zip(
                batch, ends[0::2], ends[1::2]):
            digests[i] = hashlib.sha256(b"".join(
                (head, view[start:middle], mid, view[middle:stop], end)
            )).hexdigest()
            start = stop
        batch = []

    size = 0
    for i, (inst, model) in enumerate(zip(insts, models)):
        plat = inst.platform
        if plat.failure_rates is not None:
            digests[i] = instance_digest(inst, model, objectives=names)
            continue
        # (an id is stable here: every instance outlives the call)
        key = (id(inst.application), inst.mapping.assignments, plat.name,
               model)
        frame = frames.get(key)
        if frame is None:
            frame = frames[key] = _frame(inst, model, tail)
        p = plat.speeds.size
        if p not in seps:
            seps[p] = _float_seps(p)
        batch.append((i, plat, frame))
        size += p * p + p
        if size >= _FLOAT_CHUNK:
            flush()
            size = 0
    if batch:
        flush()
    return digests


def manifest_key(spec: CampaignSpec) -> str:
    """Store key of the digest manifest of ``spec``.

    SHA-256 over the spec's canonical JSON, the canonical JSON of each
    application axis's materialized application (so an edit to a
    catalog workload or a synthetic shape changes the key even though
    the spec text does not), :data:`RESULT_SCHEMA_VERSION`,
    :data:`~repro.campaign.spec.MATERIALIZATION_VERSION` and numpy's
    version: ``Generator`` streams are not guaranteed to match across
    numpy releases, so a manifest written under another numpy is never
    read.
    """
    apps = [axis.application().to_dict() for axis in spec.applications]
    parts = (canonical_json(spec.to_dict()), canonical_json(apps),
             str(RESULT_SCHEMA_VERSION), str(MATERIALIZATION_VERSION),
             np.__version__)
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def payload_from_result(
    inst: Instance,
    result: PeriodResult,
    objectives: Sequence[str] = ("period",),
) -> dict[str, Any]:
    """Value-only payload of one evaluation (JSON-plain, digestable).

    With a multi-objective selection the payload additionally carries
    the requested extra values (``latency`` + ``latency_mode`` and/or
    ``reliability``) and the ``objectives`` list itself — all computed
    by :func:`repro.objectives.attach_objectives` as pure functions of
    the instance, so serial, ``n_jobs`` and fabric runs store identical
    bytes.  Period-only payloads are unchanged (no extra keys), and the
    extra keys are tolerated by :func:`payload_error`, which checks
    required keys only.
    """
    payload: dict[str, Any] = {
        "schema": RESULT_SCHEMA_VERSION,
        "model": result.model.value,
        "method": result.method,
        "period": result.period,
        "mct": result.mct,
        "critical": result.has_critical_resource,
        "gap": result.relative_gap,
        "m": result.m,
        "n_stages": inst.n_stages,
        "n_procs": inst.platform.n_processors,
        "replication": list(inst.replication_counts),
    }
    names = tuple(objectives)
    if names != ("period",):
        from ..objectives.evaluate import attach_objectives

        ev = attach_objectives(inst, result, names)
        payload["objectives"] = list(ev.objectives)
        if ev.latency is not None:
            payload["latency"] = float(ev.latency)
            payload["latency_mode"] = ev.latency_mode
        if ev.reliability is not None:
            payload["reliability"] = float(ev.reliability)
    return payload


def payload_error(text: str) -> str | None:
    """Why ``text`` is not a valid stored payload, or ``None`` if it is.

    The shared validity predicate of :meth:`ResultStore.recover` and
    :mod:`repro.campaign.sync`: a payload must parse as a JSON object,
    carry the current schema version and every required key.  Sync
    quarantines rows that fail this check instead of merging them.

    Examples
    --------
    >>> payload_error("{not json")
    'payload is not valid JSON'
    >>> payload_error('{"schema": 999}')
    'payload has schema 999, expected 1'
    """
    try:
        data = json.loads(text)
    except (TypeError, ValueError):
        return "payload is not valid JSON"
    if not isinstance(data, dict):
        return "payload is not a JSON object"
    if data.get("schema") != RESULT_SCHEMA_VERSION:
        return (f"payload has schema {data.get('schema')!r}, "
                f"expected {RESULT_SCHEMA_VERSION}")
    missing = _REQUIRED_KEYS - data.keys()
    if missing:
        return f"payload is missing keys: {', '.join(sorted(missing))}"
    return None


def record_from_payload(
    config_name: str,
    model: CommModel | str,
    seed: int,
    payload: dict[str, Any],
) -> ExperimentRecord:
    """Reattach caller context to a stored payload.

    A store-backed :func:`repro.experiments.runner.run_family` builds
    every record this way, stored before the call or by its drain:
    payloads carry only content (results + instance shape), the family
    name and seed are the caller's identity.  Records rebuilt this way
    are equal to records computed live — floats round-trip exactly
    through canonical JSON.
    """
    from ..experiments.runner import ExperimentRecord

    return ExperimentRecord(
        config_name=config_name,
        model=CommModel.parse(model).value,
        seed=seed,
        n_stages=int(payload["n_stages"]),
        n_procs=int(payload["n_procs"]),
        replication=tuple(int(c) for c in payload["replication"]),
        m=int(payload["m"]),
        period=float(payload["period"]),
        mct=float(payload["mct"]),
        critical=bool(payload["critical"]),
        gap=float(payload["gap"]),
    )


class ResultStore:
    """Content-addressed result store backed by a single SQLite file.

    Parameters
    ----------
    path:
        Database file (created if missing), or ``":memory:"`` for an
        ephemeral store (tests, dry runs).
    check:
        Run ``PRAGMA quick_check`` on open and raise
        :class:`~repro.errors.StoreCorruptionError` if the file is
        damaged (pass ``False`` only from :meth:`recover`).
    busy_timeout:
        Seconds a statement waits on another writer's lock before
        sqlite gives up.  File stores open in WAL journal mode, so
        readers never block and writers queue behind each other for
        the duration of their (short) commit bursts.
    retry:
        :class:`~repro.faults.RetryPolicy` for connect and commit.
        Environmental failures (a locked WAL sidecar, a read-only or
        full filesystem) surface as
        :class:`~repro.errors.StoreUnavailableError` carrying path +
        cause and are retried under the policy's deterministic backoff
        before propagating; corruption is *never* retried.  Defaults to
        :data:`repro.faults.DEFAULT_RETRY`.

    Notes
    -----
    Writes default to immediate commit; bulk writers (the campaign
    executor) pass ``commit=False`` and call :meth:`commit` at chunk
    boundaries, so a hard kill loses at most the uncommitted tail —
    never already-committed work, and never the file's integrity
    (SQLite journals the transaction).  Concurrent writers are safe:
    the store never overwrites, so the only cross-process race is two
    workers inserting the same digest, which ``INSERT OR IGNORE``
    resolves identically regardless of who wins.

    Examples
    --------
    >>> store = ResultStore(":memory:")
    >>> store.put("abc", {"schema": 1, "period": 2.0})
    True
    >>> store.get("abc")["period"]
    2.0
    >>> store.get("missing") is None
    True
    >>> len(store)
    1
    """

    def __init__(
        self,
        path: str | Path,
        check: bool = True,
        busy_timeout: float = DEFAULT_BUSY_TIMEOUT,
        retry: RetryPolicy | None = None,
    ) -> None:
        if not isinstance(path, (str, os.PathLike)):
            raise ValidationError(f"store path must be str or os.PathLike, "
                                  f"got {type(path).__name__}")
        self.path = str(path)
        self._retry = DEFAULT_RETRY if retry is None else retry
        self._conn = self._retry.run(
            f"store.connect:{self.path}",
            lambda: self._connect(busy_timeout),
            retryable=(StoreUnavailableError,),
        )
        # Autocommit with explicit BEGIN/COMMIT: multi-statement writes
        # (claim transactions, chunk commits) control their own
        # boundaries instead of relying on implicit-transaction rules.
        self._conn.isolation_level = None
        try:
            if check and self.path != ":memory:":
                row = self._conn.execute("PRAGMA quick_check").fetchone()
                if row is None or row[0] != "ok":
                    raise StoreCorruptionError(
                        f"store {self.path!r} failed its integrity check: "
                        f"{row[0] if row else 'no result'}; use "
                        f"ResultStore.recover() to salvage readable rows"
                    )
            if self.path != ":memory:":
                # WAL survives in the file; setting it again is a no-op.
                # NORMAL sync is the standard WAL pairing: a power cut
                # can lose the last commits but never integrity — and
                # content addressing recomputes lost rows anyway.
                self._conn.execute("PRAGMA journal_mode=WAL")
                self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS results ("
                " digest TEXT PRIMARY KEY,"
                " payload TEXT NOT NULL)"
            )
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS leases ("
                " digest TEXT PRIMARY KEY,"
                " worker TEXT NOT NULL,"
                " expires REAL NOT NULL,"
                " acquired REAL NOT NULL)"
            )
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS quarantine ("
                " digest TEXT NOT NULL,"
                " origin TEXT NOT NULL,"
                " payload TEXT NOT NULL,"
                " reason TEXT NOT NULL,"
                " PRIMARY KEY (digest, origin))"
            )
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS manifests ("
                " key TEXT PRIMARY KEY,"
                " digests BLOB NOT NULL)"
            )
        except sqlite3.OperationalError as exc:
            # Environmental, not structural: a read-only filesystem or
            # a lock held past the busy timeout.  The file is (as far
            # as we know) intact, so signal "come back later", not
            # "recover".
            self._conn.close()
            raise StoreUnavailableError(self.path, exc) from exc
        except sqlite3.DatabaseError as exc:
            # Release the handle: recover() renames the file, which an
            # open connection would block on some platforms.
            self._conn.close()
            raise StoreCorruptionError(
                f"store {self.path!r} is not a readable SQLite database "
                f"({exc}); use ResultStore.recover() to salvage what is "
                f"left or delete the file to start fresh"
            ) from exc
        except StoreCorruptionError:
            self._conn.close()
            raise

    def _connect(self, busy_timeout: float) -> sqlite3.Connection:
        """One connection attempt, with typed failure + injection site."""
        try:
            if FAULTS.enabled:
                FAULTS.hit("store.connect")
            return sqlite3.connect(self.path, timeout=busy_timeout)
        except sqlite3.OperationalError as exc:
            raise StoreUnavailableError(self.path, exc) from exc

    # ------------------------------------------------------------------
    # digests (re-exported for callers holding only a store)
    # ------------------------------------------------------------------
    digest = staticmethod(instance_digest)

    @property
    def connection(self) -> sqlite3.Connection:
        """The underlying connection (lease manager / sync plumbing)."""
        return self._conn

    # ------------------------------------------------------------------
    # lookups and writes
    # ------------------------------------------------------------------
    def get(self, digest: str) -> dict[str, Any] | None:
        """The stored payload, or ``None``."""
        text = self.payload_text(digest)
        if text is None:
            return None
        data: dict[str, Any] = json.loads(text)
        return data

    def payload_text(self, digest: str) -> str | None:
        """The stored payload's exact canonical-JSON text, or ``None``.

        Sync compares and transports payloads at the byte level — equal
        values always serialize to equal canonical bytes, so text
        equality *is* value equality here.
        """
        row = self._conn.execute(
            "SELECT payload FROM results WHERE digest = ?", (digest,)
        ).fetchone()
        if row is None:
            return None
        return str(row[0])

    def put(
        self, digest: str, payload: dict[str, Any], commit: bool = True
    ) -> bool:
        """Store a payload under its digest; ``False`` if already present.

        Content-addressed stores never overwrite: two writers racing on
        the same digest computed the same values (or one of them is
        wrong, which a digest collision cannot repair).
        """
        return self.put_text(digest, canonical_json(payload), commit=commit)

    def put_text(
        self, digest: str, payload_text: str, commit: bool = True
    ) -> bool:
        """Store an already-serialized payload (byte-preserving sync path)."""
        if FAULTS.enabled:
            FAULTS.hit("store.put")
        if commit is False and not self._conn.in_transaction:
            self._conn.execute("BEGIN")
        cur = self._conn.execute(
            "INSERT OR IGNORE INTO results (digest, payload) VALUES (?, ?)",
            (digest, payload_text),
        )
        if commit:
            self.commit()
        inserted = cur.rowcount == 1
        if inserted and TELEMETRY.enabled:
            TELEMETRY.count("store.puts")
        return inserted

    def commit(self) -> None:
        """Flush pending ``put(..., commit=False)`` writes to disk.

        Retried under the store's :class:`~repro.faults.RetryPolicy`:
        ``COMMIT`` leaves the transaction open when it fails on a
        locked or full database, so re-issuing it is safe.  Past the
        retry budget the last error propagates — the fabric's cue to
        spill the chunk to a journal.
        """
        if self._conn.in_transaction:
            self._retry.run(
                f"store.commit:{self.path}",
                self._commit_once,
                retryable=(sqlite3.OperationalError, OSError),
            )

    def _commit_once(self) -> None:
        if FAULTS.enabled:
            FAULTS.hit("store.commit")
        if self._conn.in_transaction:
            self._conn.execute("COMMIT")

    def rollback(self) -> None:
        """Abandon the open ``put(..., commit=False)`` transaction.

        The graceful-degradation path: when :meth:`commit` exhausts its
        retries, the fabric rolls the chunk back and spills its payloads
        to a :class:`~repro.faults.SpillJournal` instead.  A no-op
        outside a transaction.
        """
        if self._conn.in_transaction:
            self._conn.execute("ROLLBACK")

    def __contains__(self, digest: str) -> bool:
        row = self._conn.execute(
            "SELECT 1 FROM results WHERE digest = ?", (digest,)
        ).fetchone()
        return row is not None

    def __len__(self) -> int:
        return int(
            self._conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]
        )

    def digests(self) -> list[str]:
        """All stored digests, sorted (stable).

        A full scan, counted as ``store.scans``: campaign drains never
        call it, so a drain's trace must show zero scans.
        """
        if TELEMETRY.enabled:
            TELEMETRY.count("store.scans")
        return [
            str(row[0]) for row in self._conn.execute(
                "SELECT digest FROM results ORDER BY digest"
            )
        ]

    def items(self) -> Iterator[tuple[str, dict[str, Any]]]:
        """All ``(digest, payload)`` pairs, digest-ordered (stable)."""
        for digest, payload in self.items_text():
            yield digest, json.loads(payload)

    def items_text(self) -> Iterator[tuple[str, str]]:
        """All ``(digest, payload_text)`` pairs, digest-ordered (stable)."""
        for digest, payload in self._conn.execute(
            "SELECT digest, payload FROM results ORDER BY digest"
        ):
            yield str(digest), str(payload)

    # ------------------------------------------------------------------
    # batched lookups (one query per slice of digests)
    # ------------------------------------------------------------------
    def _in(self, sql: str, digests: Sequence[str],
            *params: object) -> sqlite3.Cursor:
        """Run ``sql`` once, its ``digest IN ({})`` bound to the
        distinct ``digests`` after ``params``.

        The list is padded with repeats of its last digest to a power of
        two (at most :data:`_IN_CHUNK`), so a connection prepares at
        most 10 texts of each statement instead of one per width.  A
        repeated ``IN`` value changes no membership, ``RETURNING`` row
        or ``rowcount``.
        """
        unique = list(dict.fromkeys(digests))
        if unique:
            width = min(_IN_CHUNK, 1 << (len(unique) - 1).bit_length())
            unique += unique[-1:] * (width - len(unique))
        return self._conn.execute(
            sql.format(",".join("?" * len(unique))), (*params, *unique))

    def _stored(self, digests: Iterable[str]) -> set[str]:
        """The stored ones of ``digests``, for membership tests: one
        query per :data:`_IN_CHUNK` digests instead of one per digest."""
        found: set[str] = set()
        for chunk in _chunks(list(digests)):
            found.update(str(digest) for (digest,) in self._in(
                "SELECT digest FROM results WHERE digest IN ({})", chunk))
        return found

    def _payload_texts(self, digests: Sequence[str]) -> Iterator[str | None]:
        """:meth:`payload_text` of each of ``digests``, in order.

        One query per :data:`_IN_CHUNK` digests, read a chunk at a time,
        so only one chunk's payloads are held at once.
        """
        for chunk in _chunks(digests):
            texts = {str(digest): str(text) for digest, text in self._in(
                "SELECT digest, payload FROM results WHERE digest IN ({})",
                chunk)}
            yield from (texts.get(digest) for digest in chunk)

    def _payloads(
        self, digests: Sequence[str]
    ) -> Iterator[dict[str, Any] | None]:
        """:meth:`get` of each of ``digests``, in order.

        One query and one ``json.loads`` per :data:`_IN_CHUNK` digests:
        a chunk's stored texts are parsed as one JSON array, so only one
        chunk's payloads are held at once.  Stored payloads are single
        JSON objects, so the array has one item per text; if it does
        not, a text is malformed and a per-text parse raises where it is.
        """
        for chunk in _chunks(digests):
            texts = list(self._payload_texts(chunk))
            stored = [text for text in texts if text is not None]
            payloads = json.loads("[" + ",".join(stored) + "]")
            if len(payloads) != len(stored):
                payloads = [json.loads(text) for text in stored]
            parsed = iter(payloads)
            yield from (None if text is None else next(parsed)
                        for text in texts)

    # ------------------------------------------------------------------
    # digest manifests (a row-identity cache; see the module docstring)
    # ------------------------------------------------------------------
    def _manifest(self, key: str) -> bytes | None:
        """The packed digests stored under ``key``, or ``None``."""
        row = self._conn.execute(
            "SELECT digests FROM manifests WHERE key = ?", (key,)
        ).fetchone()
        return None if row is None else bytes(row[0])

    def _put_manifest(self, key: str, digests: bytes) -> None:
        """Store (or replace) a manifest; best effort.

        A manifest only saves work, so a store that cannot take the
        write (locked past the busy timeout, full, read-only) keeps
        none and its readers fall back to full materialization.
        """
        try:
            self._conn.execute(
                "INSERT OR REPLACE INTO manifests (key, digests) "
                "VALUES (?, ?)", (key, digests),
            )
        except sqlite3.OperationalError:
            pass

    # ------------------------------------------------------------------
    # quarantine (rows a sync refused to merge; kept for forensics)
    # ------------------------------------------------------------------
    def add_quarantine(
        self, digest: str, origin: str, payload_text: str, reason: str
    ) -> None:
        """Park a payload that failed validation or conflicted on sync."""
        self._conn.execute(
            "INSERT OR REPLACE INTO quarantine "
            "(digest, origin, payload, reason) VALUES (?, ?, ?, ?)",
            (digest, origin, payload_text, reason),
        )
        self.commit()
        if TELEMETRY.enabled:
            TELEMETRY.count("store.quarantines")

    def quarantined(self) -> list[tuple[str, str, str, str]]:
        """``(digest, origin, payload_text, reason)`` rows, sorted."""
        return [
            (str(d), str(o), str(p), str(r))
            for d, o, p, r in self._conn.execute(
                "SELECT digest, origin, payload, reason FROM quarantine "
                "ORDER BY digest, origin"
            )
        ]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Commit and close the underlying connection."""
        self.commit()
        self._conn.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # corruption recovery
    # ------------------------------------------------------------------
    @classmethod
    def recover(
        cls,
        path: str | Path,
        force: bool = False,
        clock: Callable[[], float] | None = None,
    ) -> tuple["ResultStore", int]:
        """Salvage a damaged store file into a fresh one.

        Every row that still reads back as a valid payload
        (:func:`payload_error`) is copied into a new database at
        ``path``; the damaged original is set aside as
        ``<path>.corrupt``.  Returns the fresh store and the number of
        salvaged rows.  Rows that are lost are simply recomputed by the
        next campaign run — content addressing makes recovery safe.
        Digest manifests are not carried over (a fresh drain rewrites
        them).

        Recovery is **lease-aware**: if the file still carries unexpired
        leases, some worker is (as far as the file can tell) actively
        evaluating claimed points and may commit results at any moment —
        replacing the file underneath it would clobber those rows.
        In that case :class:`~repro.errors.StoreLeaseError` is raised
        listing the holders; pass ``force=True`` only once the workers
        are known to be dead (their leases then expire on their own —
        waiting out the TTL is always the safe alternative).
        """
        path = Path(path)
        now = (clock or time.time)()  # detlint: disable=DET105 - lease expiry is inherently wall-clock; tests inject `clock`
        salvaged: list[tuple[str, str]] = []
        if path.exists():
            conn = sqlite3.connect(str(path))
            try:
                if not force:
                    _check_no_active_leases(conn, path, now)
                for digest, payload in conn.execute(
                    "SELECT digest, payload FROM results"
                ):
                    if payload_error(str(payload)) is None:
                        salvaged.append((str(digest), str(payload)))
            except sqlite3.DatabaseError:
                pass  # nothing (more) readable; keep what we got
            finally:
                conn.close()
            os.replace(path, f"{path}.corrupt")
            # WAL sidecars belong to the damaged file: set them aside
            # too, or the fresh database would try to replay them.
            for suffix in ("-wal", "-shm"):
                sidecar = Path(f"{path}{suffix}")
                if sidecar.exists():
                    os.replace(sidecar, f"{path}.corrupt{suffix}")
        store = cls(path, check=False)
        for digest, text in salvaged:
            store.put_text(digest, text, commit=False)
        store.commit()
        return store, len(salvaged)


def _check_no_active_leases(
    conn: sqlite3.Connection, path: Path, now: float
) -> None:
    """Raise :class:`StoreLeaseError` if the file has unexpired leases."""
    try:
        rows = conn.execute(
            "SELECT worker, COUNT(*), MAX(expires) FROM leases "
            "WHERE expires > ? GROUP BY worker ORDER BY worker", (now,)
        ).fetchall()
    except sqlite3.DatabaseError:
        return  # no readable lease table: nothing provably active
    if rows:
        holders = ", ".join(
            f"{worker!r} ({count} lease(s), expiring in "
            f"{max(0.0, expires - now):.1f}s)"
            for worker, count, expires in rows
        )
        raise StoreLeaseError(
            f"store {str(path)!r} has active leases held by {holders}; "
            f"recovery would clobber rows those workers are about to "
            f"commit — wait for the leases to expire, or pass "
            f"force=True once the workers are known dead"
        )
