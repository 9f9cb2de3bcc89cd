"""Small shared helpers: integer lattice math, validation, canonical JSON,
stable seed trees."""

from __future__ import annotations

import json
import math
import zlib
from collections.abc import Iterable, Sequence
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any

import numpy as np

from .errors import ValidationError

#: ``json.dumps``' handler of values JSON cannot encode (raises
#: ``TypeError``), shared by the indented writer's C encoders.
_JSON_DEFAULT = json.JSONEncoder().default

__all__ = [
    "spawn_seeds",
    "lcm_all",
    "gcd_all",
    "check_positive",
    "check_non_negative",
    "check_finite",
    "format_time",
    "canonical_json",
]


def canonical_json(obj: object, indent: int | None = None) -> str:
    """Byte-deterministic JSON text of a plain-data object.

    Keys are sorted at every nesting level and floats render with
    ``repr`` (shortest round-trip, platform-independent), so equal
    values always produce equal bytes — the property the campaign
    store's content digests and diffable artifacts rely on.  ``NaN`` /
    ``inf`` are rejected: digested payloads must round-trip through
    standard JSON.

    ``indent=None`` gives the compact separators used for digests: that
    path is exactly ``json.dumps(obj, sort_keys=True, separators=(",",
    ":"), allow_nan=False)``, the byte contract behind every store
    digest and payload, and never changes.

    ``indent=k`` gives human-readable artifact files (exports, reports,
    records), byte-identical to ``json.dumps(obj, sort_keys=True,
    separators=(",", ": "), indent=k, allow_nan=False)``, which is its
    test oracle.  The stdlib only writes indented text with its
    pure-Python encoder; :func:`_indented_json` drives the C encoder
    one container at a time instead.

    Lives here (not :mod:`repro.experiments.io`, which re-exports it)
    so that low-level layers — :meth:`repro.core.instance.Instance.
    to_json`, :func:`repro.petri.serialization.tpn_to_json` — can emit
    canonical bytes without importing the experiments stack.
    """
    if indent is None or not isinstance(obj, _CONTAINERS):
        # (a scalar's text has no separator to indent)
        return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                          allow_nan=False)
    if c_make_encoder is None:  # pragma: no cover - no C accelerator
        return json.dumps(obj, sort_keys=True, separators=(",", ": "),
                          indent=indent, allow_nan=False)
    return _indented_json(obj, " " * indent)


#: Containers JSON writes with brackets (subclasses included).
_CONTAINERS = (dict, list, tuple)
#: Exact types the containers test can skip: one set lookup per item.
_SCALARS = frozenset({str, int, float, bool, type(None)})


def _c_encoder(separator: str) -> Any:
    """The C encoder of :func:`canonical_json`'s rules with item
    ``separator``; called as ``encoder(obj, 0)[0]``."""
    return c_make_encoder(None, _JSON_DEFAULT, encode_basestring_ascii,
                          None, ": ", separator, True, False, False)


def _indented_json(obj: object, unit: str) -> str:
    """Container ``obj`` as indented canonical JSON, ``unit`` per level.

    The C encoder accepts any item separator.  With ``",\\n" + pad`` it
    writes one container's items already indented for their depth, and
    since an encoded string never holds a raw newline, every newline it
    writes is an item boundary of that container.  A container whose
    items are all scalars is one C call.  In any other container each
    nested container is replaced by the placeholder ``0``; the C call
    then gives every item its line, and each nested container is written
    recursively (one level deeper) over its placeholder: a list item is
    its own line, a dict value ends its key's line, found by its encoded
    key right after a separator (or the opening brace).
    Positions are taken in the placeholder text, never in text already
    spliced in, and ``markers`` holds the containers being written at
    every level, so a cycle raises like the stdlib's.
    """
    levels: list[tuple[str, Any, str, str]] = []
    markers: dict[int, object] = {}

    def write(o: Any, depth: int) -> str:
        if depth == len(levels):
            sep = ",\n" + unit * (depth + 1)
            levels.append((sep, _c_encoder(sep), sep[1:],
                           "\n" + unit * depth))
        sep, encode, open_, close = levels[depth]
        if isinstance(o, dict):
            nested = [k for k, v in o.items()
                      if type(v) not in _SCALARS and isinstance(v, _CONTAINERS)]
            if not nested:
                text = encode(o, 0)[0]
                return text if len(text) == 2 else "".join(
                    ("{", open_, text[1:-1], close, "}"))
            mark = _enter(markers, o)
            flat = dict(o)
            for k in nested:
                flat[k] = 0
            text = encode(flat, 0)[0]
            spots = []
            for k in nested:
                head = (encode_basestring_ascii(k) if type(k) is str
                        else encode({k: 0}, 0)[0][1:-4]) + ": "
                at = text.find(sep + head)
                spots.append((1 + len(head) if at < 0
                              else at + len(sep) + len(head), k))
            spots.sort()
            parts = ["{", open_]
            last = 1
            for at, k in spots:
                parts += (text[last:at], write(o[k], depth + 1))
                last = at + 1
            parts += (text[last:-1], close, "}")
        else:
            nested = [i for i, v in enumerate(o)
                      if type(v) not in _SCALARS and isinstance(v, _CONTAINERS)]
            if not nested:
                text = encode(o, 0)[0]
                return text if len(text) == 2 else "".join(
                    ("[", open_, text[1:-1], close, "]"))
            mark = _enter(markers, o)
            flat_items = list(o)
            for i in nested:
                flat_items[i] = 0
            lines = encode(flat_items, 0)[0][1:-1].split(sep)
            for i in nested:
                lines[i] = write(o[i], depth + 1)
            parts = ["[", open_, sep.join(lines), close, "]"]
        del markers[mark]
        return "".join(parts)

    return write(obj, 0)


def _enter(markers: dict[int, object], o: object) -> int:
    """Mark ``o`` as being written; raise on a reference cycle."""
    mark = id(o)
    if mark in markers:
        raise ValueError("Circular reference detected")
    markers[mark] = o
    return mark


def spawn_seeds(root_seed: int, key: str, overlap: bool, count: int) -> list[int]:
    """``count`` seed entropies from one stable branch of a seed tree.

    The branch is ``SeedSequence([root_seed, crc32(key), model bit])``
    (model bit 0 for OVERLAP, 1 for STRICT): :func:`zlib.crc32` is stable
    across interpreters and platforms, unlike :func:`hash`, which
    ``PYTHONHASHSEED`` randomizes per process.  ``SeedSequence.spawn`` is
    prefix-stable, so growing ``count`` never reshuffles earlier seeds.

    >>> spawn_seeds(1, "demo", True, 3)[:2] == spawn_seeds(1, "demo", True, 2)
    True

    Raises
    ------
    ValidationError
        If ``count`` is negative.
    """
    if count < 0:
        raise ValidationError(f"seed count must be non-negative, got {count}")
    ss = np.random.SeedSequence(
        [root_seed, zlib.crc32(key.encode()) & 0x7FFFFFFF, 0 if overlap else 1]
    )
    return [int(child.generate_state(1)[0]) for child in ss.spawn(count)]


def lcm_all(values: Iterable[int]) -> int:
    """Least common multiple of an iterable of positive integers.

    This is the ``m`` of Proposition 1: the number of distinct round-robin
    paths of a replicated mapping is ``lcm(m_0, ..., m_{n-1})``.

    >>> lcm_all([1, 2, 3, 1])
    6
    >>> lcm_all([5, 21, 27, 11])   # Example C of the paper
    10395
    """
    result = 1
    for v in values:
        v = int(v)
        if v <= 0:
            raise ValueError(f"lcm is only defined for positive integers, got {v}")
        result = math.lcm(result, v)
    return result


def gcd_all(values: Iterable[int]) -> int:
    """Greatest common divisor of an iterable of positive integers."""
    result = 0
    for v in values:
        v = int(v)
        if v <= 0:
            raise ValueError(f"gcd is only defined for positive integers, got {v}")
        result = math.gcd(result, v)
    return result


def check_positive(name: str, values: Sequence[float]) -> None:
    """Raise :class:`ValueError` unless every entry is finite and ``> 0``."""
    for i, v in enumerate(values):
        if not math.isfinite(v) or v <= 0:
            raise ValueError(f"{name}[{i}] must be finite and positive, got {v!r}")


def check_non_negative(name: str, values: Sequence[float]) -> None:
    """Raise :class:`ValueError` unless every entry is finite and ``>= 0``."""
    for i, v in enumerate(values):
        if not math.isfinite(v) or v < 0:
            raise ValueError(f"{name}[{i}] must be finite and non-negative, got {v!r}")


def check_finite(name: str, value: float) -> float:
    """Raise :class:`ValueError` unless ``value`` is a finite float."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def format_time(t: float, digits: int = 6) -> str:
    """Human-friendly rendering of a time value.

    Integers print without a decimal point (``189`` not ``189.0``) which
    keeps tables aligned with the paper's own notation.  Non-finite
    values (a budget-starved search reports ``period=inf``) render as
    ``inf``/``nan`` instead of raising.
    """
    if not math.isfinite(t):
        return str(t)
    r = round(t)
    if abs(t - r) < 10 ** (-digits):
        return str(int(r))
    return f"{t:.{digits}g}"
