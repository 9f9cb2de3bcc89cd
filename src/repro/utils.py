"""Small shared helpers: integer lattice math, validation, canonical JSON,
stable seed trees."""

from __future__ import annotations

import json
import math
import zlib
from collections.abc import Iterable, Sequence

import numpy as np

from .errors import ValidationError

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

    ``indent=None`` gives the compact separators used for digests;
    pass ``indent=2`` for human-readable artifact files.

    Lives here (not :mod:`repro.experiments.io`, which re-exports it)
    so that low-level layers — :meth:`repro.core.instance.Instance.
    to_json`, :func:`repro.petri.serialization.tpn_to_json` — can emit
    canonical bytes without importing the experiments stack.
    """
    separators = (",", ":") if indent is None else (",", ": ")
    return json.dumps(
        obj, sort_keys=True, separators=separators, indent=indent,
        allow_nan=False,
    )


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
