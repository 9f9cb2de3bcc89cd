"""The slice digest writer against its oracle, ``instance_digest``.

:func:`repro.campaign.store._instance_digests` writes the canonical JSON
of a whole slice of points with the platform floats rendered in numpy
(:func:`repro.campaign.store._float_texts`), so it must give the same
digest as :func:`instance_digest` for every point, and the same
exception type where the oracle raises.  Floats are drawn as raw bit
patterns plus the edge sets of ``repr``: subnormals, the extremes,
powers of 2 and 10, integers up to 2**53 and the positional range's
boundaries at 1e-4 and 1e16.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Application, Instance, Mapping, Platform
from repro.campaign import CampaignSpec, store
from repro.campaign.store import _instance_digests, instance_digest
from repro.core.models import CommModel

from .test_golden_digests import SPEC as GOLDEN_SPEC

_SPECS = Path(__file__).resolve().parents[1] / "perfbench" / "specs"


def _edges() -> list[float]:
    """``repr``'s edge cases (positive; signs are drawn separately)."""
    edges = [5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
             1.7976931348623157e308, 0.1, 0.3, 2.0 ** 53, 2.0 ** 53 - 1,
             9007199254740993.0, 123456789012345680.0]
    for bound in (1e-4, 1e16, 1e15, 1.0):
        edges += [np.nextafter(bound, 0.0), bound, np.nextafter(bound, math.inf)]
    edges += [math.ldexp(1.0, e) for e in range(-1074, 1024)]
    edges += [float(f"1e{e}") for e in range(-323, 309)]
    edges += [float(f"{m}e{e}") for m in (5, 25, 125, 9999999999999999)
              for e in (-20, -5, -4, -3, 0, 14, 15, 16)]
    return [float(v) for v in edges]


EDGES = _edges()

_SPECIAL = np.array([0.0, -0.0, math.nan, math.inf, -math.inf, -2.5])


def _draw_floats(rng: np.random.Generator, n: int, mix: int) -> np.ndarray:
    """``n`` floats, each a raw bit pattern, an edge case, an integer up
    to 2**53 or a value of the positional range: all four kinds mixed
    (``mix`` 0) or only kind ``mix - 1``."""
    bits = rng.integers(0, 2 ** 64, n, dtype=np.uint64).view(np.float64)
    kinds = rng.integers(0, 4, n) if mix == 0 else np.full(n, mix - 1)
    return np.select(
        [kinds == 0, kinds == 1, kinds == 2],
        [bits, rng.choice(EDGES, n),
         rng.integers(0, 2 ** 53, n, endpoint=True).astype(np.float64)],
        10.0 ** rng.uniform(-4.0, 16.0, n))


@st.composite
def platforms(draw: st.DrawFn) -> Platform:
    """A platform whose floats come from a drawn seed: finite positive
    speeds, positive (sometimes infinite) links and a diagonal of any
    float, NaN and negative ones included."""
    p = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    mix = draw(st.integers(0, 4))
    speeds = np.abs(_draw_floats(rng, p, mix))
    speeds[~np.isfinite(speeds) | (speeds == 0)] = 1.5
    links = np.abs(_draw_floats(rng, p * p, mix)).reshape(p, p)
    links[np.isnan(links) | (links == 0)] = 0.25
    if draw(st.booleans()):
        links[rng.random((p, p)) < 0.1] = math.inf
    diagonal = draw(st.sampled_from(["zero", "drawn", "special"]))
    if diagonal == "drawn":
        np.fill_diagonal(links, _draw_floats(rng, p, mix)
                         * rng.choice([-1.0, 1.0], p))
    else:
        np.fill_diagonal(links, 0.0 if diagonal == "zero"
                         else rng.choice(_SPECIAL, p))
    rates = draw(st.none() | st.lists(st.floats(0.0, 0.5), min_size=p,
                                      max_size=p))
    return Platform(speeds, links, name=draw(st.sampled_from(["p", "unifórme"])),
                    failure_rates=rates)


@st.composite
def mappings(draw: st.DrawFn, p: int, n_stages: int) -> Mapping:
    order = draw(st.permutations(range(p)))
    cuts = [] if n_stages == 1 else sorted(draw(st.lists(
        st.integers(1, p - 1), min_size=n_stages - 1, max_size=n_stages - 1,
        unique=True)))
    bounds = [0, *cuts, draw(st.integers(cuts[-1] + 1 if cuts else 1, p))]
    return Mapping([order[a:b] for a, b in zip(bounds, bounds[1:])])


@st.composite
def slices(draw: st.DrawFn) -> tuple[list[Instance], list[object]]:
    """1-10 points: shared or per-point applications and mappings,
    several processor counts, both models (as names or members)."""
    n_stages = draw(st.integers(1, 3))
    apps = [Application(works=draw(st.lists(st.floats(0.5, 1e3), min_size=n_stages,
                                            max_size=n_stages)),
                        file_sizes=[1.0] * (n_stages - 1), name=name)
            for name in ("a", "b")]
    shared: dict[int, Mapping] = {}
    insts, models = [], []
    for _ in range(draw(st.integers(1, 10))):
        plat = draw(platforms().filter(lambda pl: pl.n_processors >= n_stages))
        p = plat.n_processors
        if draw(st.booleans()):
            if p not in shared:
                shared[p] = draw(mappings(p, n_stages))
            mapping = shared[p]
        else:
            mapping = draw(mappings(p, n_stages))
        insts.append(Instance(draw(st.sampled_from(apps)), plat, mapping))
        models.append(draw(st.sampled_from(
            ["overlap", "strict", CommModel.STRICT_ONE_PORT])))
    return insts, models


def _outcome(digests):
    try:
        return digests()
    except Exception as exc:  # the oracle's error is part of its answer
        return type(exc)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(slices(),
       st.sampled_from([("period",), ("period", "latency"),
                        ("period", "latency", "reliability")]),
       st.sampled_from([4096, 1, 40]))
def test_slice_equals_instance_digest(points, objectives, chunk):
    insts, models = points
    expected = _outcome(lambda: [
        instance_digest(inst, model, objectives=objectives)
        for inst, model in zip(insts, models)])
    with mock.patch.object(store, "_FLOAT_CHUNK", chunk):
        assert _outcome(lambda: _instance_digests(
            insts, models, objectives)) == expected


@pytest.mark.parametrize("name", ["mixed", "shared_strict", "golden"])
def test_campaign_specs_equal_instance_digest(name):
    data = GOLDEN_SPEC if name == "golden" else json.loads(
        (_SPECS / f"{name}.json").read_text(encoding="utf-8"))
    for seed in (1, 2):
        spec = CampaignSpec.from_dict({**data, "root_seed": seed})
        points = spec.expand()[:200]
        insts = [pt.instance() for pt in points]
        models = [pt.model for pt in points]
        for objectives in (("period",), ("period", "latency")):
            assert _instance_digests(insts, models, objectives) == [
                instance_digest(inst, model, objectives=objectives)
                for inst, model in zip(insts, models)]


_SEP = ["", ",", "],["]


def _check_texts(x: np.ndarray, rng: np.random.Generator) -> None:
    seps = rng.integers(0, 3, x.size).astype(np.intp)
    text, lengths = store._float_texts(x, seps, store._Rows(x.size))
    expected = [repr(v) + _SEP[s] for v, s in zip(x.tolist(), seps.tolist())]
    assert lengths.tolist() == [len(t) for t in expected]
    assert text == "".join(expected).encode()


def test_float_texts_equal_repr_on_random_bit_patterns():
    """10**6 seeded bit patterns over every exponent (most of them
    outside the numpy path's domain), and 5 * 10**5 values drawn across
    the positional range it writes."""
    rng = np.random.default_rng(20090302)
    for _ in range(10):
        x = rng.integers(0, 2 ** 64, 100_000, dtype=np.uint64).view(np.float64)
        _check_texts(x[np.isfinite(x)], rng)
    for _ in range(5):
        scale = 10.0 ** rng.uniform(-4.5, 16.5, 100_000)
        _check_texts(rng.choice([-1.0, 1.0], 100_000) * scale, rng)


def test_float_texts_equal_repr_on_edges():
    rng = np.random.default_rng(7)
    edges = np.array(EDGES)
    _check_texts(np.concatenate([edges, -edges, [0.0, -0.0]]), rng)
    _check_texts(np.arange(0, 2 ** 53, 2 ** 53 // 100_003, dtype=np.float64), rng)
    # decimal halfway cases: x.25 above 2**50 sits between two 16-digit
    # decimals, and repr rounds half to even
    _check_texts(np.arange(2 ** 50, 2 ** 50 + 4000) + 0.25, rng)


def test_digit_tables_match_exact_logarithms():
    """``k = floor(log10(width))`` of every table row, checked with
    exact rationals against the integer estimate the tables use, and
    the rounding interval's lower end: half an ulp below ``x``, a
    quarter below a power of two (Schubfach's ``cbl``).  Every signed
    power of two of the fast path's domain renders the same without
    the quarter (their exact decimals are their shortest), so only this
    check tells the two apart."""
    from fractions import Fraction

    k = store._K.tolist()
    row = 0
    for q in range(store._Q_MIN, store._Q_MAX + 1):
        for irregular in (0, 1):
            width = Fraction(2) ** q * (Fraction(3, 4) if irregular else 1)
            assert Fraction(10) ** k[row] <= width < Fraction(10) ** (k[row] + 1)
            assert store._BELOW[row] == (2 - irregular) * store._MULT[row]
            row += 1
