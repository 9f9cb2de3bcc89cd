"""Shared fixtures and hypothesis strategies for the test-suite."""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Iterator

import numpy as np
import pytest
from hypothesis import strategies as st

from repro import Application, Instance, Mapping, Platform
from repro.telemetry import TELEMETRY, Telemetry


@contextmanager
def collecting() -> Iterator[Telemetry]:
    """Enable telemetry for the block, then disable it again.

    Yields the collector; its counters stay readable after the block.
    """
    TELEMETRY.enable("test")
    try:
        yield TELEMETRY
    finally:
        TELEMETRY.disable()


def make_instance(
    counts: list[int],
    comp_times: list[float],
    comm_times: np.ndarray | list[list[float]],
    works: list[float] | None = None,
    file_sizes: list[float] | None = None,
) -> Instance:
    """Instance with stages mapped on consecutive processor groups.

    ``comp_times``/``comm_times`` are per-resource times for unit works
    and unit file sizes (the paper's parameterization).
    """
    n = len(counts)
    p = sum(counts)
    works = works if works is not None else [1.0] * n
    file_sizes = file_sizes if file_sizes is not None else [1.0] * (n - 1)
    app = Application(works=works, file_sizes=file_sizes)
    plat = Platform.from_comm_times(comp_times, comm_times)
    bounds = np.cumsum([0] + counts)
    mapping = Mapping(
        [tuple(range(bounds[i], bounds[i + 1])) for i in range(n)],
        n_processors=p,
    )
    return Instance(app, plat, mapping)


@st.composite
def replication_vectors(draw, max_stages: int = 4, max_m: int = 12):
    """Per-stage replication counts with a bounded number of paths."""
    n = draw(st.integers(min_value=1, max_value=max_stages))
    counts = [draw(st.integers(min_value=1, max_value=4)) for _ in range(n)]
    m = math.lcm(*counts)
    if m > max_m:
        # Shrink until the lcm budget holds (keeps hypothesis efficient
        # compared to assume()-based rejection).
        counts = [1 + (c - 1) % 2 for c in counts]
    return counts


@st.composite
def small_instances(draw, max_stages: int = 4, max_m: int = 12,
                    time_range: tuple[int, int] = (1, 50)):
    """Small random instances cheap enough for full-TPN cross-checks."""
    counts = draw(replication_vectors(max_stages=max_stages, max_m=max_m))
    p = sum(counts)
    lo, hi = time_range
    comp_times = [draw(st.integers(lo, hi)) for _ in range(p)]
    comm_times = np.ones((p, p))
    for u in range(p):
        for v in range(p):
            if u != v:
                comm_times[u, v] = draw(st.integers(lo, hi))
    np.fill_diagonal(comm_times, 0.0)
    return make_instance(counts, comp_times, comm_times)


@pytest.fixture
def two_stage_chain() -> Instance:
    """Minimal non-replicated chain: S0 on P0, S1 on P1."""
    return make_instance([1, 1], [2.0, 3.0], [[0.0, 4.0], [4.0, 0.0]])


@pytest.fixture
def replicated_middle() -> Instance:
    """3 stages; middle replicated on two processors (m = 2)."""
    comm = np.full((4, 4), 5.0)
    np.fill_diagonal(comm, 0.0)
    return make_instance([1, 2, 1], [3.0, 8.0, 8.0, 2.0], comm)
