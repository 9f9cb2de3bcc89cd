"""Declarative campaign specifications and their deterministic expansion.

A :class:`CampaignSpec` declares an experiment grid over four scenario
axes — applications, platform heterogeneity regimes, replication
policies and communication models — plus a number of random ``draws``
per grid cell.  Expansion is **deterministic**: every point's entropy
derives from a :class:`numpy.random.SeedSequence` keyed by stable
``zlib.crc32`` digests of the campaign name and the cell's axis labels
(the same scheme as :func:`repro.experiments.runner.family_seeds` —
never Python's per-process-randomized ``hash()``), so a spec expands to
the *same* instances in every interpreter, on every machine.  That is
what makes campaigns resumable: the content-addressed store
(:mod:`repro.campaign.store`) can recognize already-computed points by
digesting the re-materialized instance.

Specs are plain data: build them in Python, or load them from JSON /
TOML files (:meth:`CampaignSpec.from_file`) whose structure mirrors
:meth:`CampaignSpec.to_dict`.

Axes
----
* **Applications** (:class:`ApplicationAxis`): a named catalog workload
  (:data:`repro.workloads.CATALOG`) or a parametric synthetic family
  (:func:`repro.workloads.synthetic` shapes).
* **Platforms** (:class:`PlatformAxis`): heterogeneity regimes — either
  ``"uniform"`` speed/bandwidth distributions with optional speed
  clusters (``clusters > 1`` splits processors into groups sharing a
  drawn speed factor, with optionally boosted intra-cluster links), or
  ``"times"`` regimes parameterized by computation/communication time
  ranges like the paper's Table 2
  (:meth:`repro.core.platform.Platform.from_comm_times`).
* **Replications** (:class:`ReplicationAxis`): random per-stage
  replication draws (:func:`repro.experiments.generator.random_replication`
  ``"balls"`` / ``"greedy-spare"`` readings) or a ``fixed`` count vector
  with ``"random"`` or ``"blocks"`` processor assignment.  ``"blocks"``
  pins the mapping itself, so every draw of the cell shares one TPN
  topology — the regime where the executor's skeleton cache and
  lockstep Howard groups shine.
* **Models**: ``"overlap"`` / ``"strict"``.
* **Objectives** (``objectives``): the campaign's criteria selection
  (:func:`repro.objectives.parse_objectives` canonical order).  The
  period-only default is digest- and byte-compatible with pre-plane
  campaigns; adding ``"latency"`` / ``"reliability"`` stores their
  values alongside every period payload and unlocks the report's
  per-objective pivots and Pareto export.

A point materializes to an :class:`~repro.core.instance.Instance` as a
pure function of its seed: the mapping is drawn first, then the
platform — in that fixed order — from one generator.
"""

from __future__ import annotations

import json
import operator
import zlib
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from ..core.application import Application
from ..core.instance import Instance
from ..core.mapping import Mapping
from ..core.models import CommModel
from ..core.platform import Platform
from ..errors import ValidationError
from ..experiments.generator import random_replication
from ..objectives.base import parse_objectives
from ..utils import lcm_all
from ..workloads import get_workload, synthetic

__all__ = [
    "ApplicationAxis",
    "PlatformAxis",
    "ReplicationAxis",
    "CampaignPoint",
    "CampaignSpec",
    "MATERIALIZATION_VERSION",
]

#: Version of the point → instance materialization (seed tree, draw
#: order, axis semantics).  It keys the store's digest manifests
#: (:func:`repro.campaign.store.manifest_key`): bump it whenever a
#: literal digest in ``tests/test_golden_digests.py`` moves, so no
#: manifest written by the old code is ever trusted again.
MATERIALIZATION_VERSION = 1

#: Same tractability bound as ``experiments.runner.DEFAULT_MAX_PATHS``.
DEFAULT_MAX_PATHS = 3000


def _crc(text: str) -> int:
    """Stable 31-bit digest used to key seed trees (never ``hash()``)."""
    return zlib.crc32(text.encode()) & 0x7FFFFFFF


#: numpy's ``SeedSequence`` hash: pool size, ``hashmix`` and ``mix``
#: constants, and the ``generate_state`` constants.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MASK32 = 0xFFFFFFFF


def _words(value: int) -> list[int]:
    """``value``'s little-endian 32-bit words, as ``SeedSequence``
    coerces an entropy int (``[0]`` for 0); negative values raise
    numpy's ``ValueError``."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _seeds(
    root_seed: int, name_key: int, cell_keys: Sequence[int], draws: int
) -> np.ndarray:
    """The ``uint32`` seed of every ``(cell, draw)``, cells outer.

    Entry ``c * draws + d`` equals
    ``SeedSequence([root_seed, name_key, cell_keys[c], d])
    .generate_state(1)[0]``: numpy's documented hash, run once over
    every point's entropy words.  ``hashmix`` fills the 4-word pool
    from the first words, ``mix`` crosses the pool words, then words
    past the 4th (a ``root_seed >= 2**32``) are mixed into every pool
    word.  There is no spawn key, so no padding.  The multiplier
    ``hashmix`` carries depends only on the call count, so it is one
    scalar for all points.
    """
    head = _words(root_seed) + [name_key]
    n = len(cell_keys) * draws
    entropy = np.empty((len(head) + 2, n), dtype=np.uint32)
    entropy[:len(head)] = np.array(head, dtype=np.uint32)[:, None]
    entropy[-2] = np.repeat(np.asarray(cell_keys, dtype=np.uint32), draws)
    entropy[-1] = np.tile(np.arange(draws, dtype=np.uint32), len(cell_keys))
    mult = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal mult
        value = value ^ np.uint32(mult)
        mult = mult * _MULT_A & _MASK32
        value = value * np.uint32(mult)
        return value ^ (value >> 16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        value = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return value ^ (value >> 16)

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    value = (pool[0] ^ np.uint32(_INIT_B)) * np.uint32(_INIT_B * _MULT_B
                                                       & _MASK32)
    return value ^ (value >> 16)


def _pair(value: Sequence[float], what: str) -> tuple[float, float]:
    lo, hi = (float(v) for v in value)
    if not lo <= hi:
        raise ValidationError(f"{what} range must be (lo, hi) with lo <= hi")
    return (lo, hi)


# ----------------------------------------------------------------------
# application axis
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ApplicationAxis:
    """One application family of the grid.

    Attributes
    ----------
    label:
        Axis label (seed-tree key and report column).
    kind:
        ``"workload"`` — a catalog entry; ``"synthetic"`` — a
        parametric :func:`repro.workloads.synthetic` pipeline.
    workload:
        Catalog name (``kind="workload"``).
    n_stages, shape, scale, seed:
        Synthetic parameters (``kind="synthetic"``); ``seed`` feeds the
        ``"random"`` shape only.
    """

    label: str
    kind: str
    workload: str | None = None
    n_stages: int | None = None
    shape: str = "balanced"
    scale: float = 10.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind == "workload":
            if not self.workload:
                raise ValidationError("workload axis needs a catalog name")
            get_workload(self.workload)  # raises KeyError listing names
        elif self.kind == "synthetic":
            if self.n_stages is None or self.n_stages < 1:
                raise ValidationError("synthetic axis needs n_stages >= 1")
        else:
            raise ValidationError(
                f"unknown application kind {self.kind!r}; "
                f"expected 'workload' or 'synthetic'"
            )

    def application(self) -> Application:
        """The (deterministic) application of this axis, built once."""
        return self._application

    @cached_property
    def _application(self) -> Application:
        if self.kind == "workload":
            assert self.workload is not None  # __post_init__ guarantees
            return get_workload(self.workload)
        assert self.n_stages is not None  # __post_init__ guarantees
        return synthetic(self.n_stages, shape=self.shape, scale=self.scale,
                         seed=self.seed)

    def to_dict(self) -> dict[str, Any]:
        if self.kind == "workload":
            return {"label": self.label, "workload": self.workload}
        return {
            "label": self.label,
            "synthetic": {
                "n_stages": self.n_stages, "shape": self.shape,
                "scale": self.scale, "seed": self.seed,
            },
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ApplicationAxis":
        if "workload" in data:
            name = data["workload"]
            return cls(label=data.get("label", name), kind="workload",
                       workload=name)
        if "synthetic" in data:
            syn = data["synthetic"]
            n = int(syn["n_stages"])
            shape = syn.get("shape", "balanced")
            return cls(
                label=data.get("label", f"synthetic-{shape}-{n}"),
                kind="synthetic", n_stages=n, shape=shape,
                scale=float(syn.get("scale", 10.0)),
                seed=int(syn.get("seed", 0)),
            )
        raise ValidationError(
            f"application axis needs a 'workload' or 'synthetic' key, "
            f"got {sorted(data)}"
        )


# ----------------------------------------------------------------------
# platform axis
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlatformAxis:
    """One platform heterogeneity regime of the grid.

    Attributes
    ----------
    label:
        Axis label.
    n_procs:
        Platform size ``p``.
    kind:
        ``"uniform"`` — speeds and bandwidths drawn uniformly from the
        given ranges; ``"times"`` — computation/communication *times*
        drawn like Table 2 and inverted through
        :meth:`Platform.from_comm_times`.
    speed_range, bandwidth_range:
        Uniform ranges of the ``"uniform"`` regime.
    comp_time_range, comm_time_range:
        Uniform ranges of the ``"times"`` regime.
    clusters:
        ``k > 1`` splits processors into ``k`` groups; each group draws
        one speed factor from ``cluster_factor_range`` (multiplying its
        processors' speeds) and intra-group links are multiplied by
        ``intra_bandwidth_factor`` — a cheap model of fast-interconnect
        sub-clusters inside a heterogeneous platform.
    """

    label: str
    n_procs: int
    kind: str = "uniform"
    speed_range: tuple[float, float] = (1.0, 5.0)
    bandwidth_range: tuple[float, float] = (1.0, 10.0)
    comp_time_range: tuple[float, float] = (5.0, 15.0)
    comm_time_range: tuple[float, float] = (5.0, 15.0)
    clusters: int = 1
    cluster_factor_range: tuple[float, float] = (0.5, 2.0)
    intra_bandwidth_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.n_procs < 1:
            raise ValidationError("platform axis needs n_procs >= 1")
        if self.kind not in ("uniform", "times"):
            raise ValidationError(
                f"unknown platform kind {self.kind!r}; "
                f"expected 'uniform' or 'times'"
            )
        if not 1 <= self.clusters <= self.n_procs:
            raise ValidationError(
                f"clusters must be in [1, n_procs], got {self.clusters}"
            )

    def draw(self, rng: np.random.Generator) -> Platform:
        """Draw one platform of this regime."""
        p = self.n_procs
        if self.kind == "times":
            comp = rng.uniform(*self.comp_time_range, p)
            comm = rng.uniform(*self.comm_time_range, (p, p))
            np.fill_diagonal(comm, 0.0)
            return Platform.from_comm_times(comp, comm, name=self.label)

        speeds = rng.uniform(*self.speed_range, p)
        bw = rng.uniform(*self.bandwidth_range, (p, p))
        if self.clusters > 1:
            factors = rng.uniform(*self.cluster_factor_range, self.clusters)
            group = (np.arange(p) * self.clusters) // p
            speeds = speeds * factors[group]
            if self.intra_bandwidth_factor != 1.0:
                same = group[:, None] == group[None, :]
                bw = np.where(same, bw * self.intra_bandwidth_factor, bw)
        np.fill_diagonal(bw, 0.0)
        return Platform(speeds, bw, name=self.label)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"label": self.label, "n_procs": self.n_procs,
                     "kind": self.kind}
        if self.kind == "uniform":
            out["speed_range"] = list(self.speed_range)
            out["bandwidth_range"] = list(self.bandwidth_range)
        else:
            out["comp_time_range"] = list(self.comp_time_range)
            out["comm_time_range"] = list(self.comm_time_range)
        if self.clusters > 1:
            out["clusters"] = self.clusters
            out["cluster_factor_range"] = list(self.cluster_factor_range)
            out["intra_bandwidth_factor"] = self.intra_bandwidth_factor
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "PlatformAxis":
        p = int(data["n_procs"])
        kind = data.get("kind", "times" if "comp_time_range" in data
                        or "comm_time_range" in data else "uniform")
        return cls(
            label=data.get("label", f"{kind}-p{p}"),
            n_procs=p,
            kind=kind,
            speed_range=_pair(data.get("speed_range", (1.0, 5.0)), "speed"),
            bandwidth_range=_pair(data.get("bandwidth_range", (1.0, 10.0)),
                                  "bandwidth"),
            comp_time_range=_pair(data.get("comp_time_range", (5.0, 15.0)),
                                  "comp time"),
            comm_time_range=_pair(data.get("comm_time_range", (5.0, 15.0)),
                                  "comm time"),
            clusters=int(data.get("clusters", 1)),
            cluster_factor_range=_pair(
                data.get("cluster_factor_range", (0.5, 2.0)), "cluster factor"
            ),
            intra_bandwidth_factor=float(
                data.get("intra_bandwidth_factor", 1.0)
            ),
        )


# ----------------------------------------------------------------------
# replication axis
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReplicationAxis:
    """One replication policy of the grid.

    Attributes
    ----------
    label:
        Axis label.
    policy:
        ``"balls"`` / ``"greedy-spare"`` — the two random readings of
        the paper's "uniformly chosen" replication
        (:func:`repro.experiments.generator.random_replication`) — or
        ``"fixed"`` for an explicit per-stage count vector.
    counts:
        The fixed counts (``policy="fixed"``).
    assignment:
        ``"random"`` — a drawn permutation sliced into consecutive
        groups (the Table 2 scheme); ``"blocks"`` — processors
        ``0..sum(counts)-1`` in stage order, deterministic, so all
        draws of a cell share one mapping (and hence one TPN topology).
        Only meaningful with ``policy="fixed"``.
    """

    label: str
    policy: str = "balls"
    counts: tuple[int, ...] | None = None
    assignment: str = "random"

    def __post_init__(self) -> None:
        if self.policy == "fixed":
            if not self.counts:
                raise ValidationError("fixed replication needs counts")
            if any(c < 1 for c in self.counts):
                raise ValidationError("replication counts must be >= 1")
        elif self.policy not in ("balls", "greedy-spare"):
            raise ValidationError(
                f"unknown replication policy {self.policy!r}; expected "
                f"'balls', 'greedy-spare' or 'fixed'"
            )
        if self.assignment not in ("random", "blocks"):
            raise ValidationError(
                f"unknown assignment {self.assignment!r}; expected "
                f"'random' or 'blocks'"
            )
        if self.assignment == "blocks" and self.policy != "fixed":
            raise ValidationError(
                "assignment='blocks' requires policy='fixed' (random "
                "counts have no canonical block layout)"
            )

    def infeasibility(
        self, n_stages: int, n_procs: int, max_paths: int
    ) -> str | None:
        """Why this policy cannot map ``n_stages`` onto ``n_procs``.

        ``None`` when it can.  Otherwise the reason :meth:`draw_mapping`
        raises: a fixed count vector of the wrong length, over capacity
        or over the path budget, or fewer processors than stages.
        """
        if self.policy != "fixed":
            if n_procs < n_stages:
                return (f"need at least one processor per stage: "
                        f"{n_stages} stages, {n_procs} processors")
            return None
        assert self.counts is not None  # __post_init__ guarantees
        counts = tuple(int(c) for c in self.counts)
        if len(counts) != n_stages:
            return (f"replication axis {self.label!r} has {len(counts)} "
                    f"counts but the application has {n_stages} stages")
        if sum(counts) > n_procs:
            return (f"replication axis {self.label!r} needs {sum(counts)} "
                    f"processors but the platform has {n_procs}")
        if lcm_all(counts) > max_paths:
            return (f"replication axis {self.label!r} has lcm(m_i) = "
                    f"{lcm_all(counts)} > max_paths = {max_paths}")
        return None

    def feasible(self, n_stages: int, n_procs: int, max_paths: int) -> bool:
        """Whether this policy can map ``n_stages`` onto ``n_procs``.

        Grid cells combining an infeasible (application, platform,
        replication) triple are *excluded* from the expansion rather
        than erroring: a declarative grid naturally mixes axes that only
        apply to some applications ("where applicable" semantics).
        ``campaign_status`` reports each excluded cell with its
        :meth:`infeasibility` reason.
        """
        return self.infeasibility(n_stages, n_procs, max_paths) is None

    def draw_mapping(
        self,
        n_stages: int,
        n_procs: int,
        rng: np.random.Generator,
        max_paths: int,
    ) -> Mapping:
        """Draw (or lay out) one mapping for ``n_stages`` on ``n_procs``."""
        reason = self.infeasibility(n_stages, n_procs, max_paths)
        if reason is not None:
            raise ValidationError(reason)
        if self.policy == "fixed":
            assert self.counts is not None  # __post_init__ guarantees
            counts = tuple(int(c) for c in self.counts)
        else:
            counts = random_replication(
                n_stages, n_procs, rng, max_paths=max_paths,
                method=self.policy,
            )
        if self.assignment == "blocks":
            return _blocks_mapping(counts, n_procs)
        return _sliced(rng.permutation(n_procs).tolist(), counts, n_procs)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"label": self.label, "policy": self.policy}
        if self.policy == "fixed":
            assert self.counts is not None  # __post_init__ guarantees
            out["counts"] = list(self.counts)
            out["assignment"] = self.assignment
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ReplicationAxis":
        if "fixed" in data and "policy" not in data:
            data = {**data, "policy": "fixed", "counts": data["fixed"]}
        policy = data.get("policy", "balls")
        counts = data.get("counts")
        if policy == "fixed":
            label = data.get(
                "label", "fixed-" + "x".join(str(c) for c in counts or ())
            )
        else:
            label = data.get("label", policy)
        return cls(
            label=label,
            policy=policy,
            counts=tuple(int(c) for c in counts) if counts else None,
            assignment=data.get(
                "assignment", "blocks" if policy == "fixed" else "random"
            ),
        )


def _sliced(
    order: Sequence[int], counts: Sequence[int], n_procs: int
) -> Mapping:
    """Mapping giving each stage the next ``counts[i]`` entries of ``order``."""
    return Mapping(
        [tuple(order[end - c: end])
         for c, end in zip(counts, accumulate(counts))],
        n_processors=n_procs,
    )


@lru_cache(maxsize=64)
def _blocks_mapping(counts: tuple[int, ...], n_procs: int) -> Mapping:
    """The ``blocks`` layout, built once per ``(counts, n_procs)``.

    Every draw of a blocks cell has this one mapping, so its points
    share the (immutable) object instead of rebuilding it.
    """
    return _sliced(range(n_procs), counts, n_procs)


# ----------------------------------------------------------------------
# points and the spec itself
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignPoint:
    """One expanded point: a grid cell plus a draw index and its seed.

    The instance is a pure function of ``seed`` (mapping drawn first,
    then platform), so a point re-materializes identically in any
    process — the property the content-addressed store keys on.
    """

    index: int
    application: ApplicationAxis
    platform: PlatformAxis
    replication: ReplicationAxis
    model: str
    draw: int
    seed: int
    max_paths: int = DEFAULT_MAX_PATHS

    @property
    def cell(self) -> tuple[str, str, str, str]:
        """The grid-cell key ``(app, platform, replication, model)``."""
        return (self.application.label, self.platform.label,
                self.replication.label, self.model)

    def instance(self) -> Instance:
        """Materialize the point's instance (deterministic)."""
        rng = np.random.default_rng(np.random.SeedSequence(self.seed))
        app = self.application.application()
        mapping = self.replication.draw_mapping(
            app.n_stages, self.platform.n_procs, rng, self.max_paths
        )
        plat = self.platform.draw(rng)
        return Instance(app, plat, mapping)


def _unique_labels(axes: Sequence[Any], what: str) -> None:
    labels = [a.label for a in axes]
    if len(set(labels)) != len(labels):
        raise ValidationError(f"duplicate {what} axis labels: {labels}")


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative, deterministically expandable experiment campaign.

    The grid is the cartesian product
    ``applications x platforms x replications x models``, with ``draws``
    seeded repetitions per cell.  Expansion order is the nested loop in
    that axis order (draws innermost) — the "sweep order" the executor's
    chunk layout preserves inside each topology group.

    Examples
    --------
    >>> spec = CampaignSpec(
    ...     name="demo",
    ...     draws=2,
    ...     models=("overlap",),
    ...     applications=(ApplicationAxis.from_dict(
    ...         {"synthetic": {"n_stages": 3}}),),
    ...     platforms=(PlatformAxis.from_dict({"n_procs": 6}),),
    ...     replications=(ReplicationAxis.from_dict({"policy": "balls"}),),
    ... )
    >>> [p.index for p in spec.expand()]
    [0, 1]
    >>> spec.expand()[0].instance().n_stages
    3
    """

    name: str
    draws: int
    models: tuple[str, ...]
    applications: tuple[ApplicationAxis, ...]
    platforms: tuple[PlatformAxis, ...]
    replications: tuple[ReplicationAxis, ...] = (
        ReplicationAxis(label="balls", policy="balls"),
    )
    root_seed: int = 20090302
    max_paths: int = DEFAULT_MAX_PATHS
    #: Objective grid of the campaign (canonical order; the period-only
    #: default keeps digests and artifacts byte-identical to pre-plane
    #: campaigns).  Extra objectives ride along on every stored payload
    #: (``latency`` / ``reliability`` next to the period values) and
    #: unlock the report's per-objective pivots and Pareto export.
    objectives: tuple[str, ...] = ("period",)

    def __post_init__(self) -> None:
        # Canonicalize through the objective plane's parser ("latency,
        # period" and ("period", "latency") are the same grid — equal
        # specs must digest equally).
        object.__setattr__(self, "objectives",
                           parse_objectives(self.objectives))
        if not self.name:
            raise ValidationError("a campaign needs a non-empty name")
        if self.draws < 1:
            raise ValidationError("draws must be >= 1")
        if not self.models:
            raise ValidationError("a campaign needs at least one model")
        for m in self.models:
            try:
                CommModel.parse(m)
            except ValueError as exc:
                raise ValidationError(str(exc)) from None
        for axes, what in ((self.applications, "application"),
                           (self.platforms, "platform"),
                           (self.replications, "replication")):
            if not axes:
                raise ValidationError(f"a campaign needs >= 1 {what} axis")
            _unique_labels(axes, what)

    @property
    def n_points(self) -> int:
        """Total number of points the spec expands to."""
        return len(self.expand())

    def expand(self) -> list[CampaignPoint]:
        """Expand the grid into seeded points (stable order and seeds).

        Every point's seed is
        ``SeedSequence([root_seed, crc32(name), crc32(cell-key), draw])
        .generate_state(1)[0]`` — stable across interpreters, and
        insensitive to the *other* cells in the spec: adding an axis
        never reseeds existing cells, so a grown campaign re-uses every
        already-stored point.  That formula is the definition; the
        seeds of the whole spec are computed in one vectorized pass of
        the same hash (:func:`_seeds`).

        Cells whose replication policy is infeasible for the cell's
        (application, platform) pair are excluded
        (:meth:`ReplicationAxis.feasible`); ``campaign_status`` lists
        them under ``"skipped"`` with their reasons.
        """
        cells: list[tuple[ApplicationAxis, PlatformAxis, ReplicationAxis,
                          str, int]] = []
        for app in self.applications:
            n_stages = app.application().n_stages
            for plat in self.platforms:
                for repl in self.replications:
                    if not repl.feasible(n_stages, plat.n_procs,
                                         self.max_paths):
                        continue
                    for model in self.models:
                        model_value = CommModel.parse(model).value
                        cells.append((app, plat, repl, model_value, _crc(
                            "|".join((app.label, plat.label, repl.label,
                                      model_value)))))
        seeds = iter(_seeds(self.root_seed, _crc(self.name),
                            [key for *_, key in cells], self.draws).tolist())
        points: list[CampaignPoint] = []
        for app, plat, repl, model_value, _ in cells:
            for draw in range(self.draws):
                points.append(CampaignPoint(
                    index=len(points),
                    application=app,
                    platform=plat,
                    replication=repl,
                    model=model_value,
                    draw=draw,
                    seed=next(seeds),
                    max_paths=self.max_paths,
                ))
        return points

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "draws": self.draws,
            "models": list(self.models),
            "applications": [a.to_dict() for a in self.applications],
            "platforms": [p.to_dict() for p in self.platforms],
            "replications": [r.to_dict() for r in self.replications],
            "root_seed": self.root_seed,
            "max_paths": self.max_paths,
        }
        # Emitted only off-default so period-only spec artifacts keep
        # their historical bytes.
        if self.objectives != ("period",):
            out["objectives"] = list(self.objectives)
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CampaignSpec":
        for section in ("applications", "platforms"):
            if section not in data:
                raise ValidationError(
                    f"campaign spec is missing the {section!r} section"
                )
        apps = tuple(ApplicationAxis.from_dict(d)
                     for d in data["applications"])
        plats = tuple(PlatformAxis.from_dict(d)
                      for d in data["platforms"])
        repls = tuple(ReplicationAxis.from_dict(d)
                      for d in data.get("replications",
                                        [{"policy": "balls"}]))
        return cls(
            name=data.get("name", "campaign"),
            draws=int(data.get("draws", 1)),
            models=tuple(data.get("models", ("overlap", "strict"))),
            applications=apps,
            platforms=plats,
            replications=repls,
            root_seed=int(data.get("root_seed", 20090302)),
            max_paths=int(data.get("max_paths", DEFAULT_MAX_PATHS)),
            objectives=parse_objectives(data.get("objectives")),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "CampaignSpec":
        """Load a spec from a ``.json`` or ``.toml`` file."""
        path = Path(path)
        text = path.read_text(encoding="utf-8")
        if path.suffix.lower() == ".toml":
            try:
                import tomllib
            except ImportError:  # pragma: no cover - Python < 3.11
                raise ValidationError(
                    "TOML specs need Python >= 3.11 (tomllib); use the "
                    "JSON spec format on this interpreter"
                ) from None
            data = tomllib.loads(text)
        else:
            data = json.loads(text)
        return cls.from_dict(data)
