"""Platform model: heterogeneous processors and links (Section 2).

The target platform has ``p`` processors.  Processor ``P_u`` has speed
``Pi_u`` (FLOP per time unit) and every ordered pair ``(P_u, P_v)`` is
joined by a (possibly logical) bidirectional link of bandwidth ``b_{u,v}``
bytes per time unit — e.g. a star-shaped physical network where every
processor reaches every other one through a central switch.

Time to process ``S_k`` on ``P_u``: ``w_k / Pi_u``.
Time to ship ``F_i`` from ``P_u`` to ``P_v``: ``delta_i / b_{u,v}``.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np
import numpy.typing as npt

from ..errors import ValidationError

__all__ = ["Platform"]


class Platform:
    """A fully connected heterogeneous platform.

    Parameters
    ----------
    speeds:
        Processor speeds ``Pi_u`` (FLOP / time unit), length ``p``.
        Every speed must be finite and positive.
    bandwidths:
        ``p x p`` matrix of link bandwidths (bytes / time unit).
        ``bandwidths[u, v]`` is the bandwidth of the link ``P_u -> P_v``.
        Off-diagonal entries must be positive (``math.inf`` is allowed and
        models an infinitely fast link, i.e. zero communication time).
        The diagonal is ignored — a processor never sends a file to itself
        because it executes at most one stage.
    name:
        Optional label used in reports.
    failure_rates:
        Optional per-processor failure probabilities in ``[0, 1)``: the
        probability that ``P_u`` fails while handling one data set
        (Benoit, Rehn-Sonigo & Robert's multi-criteria model).  ``None``
        (the default) means the platform carries no failure model and
        every mapping has reliability 1 — the paper's original,
        reliability-free setting.

    Examples
    --------
    >>> plat = Platform(speeds=[1.0, 2.0], bandwidths=[[0, 5.0], [5.0, 0]])
    >>> plat.comp_time(work=10.0, proc=1)
    5.0
    >>> plat.comm_time(size=10.0, src=0, dst=1)
    2.0
    """

    __slots__ = ("speeds", "bandwidths", "name", "failure_rates")

    def __init__(
        self,
        speeds: Sequence[float],
        bandwidths: Sequence[Sequence[float]] | npt.NDArray[np.float64],
        name: str = "platform",
        failure_rates: Sequence[float] | None = None,
    ) -> None:
        speeds_arr = np.asarray(speeds, dtype=float)
        if speeds_arr.ndim != 1 or speeds_arr.size < 1:
            raise ValidationError("speeds must be a non-empty 1-D sequence")
        # A NaN minimum compares false, so one min/max pair rejects NaN,
        # non-positive and infinite speeds alike.
        if not 0.0 < speeds_arr.min() <= speeds_arr.max() < math.inf:
            raise ValidationError("every processor speed must be finite and > 0")

        bw = np.asarray(bandwidths, dtype=float)
        p = speeds_arr.size
        if bw.shape != (p, p):
            raise ValidationError(
                f"bandwidths must be a {p}x{p} matrix to match {p} "
                f"processors, got shape {bw.shape}"
            )
        # ``> 0`` is false for NaN and -inf and true for +inf; the
        # diagonal is ignored.
        positive = bw > 0
        positive.flat[:: p + 1] = True
        if not positive.all():
            raise ValidationError(
                "every off-diagonal bandwidth must be positive (or inf)"
            )

        #: Processor speeds, shape ``(p,)``.
        self.speeds = speeds_arr
        self.speeds.setflags(write=False)
        #: Link bandwidth matrix, shape ``(p, p)``.
        self.bandwidths = bw
        self.bandwidths.setflags(write=False)
        #: Label used in reports.
        self.name = str(name)
        #: Optional per-processor failure probabilities, shape ``(p,)``.
        if failure_rates is None:
            self.failure_rates: npt.NDArray[np.float64] | None = None
        else:
            fr = np.asarray(failure_rates, dtype=float)
            if fr.shape != (p,):
                raise ValidationError(
                    f"failure_rates must have one entry per processor "
                    f"({p}), got shape {fr.shape}"
                )
            if not np.all(np.isfinite(fr)) or np.any(fr < 0) or np.any(fr >= 1):
                raise ValidationError(
                    "every failure rate must be a probability in [0, 1)"
                )
            self.failure_rates = fr
            self.failure_rates.setflags(write=False)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def n_processors(self) -> int:
        """Number of processors ``p``."""
        return int(self.speeds.size)

    def speed(self, u: int) -> float:
        """Speed ``Pi_u`` of processor ``P_u``."""
        return float(self.speeds[self._check(u)])

    def bandwidth(self, u: int, v: int) -> float:
        """Bandwidth ``b_{u,v}`` of the link ``P_u -> P_v`` (``u != v``)."""
        u, v = self._check(u), self._check(v)
        if u == v:
            raise ValidationError(
                f"no link P{u} -> P{u}: a processor executes at most one "
                f"stage so it never ships a file to itself"
            )
        return float(self.bandwidths[u, v])

    def failure_rate(self, u: int) -> float:
        """Failure probability of ``P_u`` per data set (0 when unmodelled)."""
        if self.failure_rates is None:
            return 0.0
        return float(self.failure_rates[self._check(u)])

    def comp_time(self, work: float, proc: int) -> float:
        """Time to execute ``work`` FLOP on processor ``proc``."""
        return float(work) / self.speed(proc)

    def comm_time(self, size: float, src: int, dst: int) -> float:
        """Time to ship ``size`` bytes from ``src`` to ``dst``.

        Returns ``0.0`` for infinitely fast links even when ``size`` is 0
        (``0/inf`` is well-defined).
        """
        b = self.bandwidth(src, dst)
        if math.isinf(b):
            return 0.0
        return float(size) / b

    def _check(self, u: int) -> int:
        u = int(u)
        if not 0 <= u < self.n_processors:
            raise IndexError(
                f"processor index {u} out of range [0, {self.n_processors})"
            )
        return u

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def homogeneous(
        cls, n: int, speed: float = 1.0, bandwidth: float = 1.0, name: str = "homogeneous"
    ) -> "Platform":
        """Platform with ``n`` identical processors and identical links."""
        bw = np.full((n, n), float(bandwidth))
        np.fill_diagonal(bw, 0.0)
        return cls([float(speed)] * n, bw, name=name)

    @classmethod
    def star(
        cls,
        speeds: Sequence[float],
        up_bandwidths: Sequence[float],
        down_bandwidths: Sequence[float] | None = None,
        name: str = "star",
    ) -> "Platform":
        """Star-shaped platform routed through a central switch.

        The effective (logical) bandwidth between ``u`` and ``v`` is the
        bottleneck of ``u``'s uplink and ``v``'s downlink:
        ``b_{u,v} = min(up[u], down[v])``.  This mirrors the paper's remark
        that links need not be physical.
        """
        up = np.asarray(up_bandwidths, dtype=float)
        down = up if down_bandwidths is None else np.asarray(down_bandwidths, dtype=float)
        n = len(speeds)
        if up.shape != (n,) or down.shape != (n,):
            raise ValidationError(
                "up/down bandwidth vectors must have one entry per processor"
            )
        bw = np.minimum(up[:, None], down[None, :])
        np.fill_diagonal(bw, 0.0)
        return cls(speeds, bw, name=name)

    @classmethod
    def from_comm_times(
        cls,
        comp_times: Sequence[float],
        comm_times: Sequence[Sequence[float]] | npt.NDArray[np.float64],
        name: str = "from-times",
    ) -> "Platform":
        """Build a platform from per-resource *times* for unit work/files.

        The paper's examples and Table 2 experiments are parameterized by
        computation and communication **times** rather than speeds and
        bandwidths.  With unit stage works and unit file sizes
        (``w_k = delta_i = 1``), a processor that should take ``t`` time
        units per stage gets speed ``1/t`` and a link that should take
        ``t`` gets bandwidth ``1/t``; a communication time of 0 becomes an
        infinite bandwidth.
        """
        ct = np.asarray(comp_times, dtype=float)
        mt = np.asarray(comm_times, dtype=float)
        n = ct.size
        if mt.shape != (n, n):
            raise ValidationError(
                f"comm_times must be {n}x{n} to match {n} processors"
            )
        if np.any(ct <= 0) or not np.all(np.isfinite(ct)):
            raise ValidationError("every computation time must be finite and > 0")
        off = ~np.eye(n, dtype=bool)
        if np.any(mt[off] < 0) or np.any(np.isnan(mt[off])):
            raise ValidationError("communication times must be >= 0")
        with np.errstate(divide="ignore"):
            bw = np.where(mt > 0, 1.0 / np.where(mt > 0, mt, 1.0), np.inf)
        np.fill_diagonal(bw, 0.0)
        return cls(1.0 / ct, bw, name=name)

    def with_failure_rates(
        self, failure_rates: Sequence[float] | float
    ) -> "Platform":
        """Copy of this platform with the given per-processor failure rates.

        A scalar is broadcast to every processor — the homogeneous
        failure model of the multi-criteria papers.
        """
        if isinstance(failure_rates, (int, float)):
            rates: Sequence[float] = [float(failure_rates)] * self.n_processors
        else:
            rates = [float(r) for r in failure_rates]
        return Platform(
            self.speeds, self.bandwidths, name=self.name, failure_rates=rates
        )

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Plain-data representation (``inf`` encoded as the string "inf").

        ``failure_rates`` is emitted only when a failure model is set, so
        failure-free platforms serialize to exactly the same bytes as
        before the reliability objective existed — the campaign store's
        content digests rely on this.
        """

        bandwidths: list[list[Any]] = self.bandwidths.tolist()
        if np.isinf(self.bandwidths).any():
            bandwidths = [["inf" if math.isinf(b) else b for b in row]
                          for row in bandwidths]
        data: dict[str, Any] = {
            "name": self.name,
            "speeds": self.speeds.tolist(),
            "bandwidths": bandwidths,
        }
        if self.failure_rates is not None:
            data["failure_rates"] = self.failure_rates.tolist()
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Platform":
        """Inverse of :meth:`to_dict`."""

        def dec(x: float | str) -> float:
            return math.inf if x == "inf" else float(x)

        bw = [[dec(b) for b in row] for row in data["bandwidths"]]
        return cls(
            data["speeds"],
            bw,
            name=data.get("name", "platform"),
            failure_rates=data.get("failure_rates"),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Platform(name={self.name!r}, n_processors={self.n_processors})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Platform):
            return NotImplemented
        if (self.failure_rates is None) != (other.failure_rates is None):
            return False
        if self.failure_rates is not None and other.failure_rates is not None:
            if not np.array_equal(self.failure_rates, other.failure_rates):
                return False
        return bool(
            np.array_equal(self.speeds, other.speeds)
            and np.array_equal(self.bandwidths, other.bandwidths)
        )

    def __hash__(self) -> int:
        fr = None if self.failure_rates is None else self.failure_rates.tobytes()
        return hash((self.speeds.tobytes(), self.bandwidths.tobytes(), fr))
