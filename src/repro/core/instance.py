"""Problem instance: an application, a platform and a mapping, validated together."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any
from pathlib import Path

from ..errors import ValidationError
from ..utils import canonical_json
from .application import Application
from .mapping import Mapping
from .platform import Platform

__all__ = ["Instance"]


@dataclass(frozen=True)
class Instance:
    """A fully specified problem: *what* runs *where*.

    Bundles an :class:`~repro.core.application.Application`, a
    :class:`~repro.core.platform.Platform` and a
    :class:`~repro.core.mapping.Mapping` and validates their cross
    consistency (stage counts match, processor indices are in range).
    All the period-computation entry points of the library take an
    ``Instance``.

    Examples
    --------
    >>> from repro import Application, Platform, Mapping, Instance
    >>> inst = Instance(
    ...     Application(works=[1, 1], file_sizes=[1]),
    ...     Platform.homogeneous(3),
    ...     Mapping([(0,), (1, 2)]),
    ... )
    >>> inst.comp_time(stage=1, proc=2)
    1.0
    """

    application: Application
    platform: Platform
    mapping: Mapping

    def __post_init__(self) -> None:
        app, plat, mp = self.application, self.platform, self.mapping
        if mp.n_stages != app.n_stages:
            raise ValidationError(
                f"mapping covers {mp.n_stages} stages but the application "
                f"has {app.n_stages}"
            )
        n_procs = plat.n_processors
        for u in mp.used_processors:
            if u >= n_procs:
                raise ValidationError(
                    f"mapping uses processor P{u} but the platform only has "
                    f"{n_procs} processors"
                )

    # ------------------------------------------------------------------
    # convenience accessors used throughout the library
    # ------------------------------------------------------------------
    @property
    def n_stages(self) -> int:
        """Number of pipeline stages."""
        return self.application.n_stages

    @property
    def num_paths(self) -> int:
        """``m = lcm(m_i)``, the number of round-robin paths (Prop. 1)."""
        return self.mapping.num_paths

    @property
    def replication_counts(self) -> tuple[int, ...]:
        """Per-stage replication factors ``(m_0, ..., m_{n-1})``."""
        return self.mapping.replication_counts

    def comp_time(self, stage: int, proc: int) -> float:
        """Time for ``proc`` to run one data set of ``stage``: ``w_k / Pi_u``."""
        return self.platform.comp_time(self.application.work(stage), proc)

    def comm_time(self, file_index: int, src: int, dst: int) -> float:
        """Time to ship ``F_i`` from ``src`` to ``dst``: ``delta_i / b``."""
        return self.platform.comm_time(
            self.application.file_size(file_index), src, dst
        )

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Plain-data representation of the whole instance."""
        return {
            "application": self.application.to_dict(),
            "platform": self.platform.to_dict(),
            "mapping": self.mapping.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Instance":
        """Inverse of :meth:`to_dict`."""
        return cls(
            Application.from_dict(data["application"]),
            Platform.from_dict(data["platform"]),
            Mapping.from_dict(data["mapping"]),
        )

    def to_json(self, path: str | Path | None = None, indent: int = 2) -> str:
        """Serialize to canonical JSON; also writes ``path`` when given.

        Keys are sorted (:func:`repro.utils.canonical_json`) so equal
        instances serialize to identical bytes — instance files diff
        cleanly and can be digested by the campaign store.
        """
        text = canonical_json(self.to_dict(), indent=indent)
        if path is not None:
            Path(path).write_text(text)
        return text

    @classmethod
    def from_json(cls, source: str | Path) -> "Instance":
        """Load an instance from a JSON string or file path."""
        if isinstance(source, Path) or (
            isinstance(source, str) and "\n" not in source and source.endswith(".json")
        ):
            text = Path(source).read_text()
        else:
            text = str(source)
        return cls.from_dict(json.loads(text))
