"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package that re-exports a subsystem a caller may never run (search,
simulation, the experiments harness) names those re-exports in a table
instead of importing them::

    from .._lazy import lazy_exports

    __getattr__, __dir__ = lazy_exports(globals(), {
        ".report": ("campaign_report_data", "render_report_text"),
    })

The submodule is imported on the first attribute access, so
``from repro.campaign import render_report_text``, ``__all__`` and
``dir()`` behave as with an eager import, and ``import repro.campaign``
does not pay for the report module.  An attribute that names a
submodule (``repro.search`` after ``import repro``) imports it too.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Mapping, Sequence


def lazy_exports(
    namespace: dict[str, Any], table: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for the package whose globals are
    ``namespace``; ``table`` maps a relative submodule to its names."""
    package = namespace["__name__"]
    source = {name: module for module, names in table.items()
              for name in names}

    def __getattr__(name: str) -> Any:
        if name in source:
            value = getattr(importlib.import_module(source[name], package), name)
            namespace[name] = value
            return value
        if not name.startswith("_"):
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(source))

    return __getattr__, __dir__
