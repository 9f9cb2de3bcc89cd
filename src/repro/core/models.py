"""Communication models of the paper (Section 2).

The paper studies two realistic one-port communication models:

* :attr:`CommModel.OVERLAP_ONE_PORT` — communications overlap computation:
  a processor can simultaneously receive the input of data set ``i+1``,
  compute data set ``i`` and send the result of data set ``i-1``.  Each
  *port* (incoming, outgoing) still serializes its own transfers.
* :attr:`CommModel.STRICT_ONE_PORT` — no overlap: a processor either
  receives, computes, or sends.  The three operations of one data set are
  executed as a serial receive → compute → send cycle.
"""

from __future__ import annotations

import enum

__all__ = ["CommModel"]


class CommModel(enum.Enum):
    """One-port communication model used for period computation."""

    #: Communications overlap computations (multi-threaded, full duplex).
    OVERLAP_ONE_PORT = "overlap"
    #: Receive, compute and send are mutually exclusive (single thread).
    STRICT_ONE_PORT = "strict"

    @classmethod
    def parse(cls, value: "CommModel | str") -> "CommModel":
        """Coerce a user-supplied value into a :class:`CommModel`.

        Accepts the enum itself, its ``value`` ("overlap"/"strict"), or its
        name in any case ("OVERLAP_ONE_PORT", "strict_one_port", ...).
        """
        if isinstance(value, str):
            member = _SPELLINGS.get(value) or _SPELLINGS.get(value.strip().lower())
            if member is not None:
                return member
        elif isinstance(value, cls):
            return value
        raise ValueError(
            f"unknown communication model {value!r}; expected one of "
            f"{[m.value for m in cls]}"
        )

    @property
    def overlap(self) -> bool:
        """``True`` when communications overlap computations."""
        return self is CommModel.OVERLAP_ONE_PORT

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Every lower-case spelling :meth:`CommModel.parse` accepts: each
#: member's value and name.  One lookup instead of a walk over the enum.
_SPELLINGS = {
    spelling: member
    for member in CommModel
    for spelling in (member.value, member.name.lower())
}
