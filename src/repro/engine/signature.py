"""Topology signatures: grouping instances that share TPN structure.

The timed Petri net of an instance is determined by the communication
model and the mapping's per-stage replica counts ``(m_1, ..., m_n)``
(:mod:`repro.petri.builder`), which fix ``m = lcm(m_i)``, the round-robin
row structure and every place of the net.  Processor ids, stage works,
file sizes, speeds and bandwidths only enter as *transition durations*
— edge weights of the reduced cycle-ratio graph.

Hence two instances with equal ``(model, mapping.replication_counts)``
share the entire structural pipeline: net layout over replica slots,
liveness check, SCC decomposition, CSR solver preparation and the
cycle-time plan.  :func:`topology_signature` is the cache key the batch
engine groups by.
"""

from __future__ import annotations

from ..core.instance import Instance
from ..core.models import CommModel

__all__ = ["topology_signature"]

#: ``(model value, replication counts)``: the key of one topology group.
Signature = tuple[str, tuple[int, ...]]


def topology_signature(
    inst: Instance, model: CommModel | str
) -> tuple[str, tuple[int, ...]]:
    """Hashable key of the TPN structure shared by a sweep group.

    Examples
    --------
    Instances differing only in speeds, bandwidths or the processors
    their replicas run on share a signature:

    >>> from repro import Application, Platform, Mapping, Instance
    >>> app = Application(works=[1, 1], file_sizes=[1])
    >>> mp = Mapping([(0,), (1, 2)])
    >>> a = Instance(app, Platform.homogeneous(3, speed=1.0), mp)
    >>> b = Instance(app, Platform.homogeneous(3, speed=2.0), mp)
    >>> topology_signature(a, "overlap") == topology_signature(b, "overlap")
    True
    >>> c = Instance(app, Platform.homogeneous(5), Mapping([(4,), (0, 3)]))
    >>> topology_signature(c, "overlap")
    ('overlap', (1, 2))
    >>> topology_signature(a, "overlap") == topology_signature(a, "strict")
    False
    """
    return (CommModel.parse(model).value, inst.mapping.replication_counts)
