"""Always-on graph service.

:class:`GraphService` (:mod:`repro.service.core`) holds named graphs
resident, batches concurrent MIS / coloring / aggregation queries onto shared
kernel runs, and supports dynamic graphs: edge/vertex insert/delete with
localized incremental repair (:mod:`repro.service.repair`) proven
bit-identical to from-scratch recomputation.
"""

from .core import GraphService, ServiceClosed, ServiceStats
from .repair import (
    mis_keys,
    ordered_color,
    repair_mis2,
    repair_ordered_color,
    serial_mis2_mask,
)

__all__ = [
    "GraphService",
    "ServiceClosed",
    "ServiceStats",
    "mis_keys",
    "serial_mis2_mask",
    "repair_mis2",
    "ordered_color",
    "repair_ordered_color",
]
