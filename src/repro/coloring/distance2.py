"""Distance-2 greedy coloring.

A distance-2 coloring assigns colors such that any two vertices within distance 2
receive different colors; each color class is therefore a distance-2 independent set
(not necessarily maximal), which is what MueLu's D2C aggregation schemes seed their
aggregates from (Table V of the paper).

The implementation colors the boolean square ``G^2`` with the distance-1 speculative
greedy algorithm — the net-based algorithm of Taş et al. the paper cites avoids
materialising ``G^2``, but produces a coloring with the same validity property; the
SpGEMM cost is acceptable at reproduction scale and is charged to the "Serial D2C" /
"NB D2C" baselines, not to the paper's contribution.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.ops import square
from .greedy import ColoringResult, greedy_color

__all__ = ["distance2_color"]


def distance2_color(
    graph: CSRGraph,
    max_rounds: Optional[int] = None,
) -> ColoringResult:
    """Distance-2 greedy coloring of ``graph`` (via distance-1 coloring of ``G^2``)."""
    if graph.num_vertices == 0:
        return ColoringResult(np.zeros(0, dtype=np.int64), 0, 0, distance=2)
    sq = square(graph)
    result = greedy_color(sq, max_rounds=max_rounds)
    return ColoringResult(
        colors=result.colors,
        num_colors=result.num_colors,
        rounds=result.rounds,
        distance=2,
    )
