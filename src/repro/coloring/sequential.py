"""Sequential (host-side) greedy coloring.

MueLu's "Serial D2C" aggregation computes its distance-2 coloring with a sequential
implementation on the host and only parallelises the aggregation step; this module
provides that serial first-fit coloring (both distance-1 and distance-2), used by the
Table V benchmark to model the Serial-D2C baseline's setup cost and by the tests as an
independent reference for the parallel speculative coloring.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.ops import square
from .greedy import ColoringResult

__all__ = ["sequential_greedy_color", "sequential_distance2_color"]


def sequential_greedy_color(graph: CSRGraph) -> ColoringResult:
    """First-fit greedy coloring in vertex order (one vertex at a time)."""
    n = graph.num_vertices
    colors = -np.ones(n, dtype=np.int64)
    if n == 0:
        return ColoringResult(colors, 0, 0, distance=1)
    max_color = -1
    rowmap, entries = graph.rowmap, graph.entries
    for v in range(n):
        nbr_colors = colors[entries[rowmap[v]: rowmap[v + 1]]]
        nbr_colors = set(int(c) for c in nbr_colors if c >= 0)
        c = 0
        while c in nbr_colors:
            c += 1
        colors[v] = c
        max_color = max(max_color, c)
    return ColoringResult(colors, max_color + 1, rounds=1, distance=1)


def sequential_distance2_color(graph: CSRGraph) -> ColoringResult:
    """Sequential first-fit distance-2 coloring (via the boolean square)."""
    if graph.num_vertices == 0:
        return ColoringResult(np.zeros(0, dtype=np.int64), 0, 0, distance=2)
    result = sequential_greedy_color(square(graph))
    return ColoringResult(result.colors, result.num_colors, result.rounds, distance=2)
