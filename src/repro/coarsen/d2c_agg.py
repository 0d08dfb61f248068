"""Distance-2-coloring based aggregation (the MueLu "Serial D2C" / "NB D2C" baselines).

MueLu's coloring-based aggregation computes a distance-2 greedy coloring of the graph;
the vertices of each color class form a distance-2 independent set, so they can be
used as aggregate roots in the same way MIS-2 vertices are. Colors are processed in
order; a root only forms an aggregate when it still has enough unaggregated
neighbours, and leftover vertices are finally joined to adjacent aggregates.

In MueLu the way leftovers are joined makes the scheme non-deterministic (Table V
marks both D2C variants accordingly); this reproduction joins leftovers with the same
deterministic max-coupling rule as Algorithm 3, which only affects tie-breaking. The
"Serial" and "NB" (net-based, on-device) variants of the paper differ in where the
coloring is computed, not in the aggregates produced, so both map to this function;
the benchmark driver models their different setup costs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..coloring.distance2 import distance2_color
from ..coloring.greedy import ColoringResult
from ..graph.csr import CSRGraph
from ..parallel.primitives import expand_rows, segmented_sum, stream_compact
from .aggregation import Aggregation, join_by_max_coupling

__all__ = ["d2c_aggregation"]


def d2c_aggregation(
    graph: CSRGraph,
    coloring: Optional[ColoringResult] = None,
    min_root_neighbors: int = 2,
) -> Aggregation:
    """Coarsen ``graph`` using a distance-2 coloring to seed aggregate roots.

    Parameters
    ----------
    graph:
        Undirected input graph.
    coloring:
        Optional precomputed distance-2 coloring; computed on demand otherwise.
    min_root_neighbors:
        Minimum number of unaggregated neighbours a root needs to form an aggregate
        (matching Algorithm 3's phase-2 rule).
    """
    n = graph.num_vertices
    labels = -np.ones(n, dtype=np.int64)
    if n == 0:
        return Aggregation(labels, 0, algorithm="d2c_agg")
    if coloring is None:
        coloring = distance2_color(graph)

    next_aggregate = 0
    roots_list = []
    unagg_mask = np.ones(n, dtype=bool)
    for color in range(coloring.num_colors):
        members = np.nonzero((coloring.colors == color) & unagg_mask)[0]
        if members.size == 0:
            continue
        slots, seg = expand_rows(graph.rowmap, members)
        nbrs = graph.entries[slots].astype(np.int64)
        free_counts = segmented_sum(unagg_mask[nbrs].astype(np.int64), seg)
        qualifies = free_counts >= min_root_neighbors
        roots = stream_compact(members, qualifies)
        if roots.size == 0:
            continue
        # Same-color vertices are pairwise at distance > 2, so no two roots of this
        # color share an unaggregated neighbour: the scatter is conflict-free.
        new_ids = next_aggregate + np.arange(roots.size, dtype=np.int64)
        labels[roots] = new_ids
        unagg_mask[roots] = False
        rslots, rseg = expand_rows(graph.rowmap, roots)
        rnbrs = graph.entries[rslots].astype(np.int64)
        rids = np.repeat(new_ids, np.diff(rseg))
        free = unagg_mask[rnbrs]
        labels[rnbrs[free]] = rids[free]
        unagg_mask[rnbrs[free]] = False
        next_aggregate += int(roots.size)
        roots_list.append(roots)

    phase1 = int(np.count_nonzero(labels >= 0))

    # Unlike the MIS-2 phase-1 sweep, the >= min_root_neighbors filter does not
    # guarantee that every leftover vertex touches an aggregate, so leftovers with no
    # aggregated neighbour seed small aggregates of their own (this is the part MueLu
    # implements non-deterministically; processing vertices in id order keeps it
    # deterministic here).
    rowmap, entries = graph.rowmap, graph.entries
    for v in range(n):
        if labels[v] >= 0:
            continue
        nbrs = entries[rowmap[v]: rowmap[v + 1]].astype(np.int64)
        if nbrs.size and np.any(labels[nbrs] >= 0):
            continue  # handled by the max-coupling cleanup below
        labels[v] = next_aggregate
        free = nbrs[labels[nbrs] < 0]
        labels[free] = next_aggregate
        next_aggregate += 1

    labels = join_by_max_coupling(graph, labels, next_aggregate)
    all_roots = np.concatenate(roots_list) if roots_list else np.zeros(0, dtype=np.int64)
    return Aggregation(
        labels=labels,
        num_aggregates=next_aggregate,
        roots=all_roots,
        algorithm="d2c_agg",
        deterministic=True,
        phase_vertex_counts={"phase1": phase1, "cleanup": n - phase1},
    )
