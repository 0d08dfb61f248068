"""Aggregation result container and shared helpers.

An *aggregation* (the paper's "graph coarsening") partitions the vertices of a graph
into disjoint aggregates; every aggregate becomes one vertex of the coarse graph. All
aggregation algorithms in this package return an :class:`Aggregation`, which also
carries the root vertices and phase statistics used by the quality analyses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..graph.csr import CSRGraph
from ..parallel.primitives import expand_rows

__all__ = ["Aggregation", "join_by_max_coupling"]


@dataclass
class Aggregation:
    """A partition of a graph's vertices into aggregates.

    Attributes
    ----------
    labels:
        Per-vertex aggregate id (dense, 0-based). ``-1`` marks an unaggregated vertex
        and only appears in intermediate phases — completed algorithms always return
        fully-aggregated labelings.
    num_aggregates:
        Number of distinct aggregates.
    roots:
        Vertex ids used as aggregate seeds (one per aggregate created from a root;
        cleanup-phase singleton aggregates may have no root).
    algorithm:
        Name of the algorithm that produced the aggregation.
    deterministic:
        Whether the algorithm is deterministic (all schemes in this reproduction are;
        the flag records what the *paper* says about the corresponding MueLu scheme).
    phase_vertex_counts:
        Number of vertices aggregated by each phase, for quality reporting.
    """

    labels: np.ndarray
    num_aggregates: int
    roots: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    algorithm: str = ""
    deterministic: bool = True
    phase_vertex_counts: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.roots = np.asarray(self.roots, dtype=np.int64)

    # ------------------------------------------------------------------ properties
    @property
    def num_vertices(self) -> int:
        return int(self.labels.size)

    def is_complete(self) -> bool:
        """True when every vertex belongs to an aggregate."""
        return bool(np.all(self.labels >= 0)) if self.labels.size else True

    def sizes(self) -> np.ndarray:
        """Aggregate sizes indexed by aggregate id."""
        if self.num_aggregates == 0:
            return np.zeros(0, dtype=np.int64)
        labeled = self.labels[self.labels >= 0]
        return np.bincount(labeled, minlength=self.num_aggregates).astype(np.int64)

    def members(self, aggregate: int) -> np.ndarray:
        """Vertex ids belonging to ``aggregate``."""
        if not (0 <= aggregate < self.num_aggregates):
            raise IndexError(f"aggregate {aggregate} out of range")
        return np.nonzero(self.labels == aggregate)[0].astype(np.int64)

    def aggregate_lists(self) -> List[np.ndarray]:
        """All aggregates as a list of member arrays (ordered by aggregate id)."""
        order = np.argsort(self.labels, kind="stable")
        sorted_labels = self.labels[order]
        valid = sorted_labels >= 0
        order = order[valid]
        sorted_labels = sorted_labels[valid]
        boundaries = np.searchsorted(sorted_labels, np.arange(self.num_aggregates + 1, dtype=np.int64))
        return [order[boundaries[a]: boundaries[a + 1]] for a in range(self.num_aggregates)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Aggregation(algorithm={self.algorithm!r}, vertices={self.num_vertices}, "
            f"aggregates={self.num_aggregates})"
        )


def join_by_max_coupling(
    graph: CSRGraph,
    labels: np.ndarray,
    num_aggregates: int,
) -> np.ndarray:
    """Phase-3 cleanup of Algorithm 3: join every unaggregated vertex to the adjacent
    aggregate with the largest coupling.

    Coupling of vertex ``v`` to aggregate ``a`` is the number of neighbours of ``v``
    whose *tentative* label is ``a`` (the labels passed in, which stay constant during
    the cleanup — that is what keeps the phase deterministic). Ties are broken first by
    the smaller tentative aggregate size, then by the smaller aggregate id.

    Returns a new label array; raises if some unaggregated vertex has no aggregated
    neighbour (which cannot happen after a phase-1 MIS-2 sweep).
    """
    labels = np.asarray(labels, dtype=np.int64)
    n = graph.num_vertices
    unagg = np.nonzero(labels < 0)[0]
    new_labels = labels.copy()
    if unagg.size == 0:
        return new_labels
    tentative_sizes = np.bincount(labels[labels >= 0], minlength=max(num_aggregates, 1))

    # Gather the tentative labels of all neighbours of all unaggregated vertices.
    slots, seg = expand_rows(graph.rowmap, unagg)
    owner = np.repeat(np.arange(unagg.size, dtype=np.int64), np.diff(seg))
    nbr_labels = labels[graph.entries[slots]]
    keep = nbr_labels >= 0
    owner = owner[keep]
    nbr_labels = nbr_labels[keep]
    missing = np.count_nonzero(np.bincount(owner, minlength=unagg.size) == 0)
    if missing:
        raise ValueError(
            f"{missing} unaggregated vertices have no aggregated neighbour; "
            "phase-1 aggregation did not cover the graph"
        )
    # Count couplings per (vertex, aggregate) pair.
    pair_keys = owner.astype(np.int64) * np.int64(num_aggregates) + nbr_labels
    uniq_keys, counts = np.unique(pair_keys, return_counts=True)
    pair_owner = uniq_keys // num_aggregates
    pair_label = uniq_keys % num_aggregates
    pair_size = tentative_sizes[pair_label]
    # Pick, per vertex, the pair with (max coupling, min aggregate size, min label).
    order = np.lexsort((pair_label, pair_size, -counts, pair_owner))
    sorted_owner = pair_owner[order]
    first_of_owner = np.flatnonzero(np.diff(sorted_owner, prepend=-1))
    chosen = order[first_of_owner]
    new_labels[unagg[pair_owner[chosen]]] = pair_label[chosen]
    return new_labels
