"""Cluster multicolor Gauss-Seidel (Algorithm 4) — the paper's second use case.

The preconditioner coarsens the matrix graph (Algorithm 3 aggregation by default),
colors the *coarse* graph, and treats each aggregate as a cluster: clusters of the
same color share no couplings, so they are processed in parallel, while the rows
*inside* each cluster are swept sequentially (classical Gauss-Seidel order). Locally
the method is therefore exact GS, which is why it converges in fewer iterations than
point multicolor GS, and its setup colors a graph that is an order of magnitude
smaller — both effects Table VI reports and this implementation reproduces.

The symmetric variant loops over the colors forward then backward and reverses the
within-cluster row order on the backward pass, exactly as the paper describes.

Vectorisation note: same-color clusters are mutually independent, so the k-th row of
every cluster of a color can be updated at once; walking the (color, position within
cluster) groups in order is one lockstep schedule of the sequential order, the one a
GPU would run with one team per cluster. Setup compresses that walk into a level
schedule: each row's level is one more than the deepest level among its already
visited neighbours in the symmetrized matrix graph, and each level becomes one batched
update. A row then reads the updated value of every neighbour that precedes it in the
sequential order and the old value of every neighbour that follows it, and computes
the same per-row expression as the row-by-row loop, so ``apply`` equals the sequential
Algorithm 4 order bit for bit. On ``laplace3d(40, 40, 40)`` the walk's 110 groups
compress to 27 levels per direction. Setup then renumbers the rows level by level
(:class:`~repro.gs.multicolor.SweepSchedule`), so each level is a contiguous row
range: ``apply`` gathers ``b`` and ``x`` once, updates each level through slice views
in place, and scatters the result once.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from ..coarsen.aggregation import Aggregation
from ..coarsen.coarse import coarse_graph
from ..coarsen.mis2_agg import mis2_aggregation
from ..coloring.greedy import greedy_color
from ..graph.build import from_scipy
from ..graph.csr import CSRGraph
from ..parallel.primitives import expand_rows, segmented_max
from .multicolor import SweepSchedule

__all__ = ["ClusterMulticolorGaussSeidel"]

AggregationFn = Callable[[CSRGraph], Aggregation]


def _split_by(keys: np.ndarray, items: np.ndarray) -> List[np.ndarray]:
    """``items`` grouped by equal ``keys``: groups by ascending key, stable within."""
    order = np.argsort(keys, kind="stable")
    return np.split(items[order], np.flatnonzero(np.diff(keys[order])) + 1)


def _level_schedule(graph: CSRGraph, groups: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Regroup an ordered sequence of independent row groups into dependency levels.

    Walking ``groups`` in order, each group's rows get a level one more than the
    deepest level among their neighbours in ``graph``; rows not visited yet sit at
    level 0. Rows of one group must share no edge. Adjacent rows end on different
    levels, in the order the walk visited them, so updating level by level reads
    exactly the values the walk would. Returns the rows of each level, ascending.
    """
    level = np.zeros(graph.num_vertices, dtype=np.int64)
    for rows in groups:
        slots, offsets = expand_rows(graph.rowmap, rows)
        level[rows] = segmented_max(level[graph.entries[slots]], offsets, 0) + 1
    return _split_by(level, np.arange(level.size))


class ClusterMulticolorGaussSeidel:
    """Cluster multicolor (symmetric) Gauss-Seidel preconditioner (Algorithm 4).

    Parameters
    ----------
    A:
        System matrix (CSR).
    aggregation_fn:
        Coarsening used to form the clusters (Algorithm 3 by default; Algorithm 2 is
        the paper's other option).
    sweeps:
        Number of sweeps per :meth:`apply`, at least 1.
    symmetric:
        Apply symmetric sweeps (forward colors then backward colors, with the row
        order inside each cluster reversed on the backward pass).

    ``aggregation_fn`` is called with the matrix graph alone; bind any other
    argument into it, e.g. ``functools.partial(mis2_aggregation, partitions=4,
    backend="distributed")`` for a partitioned coarsening.
    """

    def __init__(
        self,
        A: sp.spmatrix,
        aggregation_fn: AggregationFn = mis2_aggregation,
        sweeps: int = 1,
        symmetric: bool = True,
    ) -> None:
        setup_start = time.perf_counter()
        self.A = sp.csr_matrix(A).astype(np.float64)
        if self.A.shape[0] != self.A.shape[1]:
            raise ValueError("A must be square")
        diag = self.A.diagonal()
        if np.any(diag == 0):
            raise ValueError("cluster Gauss-Seidel requires a nonzero diagonal")
        self.sweeps = int(sweeps)
        if self.sweeps < 1:
            raise ValueError("sweeps must be >= 1")
        self.symmetric = bool(symmetric)

        # --- Setup (Algorithm 4 lines 3-5): coarsen, then color the coarse graph.
        fine_graph = from_scipy(self.A)
        self.aggregation = aggregation_fn(fine_graph)
        self.coarse = coarse_graph(fine_graph, self.aggregation)
        self.coloring = greedy_color(self.coarse)
        self.num_colors = self.coloring.num_colors

        # Sequential Algorithm 4 order: colors ascending, the rows of each cluster
        # ascending. Group the rows by (color of their cluster, position within their
        # cluster): walked in order, the groups are its lockstep schedule.
        labels = self.aggregation.labels
        by_cluster = np.argsort(labels, kind="stable")
        cluster_sizes = self.aggregation.sizes()
        starts = np.zeros(self.aggregation.num_aggregates + 1, dtype=np.int64)
        np.cumsum(cluster_sizes, out=starts[1:])
        position = np.arange(labels.size) - starts[labels[by_cluster]]
        self.max_cluster_size = int(cluster_sizes.max()) if cluster_sizes.size else 0
        group = self.coloring.colors[labels[by_cluster]] * self.max_cluster_size + position
        groups = _split_by(group, by_cluster)
        # Compress the walk into levels. They come from the symmetrized fine_graph,
        # not A's own rows: a one-sided coupling A[i, j] != 0 with A[j, i] == 0 must
        # still order i and j, or i would read x[j] updated out of turn. The backward
        # pass (colors and the rows of each cluster reversed) orders every coupled
        # pair the other way round, so the same levels in reverse are its schedule.
        self._schedule = SweepSchedule(self.A, diag, _level_schedule(fine_graph, groups))
        self.setup_seconds = time.perf_counter() - setup_start

    # ------------------------------------------------------------------ application
    def apply(self, b: np.ndarray, x: Optional[np.ndarray] = None) -> np.ndarray:
        """Apply the configured number of cluster multicolor (S)GS sweeps.

        ``b`` and ``x`` must be 1-D of length n; anything else raises ``ValueError``.
        """
        return self._schedule.apply(b, x, self.sweeps, self.symmetric)

    def as_preconditioner(self):
        """Return ``M(r) -> z`` applying the sweeps with a zero initial guess."""
        return lambda r: self.apply(r)
