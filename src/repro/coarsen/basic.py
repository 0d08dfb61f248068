"""Algorithm 2: basic MIS-2 coarsening (Bell/Dalton/Olson, also used by ViennaCL).

Every MIS-2 vertex becomes the root of an aggregate containing the root and its
direct neighbours; any leftover vertex (necessarily within distance 2 of a root) joins
an adjacent aggregate. The paper notes — and Table V reproduces — that this simple
scheme tends to produce irregular aggregates on structured problems and therefore more
solver iterations than Algorithm 3.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..graph.csr import CSRGraph
from ..mis.kk import kk_mis2
from ..mis.result import MISResult
from ..parallel.primitives import expand_rows
from .aggregation import Aggregation, join_by_max_coupling

__all__ = ["mis2_basic_aggregation"]


def mis2_basic_aggregation(
    graph: CSRGraph,
    mis: Optional[MISResult] = None,
    seed: int = 0,
) -> Aggregation:
    """Coarsen ``graph`` with Algorithm 2.

    Parameters
    ----------
    graph:
        Undirected input graph.
    mis:
        Optionally, a precomputed MIS-2 of ``graph`` (any valid MIS-2 works); when
        omitted, Algorithm 1 computes one. One over another vertex count raises
        ``ValueError``; a same-size MIS-2 of another graph is not detected.
    seed:
        Seed forwarded to the MIS-2 computation.

    Returns
    -------
    :class:`~repro.coarsen.aggregation.Aggregation`
        A complete aggregation with one aggregate per MIS-2 root.
    """
    n = graph.num_vertices
    if mis is None:
        mis = kk_mis2(graph, seed=seed)
    elif mis.num_vertices != n:
        raise ValueError(f"mis covers {mis.num_vertices} vertices but the graph has {n}")
    roots = np.asarray(mis.in_set, dtype=np.int64)
    labels = -np.ones(n, dtype=np.int64)
    if n == 0:
        return Aggregation(labels, 0, roots, algorithm="mis2_basic")

    # Roots and their direct neighbours form the initial aggregates. Because roots are
    # pairwise at distance > 2, a vertex can neighbour at most one root, so the
    # parallel scatter below is conflict-free (and order-independent).
    labels[roots] = np.arange(roots.size, dtype=np.int64)
    slots, seg = expand_rows(graph.rowmap, roots)
    labels[graph.entries[slots].astype(np.int64)] = np.repeat(
        np.arange(roots.size, dtype=np.int64), np.diff(seg)
    )
    phase1 = int(np.count_nonzero(labels >= 0))

    # Leftovers join an adjacent aggregate. The paper's wording is "arbitrarily"; this
    # implementation uses the deterministic max-coupling rule so results are
    # reproducible (which only improves the baseline's aggregate quality slightly).
    labels = join_by_max_coupling(graph, labels, roots.size)
    agg = Aggregation(
        labels=labels,
        num_aggregates=int(roots.size),
        roots=roots,
        algorithm="mis2_basic",
        deterministic=True,
        phase_vertex_counts={"phase1": phase1, "cleanup": n - phase1},
    )
    return agg
