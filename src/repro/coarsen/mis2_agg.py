"""Algorithm 3: the paper's MIS-2 based aggregation (Kokkos Kernels / "MIS2 Agg").

Three phases, all deterministic:

1. **Initial aggregates** — an MIS-2 of the graph seeds one aggregate per root,
   containing the root and its direct neighbours (exactly Algorithm 2's first step).
2. **Secondary aggregates** — a second MIS-2 is computed on the subgraph induced by
   the still-unaggregated vertices; each of its vertices becomes a root only if it has
   at least two unaggregated neighbours (smaller aggregates would increase fill-in in
   the multigrid smoother), in which case it aggregates itself with those neighbours.
3. **Cleanup** — every remaining vertex joins the adjacent aggregate with the highest
   coupling (number of neighbours in the aggregate), ties broken by smaller tentative
   aggregate size; couplings and sizes are evaluated against the *tentative* labels
   from the end of phase 2, which keeps the phase order-independent and deterministic.

This is the parallel, portable re-formulation of ML's sequential MIS-2 aggregation
(Tuminaro & Tong); Table V shows it matches the serial scheme's quality while running
entirely on the device.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.ops import induced_subgraph
from ..mis.kk import kk_mis2
from ..mis.result import MISResult
from ..parallel.backends import ExecutionBackend
from ..parallel.primitives import expand_rows, segmented_sum, stream_compact
from .aggregation import Aggregation, join_by_max_coupling

__all__ = ["mis2_aggregation"]


def mis2_aggregation(
    graph: CSRGraph,
    mis: Optional[MISResult] = None,
    min_secondary_neighbors: int = 2,
    seed: int = 0,
    backend: "str | ExecutionBackend" = "numpy",
    partitions=None,
) -> Aggregation:
    """Coarsen ``graph`` with Algorithm 3 (the paper's "MIS2 Agg" scheme).

    Parameters
    ----------
    graph:
        Undirected input graph.
    mis:
        Optional precomputed MIS-2 of ``graph`` used for phase 1. One over
        another vertex count raises ``ValueError``; a same-size MIS-2 of
        another graph is not detected.
    min_secondary_neighbors:
        Minimum number of unaggregated neighbours a phase-2 root needs to form an
        aggregate (the paper uses 2).
    seed:
        Seed forwarded to each ``kk_mis2`` call (phase 1 when ``mis`` is not
        given, and the phase-2 sub-MIS). Their default xorstar scheme ignores
        it, so ``seed`` changes no label; seeded priorities come from passing
        a fixed-scheme ``mis``.
    backend:
        Execution backend (name or instance) whose session runs the parts of
        both MIS-2 computations when ``partitions`` is set; unused without it.
    partitions:
        When not ``None``, run both MIS-2 computations partition-parallel
        (part count, label array or layout); the phase-2 sub-MIS inherits the
        labels restricted to the unaggregated subgraph. Because the
        partitioned MIS driver is bit-identical to the unpartitioned kernel,
        the aggregation is too.
    """
    n = graph.num_vertices
    if mis is not None and mis.num_vertices != n:
        raise ValueError(f"mis covers {mis.num_vertices} vertices but the graph has {n}")
    layout = None
    if partitions is not None:
        from ..parallel.partitioned import build_partition_layout

        layout = build_partition_layout(graph, partitions)
    if mis is None:
        mis = kk_mis2(graph, seed=seed, backend=backend, partitions=layout)
    roots = np.asarray(mis.in_set, dtype=np.int64)
    labels = -np.ones(n, dtype=np.int64)
    if n == 0:
        return Aggregation(labels, 0, roots, algorithm="mis2_agg")

    # ------------------------------------------------------------------ phase 1
    labels[roots] = np.arange(roots.size, dtype=np.int64)
    slots1, seg1 = expand_rows(graph.rowmap, roots)
    labels[graph.entries[slots1].astype(np.int64)] = np.repeat(
        np.arange(roots.size, dtype=np.int64), np.diff(seg1)
    )
    next_aggregate = int(roots.size)
    phase1 = int(np.count_nonzero(labels >= 0))

    # ------------------------------------------------------------------ phase 2
    unagg = np.nonzero(labels < 0)[0]
    phase2 = 0
    secondary_roots = np.zeros(0, dtype=np.int64)
    if unagg.size:
        sub, mapping = induced_subgraph(graph, unagg)
        sub_mis = kk_mis2(
            sub,
            seed=seed,
            backend=backend,
            partitions=None if layout is None else layout.labels[mapping],
        )
        candidates = mapping[sub_mis.in_set]
        # Count each candidate root's unaggregated neighbours against the phase-1
        # labels. Phase-2 roots are pairwise at distance > 2 in the induced subgraph,
        # so no two of them share an unaggregated neighbour and the parallel scatter
        # below is conflict-free.
        unagg_mask = labels < 0
        cslots, cseg = expand_rows(graph.rowmap, candidates)
        cnbrs = graph.entries[cslots].astype(np.int64)
        free_counts = segmented_sum(unagg_mask[cnbrs].astype(np.int64), cseg)
        qualifies = free_counts >= min_secondary_neighbors
        secondary_roots = stream_compact(candidates, qualifies)
        if secondary_roots.size:
            new_ids = next_aggregate + np.arange(secondary_roots.size, dtype=np.int64)
            labels[secondary_roots] = new_ids
            qslots, qseg = expand_rows(graph.rowmap, secondary_roots)
            qnbrs = graph.entries[qslots].astype(np.int64)
            nbr_new_ids = np.repeat(new_ids, np.diff(qseg))
            free = unagg_mask[qnbrs]
            labels[qnbrs[free]] = nbr_new_ids[free]
            next_aggregate += int(secondary_roots.size)
        phase2 = int(np.count_nonzero(labels >= 0)) - phase1

    # ------------------------------------------------------------------ phase 3
    labels = join_by_max_coupling(graph, labels, max(next_aggregate, 1))
    cleanup = n - phase1 - phase2

    return Aggregation(
        labels=labels,
        num_aggregates=next_aggregate,
        roots=np.concatenate([roots, secondary_roots]) if secondary_roots.size else roots,
        algorithm="mis2_agg",
        deterministic=True,
        phase_vertex_counts={"phase1": phase1, "phase2": phase2, "cleanup": cleanup},
    )
