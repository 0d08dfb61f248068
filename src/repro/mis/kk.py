"""Algorithm 1: the Kokkos Kernels distance-2 maximal independent set.

This is the paper's primary contribution. Each main-loop iteration has four phases,
all data-parallel over vertex worklists:

1. **Refresh Row** — every undecided vertex (``worklist1``) gets a fresh packed status
   tuple ``T[v] = (h(iter, v) << b) | (v + 1)`` where ``h`` is the xorshift* hash of
   the iteration number and the vertex id (Section V-A) and ``b`` is the id-field
   width of the compressed tuple (Section V-C).
2. **Refresh Column** — every vertex still adjacent to no IN vertex (``worklist2``)
   computes ``M[v]``, the minimum tuple over its closed neighbourhood; a minimum of
   ``IN`` is converted to ``OUT`` so that, in the next phase, neighbours of ``v``
   learn they are within distance 2 of an IN vertex.
3. **Decide Set** — an undecided vertex becomes ``OUT`` if any closed neighbour has
   ``M == OUT`` and ``IN`` if every closed neighbour's minimum equals its own tuple
   (which means its tuple is the unique minimum of its distance-2 neighbourhood).
4. **Worklist compaction** — ``worklist1`` keeps the still-undecided vertices,
   ``worklist2`` keeps the vertices whose ``M`` is not yet permanently ``OUT``
   (Section V-B); on the GPU this is a parallel prefix-sum compaction.

The implementation is fully vectorised over the worklists (the Python analogue of the
paper's flat+SIMD parallelism), deterministic — it is a pure function of
``(graph, config)`` — and instrumented with a :class:`~repro.parallel.costmodel.TrafficCounter`
so the benchmark harness can predict device times with the roofline model.
"""

from __future__ import annotations

import math
from typing import Optional, Union

import numpy as np

from ..graph.csr import CSRGraph
from ..hashing.packing import TuplePacking
from ..hashing.priorities import PriorityScheme, fixed_priorities
from ..hashing.xorshift import hash_iter_vertex
from ..parallel.backends import ExecutionBackend
from ..parallel.costmodel import TrafficCounter
from ..parallel.primitives import (
    expand_rows,
    segmented_all_equal,
    segmented_any_equal,
    segmented_min,
    stream_compact,
)
from .result import MISConfig, MISResult

__all__ = ["kk_mis2"]

#: Default SIMD enablement threshold: the paper enables team/SIMD-level parallelism
#: for the neighbour loops only when the average degree is at least 16 (Section V-D).
SIMD_DEGREE_THRESHOLD = 16.0

_INDEX_BYTES = 4
_ROWMAP_BYTES = 8


def _priorities_for(
    scheme: PriorityScheme,
    iteration: int,
    vertices: np.ndarray,
    num_vertices: int,
    seed: int,
) -> np.ndarray:
    """Pseudo-random priorities for the given vertices at the given iteration."""
    if scheme is PriorityScheme.FIXED:
        return fixed_priorities(num_vertices, seed=seed)[vertices]
    return hash_iter_vertex(iteration, vertices, star=(scheme is PriorityScheme.XORSTAR))


def _max_iterations(num_vertices: int) -> int:
    """Safety cap on main-loop iterations (expected O(log V), Section IV)."""
    return 20 * max(4, int(math.log2(num_vertices + 2))) + 64


def kk_mis2(
    graph: CSRGraph,
    priority_scheme: Union[str, PriorityScheme] = PriorityScheme.XORSTAR,
    use_worklists: bool = True,
    simd: Optional[bool] = None,
    word_bits: int = 64,
    seed: int = 0,
    backend: "str | ExecutionBackend" = "numpy",
    partitions=None,
) -> MISResult:
    """Compute a distance-2 maximal independent set with Algorithm 1.

    Parameters
    ----------
    graph:
        Undirected input graph. Vertices are implicitly adjacent to themselves
        (the paper's matrices carry the diagonal), so no explicit self-loops are
        required.
    priority_scheme:
        ``"xorstar"`` (default, the paper's choice), ``"xor"`` or ``"fixed"``.
        Table I compares the three.
    use_worklists:
        Enable worklist compaction (Section V-B). Disabling it processes every vertex
        in every iteration, exactly like Bell's algorithm, and is only useful for the
        Fig. 2 ablation.
    simd:
        Whether the inner neighbour loops are modelled as SIMD/team-parallel
        (Section V-D). ``None`` (default) applies the paper's heuristic: enabled only
        when the average degree is at least 16. This only affects the traffic
        annotations consumed by the GPU cost model — the vectorised NumPy execution is
        identical either way.
    word_bits:
        Width of the packed status tuples (32 to match the paper exactly, 64 default).
    seed:
        Seed of the fixed-priority scheme (ignored by the hash schemes).
    backend:
        Execution backend (name or instance) whose session runs the parts
        when ``partitions`` is set; unused without it. All backends produce
        bit-identical results.
    partitions:
        When not ``None``, shard the run *within* the graph: a part count, a
        per-vertex label array, or a
        :class:`~repro.parallel.partitioned.PartitionLayout`. The
        partition-parallel driver is bit-identical to the unpartitioned kernel
        for any value (and any backend); ``result.partition_stats`` records the
        layout, ghost-exchange and shipped-bytes counts.

    Returns
    -------
    :class:`~repro.mis.result.MISResult`
        The MIS-2, iteration count, worklist history and traffic counters.
    """
    if partitions is not None:
        from ..parallel.partitioned import partitioned_kk_mis2

        return partitioned_kk_mis2(
            graph,
            partitions,
            priority_scheme=priority_scheme,
            use_worklists=use_worklists,
            simd=simd,
            word_bits=word_bits,
            seed=seed,
            backend=backend,
        )
    scheme = PriorityScheme.coerce(priority_scheme)
    n = graph.num_vertices
    if simd is None:
        simd = graph.average_degree() >= SIMD_DEGREE_THRESHOLD
    config = MISConfig(
        algorithm="kk",
        k=2,
        priority_scheme=scheme.value,
        use_worklists=bool(use_worklists),
        packed_tuples=True,
        simd=bool(simd),
        word_bits=word_bits,
        seed=seed,
    )
    traffic = TrafficCounter()
    if n == 0:
        return MISResult(
            in_set=np.zeros(0, dtype=np.int64),
            in_mask=np.zeros(0, dtype=bool),
            iterations=0,
            traffic=traffic,
            config=config,
        )

    rowmap = graph.rowmap
    entries = graph.entries
    packer = TuplePacking(n, word_bits=word_bits)
    IN = packer.in_value
    OUT = packer.out_value
    word_bytes = packer.dtype.itemsize

    all_vertices = np.arange(n, dtype=np.int64)
    # T holds the packed status tuple of every vertex; every vertex starts undecided
    # (the concrete value is overwritten by the first Refresh Row).
    T = packer.pack(np.zeros(n, dtype=packer.dtype), all_vertices)
    # M holds the minimum tuple seen in each closed neighbourhood; OUT is "sticky".
    M = np.full(n, OUT, dtype=packer.dtype)

    worklist1 = all_vertices.copy()
    worklist2 = all_vertices.copy()
    worklist_sizes = []
    iteration = 0
    max_iter = _max_iterations(n)

    while worklist1.size > 0:
        if iteration >= max_iter:
            raise RuntimeError(
                f"MIS-2 did not converge within {max_iter} iterations; "
                "this indicates a bug in the priority scheme or the graph structure"
            )
        worklist_sizes.append((int(worklist1.size), int(worklist2.size)))
        w1 = worklist1 if use_worklists else all_vertices
        w2 = worklist2 if use_worklists else all_vertices
        undecided_mask1 = packer.is_undecided(T[w1]) if not use_worklists else None

        # ---------------------------------------------------------------- Refresh Row
        prios = _priorities_for(scheme, iteration, w1, n, seed)
        refreshed = packer.pack(prios.astype(packer.dtype), w1)
        if use_worklists:
            T[w1] = refreshed
        else:
            # Without worklists, decided vertices keep their IN/OUT markers.
            T[w1] = np.where(undecided_mask1, refreshed, T[w1])
        traffic.add(
            "refresh_row",
            bytes_read=_INDEX_BYTES * w1.size,
            bytes_written=word_bytes * w1.size,
        )

        # ------------------------------------------------------------- Refresh Column
        slots2, seg2 = expand_rows(rowmap, w2)
        neighbor_T = T[entries[slots2]]
        min_nbr = segmented_min(neighbor_T, seg2, identity=OUT)
        Mv = np.minimum(min_nbr, T[w2])  # closed neighbourhood: include the vertex itself
        # A minimum of IN means "adjacent to an IN vertex": convert to OUT so the
        # information propagates one more hop in the Decide phase (lines 19-21).
        Mv = np.where(Mv == IN, OUT, Mv)
        # Once a vertex has an IN neighbour its minimum is IN (and converted to OUT)
        # in every subsequent recomputation, so a plain assignment keeps OUT values
        # stable with or without worklists.
        M[w2] = Mv
        traffic.add(
            "refresh_column",
            bytes_read=(
                _INDEX_BYTES * w2.size
                + _ROWMAP_BYTES * w2.size
                + _INDEX_BYTES * slots2.size
                + word_bytes * (slots2.size + w2.size)
            ),
            bytes_written=word_bytes * w2.size,
            gather_bytes=word_bytes * slots2.size,
            coalesced=simd,
        )

        # ------------------------------------------------------------------- Decide
        slots1, seg1 = expand_rows(rowmap, w1)
        neighbor_M = M[entries[slots1]]
        Tw1 = T[w1]
        any_out = segmented_any_equal(neighbor_M, OUT, seg1) | (M[w1] == OUT)
        all_match = segmented_all_equal(neighbor_M, Tw1, seg1) & (M[w1] == Tw1)
        undecided = packer.is_undecided(Tw1)
        to_out = any_out & undecided
        to_in = all_match & undecided & ~to_out
        newT = Tw1.copy()
        newT[to_out] = OUT
        newT[to_in] = IN
        T[w1] = newT
        traffic.add(
            "decide",
            bytes_read=(
                _INDEX_BYTES * w1.size
                + _ROWMAP_BYTES * w1.size
                + _INDEX_BYTES * slots1.size
                + word_bytes * (slots1.size + 2 * w1.size)
            ),
            bytes_written=word_bytes * w1.size,
            gather_bytes=word_bytes * slots1.size,
            coalesced=simd,
        )

        # ------------------------------------------------------------- Compaction
        if use_worklists:
            keep1 = packer.is_undecided(T[worklist1])
            keep2 = M[worklist2] != OUT
            new_w1 = stream_compact(worklist1, keep1)
            new_w2 = stream_compact(worklist2, keep2)
            traffic.add(
                "compact_worklists",
                bytes_read=word_bytes * (worklist1.size + worklist2.size)
                + _INDEX_BYTES * (worklist1.size + worklist2.size),
                bytes_written=_INDEX_BYTES * (new_w1.size + new_w2.size),
            )
            worklist1, worklist2 = new_w1, new_w2
        else:
            worklist1 = all_vertices[packer.is_undecided(T)]
            worklist2 = all_vertices
        iteration += 1

    in_mask = packer.is_in(T)
    in_set = np.nonzero(in_mask)[0].astype(np.int64)
    return MISResult(
        in_set=in_set,
        in_mask=in_mask,
        iterations=iteration,
        worklist_sizes=worklist_sizes,
        traffic=traffic,
        config=config,
    )
