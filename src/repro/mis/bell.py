"""The Bell/Dalton/Olson MIS-k algorithm — the baseline the paper compares against.

Bell, Dalton and Olson (SISC 2012) compute a distance-k maximal independent set
directly (without forming ``G^k``): every vertex carries an uncompressed 3-element
status tuple ``(status, priority, id)`` with ``IN < UNDECIDED < OUT`` ordering;
each round propagates the minimum tuple ``k`` hops through the graph and then decides
vertices whose own tuple is the radius-``k`` minimum (-> IN) or whose radius-``k``
minimum is an IN vertex (-> OUT). The random priorities are chosen **once** and reused
every round, every vertex is processed in every round (no worklists), and the tuple is
stored as three separate words — exactly the combination the paper's Fig. 2 uses as
its baseline, and what the CUSP and ViennaCL libraries implement.

This implementation is vectorised the same way as :func:`repro.mis.kk.kk_mis2` so that
wall-clock comparisons between the two measure the algorithmic differences (priorities,
worklists, packing) rather than implementation quality.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from ..graph.csr import CSRGraph
from ..hashing.priorities import PriorityScheme, fixed_priorities
from ..hashing.xorshift import hash_iter_vertex
from ..parallel.costmodel import TrafficCounter
from ..parallel.primitives import expand_rows, segmented_lexmin
from .result import MISConfig, MISResult

__all__ = ["bell_mis", "STATUS_IN", "STATUS_UNDECIDED", "STATUS_OUT"]

#: Status encoding of the uncompressed tuples; the ordering IN < UNDECIDED < OUT is
#: what makes the lexicographic minimum propagate IN vertices and suppress OUT ones.
STATUS_IN = np.uint8(0)
STATUS_UNDECIDED = np.uint8(1)
STATUS_OUT = np.uint8(2)

_INDEX_BYTES = 4
_ROWMAP_BYTES = 8
#: An uncompressed tuple occupies three words (status, priority, id); the paper's
#: Section V-C counts this as the 3x storage/traffic the packed representation removes.
_TUPLE_WORDS = 3


def _max_rounds(num_vertices: int) -> int:
    return 20 * max(4, int(math.log2(num_vertices + 2))) + 64


def bell_mis(
    graph: CSRGraph,
    k: int = 2,
    priority_scheme: Union[str, PriorityScheme] = PriorityScheme.FIXED,
    word_bits: int = 64,
    seed: int = 0,
) -> MISResult:
    """Compute a distance-``k`` maximal independent set with Bell's algorithm.

    Parameters
    ----------
    graph:
        Undirected input graph (vertices are implicitly adjacent to themselves).
    k:
        Independence distance (the paper and the libraries use ``k = 2``).
    priority_scheme:
        ``"fixed"`` (default — Bell's choice and what CUSP/ViennaCL do) or one of the
        per-round hash schemes for experimentation.
    word_bits:
        Word width used only for traffic accounting (the priorities are 64-bit).
    seed:
        Seed of the fixed-priority scheme.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    scheme = PriorityScheme.coerce(priority_scheme)
    n = graph.num_vertices
    config = MISConfig(
        algorithm="bell",
        k=k,
        priority_scheme=scheme.value,
        use_worklists=False,
        packed_tuples=False,
        simd=False,
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
    word_bytes = 4 if word_bits == 32 else 8
    tuple_bytes = _TUPLE_WORDS * word_bytes

    all_vertices = np.arange(n, dtype=np.int64)
    vertex_ids = all_vertices.astype(np.int64)
    status = np.full(n, STATUS_UNDECIDED, dtype=np.uint8)
    priority = fixed_priorities(n, seed=seed)

    # Pre-expand the full-vertex CSR structure once: Bell processes every vertex in
    # every round, so the expansion never changes.
    slots, seg = expand_rows(rowmap, all_vertices)
    neighbor_ids = entries[slots].astype(np.int64)

    worklist_sizes = []
    rounds = 0
    max_rounds = _max_rounds(n)
    id_identity = np.int64(np.iinfo(np.int64).max)
    prio_identity = np.uint64(np.iinfo(np.uint64).max)

    while np.any(status == STATUS_UNDECIDED):
        if rounds >= max_rounds:
            raise RuntimeError(f"Bell MIS-{k} did not converge within {max_rounds} rounds")
        worklist_sizes.append((n, n))

        if scheme is not PriorityScheme.FIXED:
            fresh = hash_iter_vertex(
                rounds, all_vertices, star=(scheme is PriorityScheme.XORSTAR)
            )
            priority = np.where(status == STATUS_UNDECIDED, fresh, priority)
            traffic.add(
                "bell_refresh_priorities",
                bytes_read=_INDEX_BYTES * n,
                bytes_written=word_bytes * n,
            )

        # k propagation steps: after step j every vertex knows the lexicographic
        # minimum tuple within its closed radius-j neighbourhood.
        min_status, min_prio, min_id = status, priority, vertex_ids
        for _ in range(k):
            s_vals = min_status[neighbor_ids]
            p_vals = min_prio[neighbor_ids]
            i_vals = min_id[neighbor_ids]
            red_s, red_p, red_i = segmented_lexmin(
                [s_vals, p_vals, i_vals],
                seg,
                [STATUS_OUT, prio_identity, id_identity],
            )
            # Closed neighbourhood: fold in the vertex's own current minimum tuple.
            better_own = (min_status < red_s) | (
                (min_status == red_s)
                & ((min_prio < red_p) | ((min_prio == red_p) & (min_id < red_i)))
            )
            new_s = np.where(better_own, min_status, red_s)
            new_p = np.where(better_own, min_prio, red_p)
            new_i = np.where(better_own, min_id, red_i)
            min_status, min_prio, min_id = new_s, new_p, new_i
            traffic.add(
                "bell_propagate",
                bytes_read=(
                    _ROWMAP_BYTES * n
                    + _INDEX_BYTES * slots.size
                    + tuple_bytes * (slots.size + n)
                ),
                bytes_written=tuple_bytes * n,
                gather_bytes=tuple_bytes * slots.size,
                coalesced=False,
            )

        # Decision: undecided vertices whose own tuple is the radius-k minimum join
        # the set; undecided vertices whose radius-k minimum is an IN vertex leave.
        undecided = status == STATUS_UNDECIDED
        own_is_min = (
            (min_status == STATUS_UNDECIDED)
            & (min_prio == priority)
            & (min_id == vertex_ids)
        )
        saw_in = min_status == STATUS_IN
        status = np.where(undecided & own_is_min, STATUS_IN, status)
        status = np.where(undecided & ~own_is_min & saw_in, STATUS_OUT, status)
        traffic.add(
            "bell_decide",
            bytes_read=tuple_bytes * 2 * n,
            bytes_written=tuple_bytes * n,
        )
        rounds += 1

    in_mask = status == STATUS_IN
    in_set = np.nonzero(in_mask)[0].astype(np.int64)
    return MISResult(
        in_set=in_set,
        in_mask=in_mask,
        iterations=rounds,
        worklist_sizes=worklist_sizes,
        traffic=traffic,
        config=config,
    )
