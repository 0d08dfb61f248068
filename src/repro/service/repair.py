"""Localized repair kernels for the GraphService's dynamic graphs.

The repair invariant comes from pyamg's *serial* maximal-independent-set
kernel (SNIPPETS Snippet 3): with a fixed total priority order over the
vertices, a vertex's greedy status is a pure function of the statuses of its
smaller-key neighbourhood — so after a mutation, only vertices whose
neighbourhood changed, plus the larger-key closure of any status that flips,
can differ from the previous answer. Processing the dirty frontier in
ascending key order therefore converges to *exactly* the from-scratch
fixpoint: repair is bit-identical to full recompute, which the Hypothesis
suite pins for random mutation sequences.

Two query kinds are repairable:

**MIS-2 under the fixed priority scheme.** ``kk_mis2(priority_scheme="fixed")``
computes the unique greedy fixpoint of the total order ``key(v) =
(fixed_priority(v) << b) | (v + 1)`` (the paper's packed tuple): ``v`` is IN
iff no vertex within distance 2 with a smaller key is IN. The per-iteration
hash schemes (``xorstar``/``xor``) entangle every vertex's fate with the
global iteration count and are *not* locally repairable — the service's
repairable MIS queries use the fixed scheme for exactly this reason.

**Order-greedy coloring.** ``color(v)`` = smallest color unused by ``v``'s
smaller-key neighbours — the sequential greedy coloring along the same key
order. (The paper's speculative coloring kernel resolves conflicts round by
round and is not the fixpoint of any per-vertex local rule, so it cannot be
repaired locally; the service's repairable coloring pins the order-greedy
semantics instead.)

Both repairs share one engine (:func:`_drain`): a min-heap worklist drained
in ascending key order. When a popped vertex's recomputed value differs from
its current one, every *larger*-key dependent re-enters the worklist;
dependencies only point from larger to smaller keys, so each settled vertex
is final and the drain terminates. ``budget`` bounds the worklist drain — a repair that touches more
vertices than the caller's crossover threshold returns ``None`` so the
service falls back to full recompute instead of crawling through a
near-global repair one vertex at a time.

The key order is only stable while the vertex universe is: the packed-tuple
id width ``b = ceil(log2(|V| + 2))`` truncates priorities differently when
the vertex count crosses a power of two, and removing vertices renumbers the
survivors. Those *structural* mutations invalidate every cached result —
the service detects them and recomputes from scratch.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable, Optional, Tuple

import numpy as np

from ..graph.csr import CSRGraph
from ..hashing.packing import TuplePacking
from ..hashing.priorities import fixed_priorities

__all__ = [
    "mis_keys",
    "serial_mis2_mask",
    "repair_mis2",
    "ordered_color",
    "repair_ordered_color",
]


def mis_keys(num_vertices: int, seed: int = 0) -> np.ndarray:
    """The fixed-scheme packed priority keys ``kk_mis2`` orders vertices by.

    Bit-compatible with the kernel's default 64-bit packing:
    ``(truncated fixed_priority << b) | (v+1)``
    via :class:`~repro.hashing.packing.TuplePacking` — the key array *is* the
    initial ``T`` of a fixed-scheme run, so the greedy fixpoint the repair
    engine maintains is the kernel's own total order.
    """
    if num_vertices == 0:
        return np.zeros(0, dtype=np.uint64)
    packer = TuplePacking(num_vertices)
    prios = fixed_priorities(num_vertices, seed=seed).astype(packer.dtype)
    return packer.pack(prios, np.arange(num_vertices, dtype=np.int64))


def serial_mis2_mask(graph: CSRGraph, keys: np.ndarray) -> np.ndarray:
    """From-scratch greedy distance-2 MIS along ascending ``keys``.

    The serial reference for the repair engine (pyamg's locality rule in its
    plainest form): walk vertices in key order, take every vertex not yet
    within distance 2 of a taken one. Bit-identical to
    ``kk_mis2(priority_scheme="fixed")`` — the parallel kernel computes the
    same unique fixpoint — which the service's tests assert directly.
    """
    n = graph.num_vertices
    in_mask = np.zeros(n, dtype=bool)
    if n == 0:
        return in_mask
    rowmap, entries = graph.rowmap, graph.entries
    blocked = np.zeros(n, dtype=bool)
    for v in np.argsort(keys, kind="stable"):
        if blocked[v]:
            continue
        in_mask[v] = True
        blocked[v] = True
        nbrs = entries[rowmap[v]: rowmap[v + 1]]
        blocked[nbrs] = True
        for u in nbrs:
            blocked[entries[rowmap[u]: rowmap[u + 1]]] = True
    return in_mask


def _neighbors(rowmap: np.ndarray, entries: np.ndarray, v: int) -> np.ndarray:
    return entries[rowmap[v]: rowmap[v + 1]]


def _has_smaller_in_d2(
    rowmap: np.ndarray,
    entries: np.ndarray,
    keys: np.ndarray,
    in_mask: np.ndarray,
    v: int,
) -> bool:
    """Any IN vertex (other than ``v``) within distance 2 with a smaller key?"""
    kv = keys[v]
    nbrs = _neighbors(rowmap, entries, v)
    if nbrs.size == 0:
        return False
    if bool(np.any(in_mask[nbrs] & (keys[nbrs] < kv))):
        return True
    for u in nbrs:
        two = _neighbors(rowmap, entries, u)
        hit = in_mask[two] & (keys[two] < kv) & (two != v)
        if bool(np.any(hit)):
            return True
    return False


def _d2_larger(
    rowmap: np.ndarray, entries: np.ndarray, keys: np.ndarray, v: int
) -> np.ndarray:
    """Distance-<=2 neighbours of ``v`` with a larger key (the dependents)."""
    nbrs = _neighbors(rowmap, entries, v)
    if nbrs.size == 0:
        return nbrs
    hops = [nbrs] + [_neighbors(rowmap, entries, u) for u in nbrs]
    d2 = np.unique(np.concatenate(hops))
    return d2[(keys[d2] > keys[v]) & (d2 != v)]


def _drain(
    keys: np.ndarray,
    values: np.ndarray,
    dirty: np.ndarray,
    budget: Optional[int],
    update: Callable[[int], Iterable[int]],
) -> Optional[Tuple[np.ndarray, int]]:
    """The repair engine: settle ``values`` from the ``dirty`` seeds.

    Pops the worklist in ascending key order; ``update(v)`` recomputes
    ``values[v]`` in place and returns the dependents to re-enqueue (none
    when the value did not change). Returns ``(values, touched)``, or
    ``None`` once more than ``budget`` vertices have been evaluated.
    """
    seeds = np.unique(np.asarray(dirty, dtype=np.int64))
    pending = {int(v) for v in seeds}
    heap = [(int(keys[v]), int(v)) for v in seeds]
    heapq.heapify(heap)
    touched = 0
    while heap:
        _, v = heapq.heappop(heap)
        pending.discard(v)
        touched += 1
        if budget is not None and touched > budget:
            return None
        for w in update(v):
            w = int(w)
            if w not in pending:
                pending.add(w)
                heapq.heappush(heap, (int(keys[w]), w))
    return values, touched


def repair_mis2(
    graph: CSRGraph,
    keys: np.ndarray,
    prev_mask: np.ndarray,
    dirty: np.ndarray,
    budget: Optional[int] = None,
) -> Optional[Tuple[np.ndarray, int]]:
    """Repair a greedy MIS-2 mask after a mutation; ``None`` past ``budget``.

    ``prev_mask`` is the pre-mutation fixpoint *re-indexed to the new graph*
    (appended vertices enter as False and dirty); ``dirty`` seeds the
    worklist with every vertex whose distance-2 neighbourhood changed.
    Returns the repaired mask — bit-identical to :func:`serial_mis2_mask`
    of the new graph — and the number of vertices evaluated.
    """
    in_mask = prev_mask.copy()
    rowmap, entries = graph.rowmap, graph.entries

    def update(v: int) -> Iterable[int]:
        should = not _has_smaller_in_d2(rowmap, entries, keys, in_mask, v)
        if bool(in_mask[v]) == should:
            return ()
        in_mask[v] = should
        return _d2_larger(rowmap, entries, keys, v)

    return _drain(keys, in_mask, dirty, budget, update)


def ordered_color(graph: CSRGraph, keys: np.ndarray) -> np.ndarray:
    """From-scratch order-greedy coloring along ascending ``keys``.

    ``color(v)`` = smallest color not used by a smaller-key neighbour — the
    unique fixpoint of a distance-1 local rule, hence locally repairable.
    Proper by construction (adjacent vertices never share a color: the later
    one excludes the earlier one's color).
    """
    n = graph.num_vertices
    colors = np.full(n, -1, dtype=np.int64)
    rowmap, entries = graph.rowmap, graph.entries
    for v in np.argsort(keys, kind="stable"):
        nbr_colors = colors[_neighbors(rowmap, entries, v)]
        nbr_colors = nbr_colors[nbr_colors >= 0]
        colors[v] = _mex(nbr_colors)
    return colors


def _mex(values: np.ndarray) -> int:
    """Smallest non-negative integer missing from ``values``."""
    if values.size == 0:
        return 0
    present = np.zeros(values.size + 1, dtype=bool)
    small = values[values <= values.size]
    present[small] = True
    return int(np.argmin(present))


def repair_ordered_color(
    graph: CSRGraph,
    keys: np.ndarray,
    prev_colors: np.ndarray,
    dirty: np.ndarray,
    budget: Optional[int] = None,
) -> Optional[Tuple[np.ndarray, int]]:
    """Repair an order-greedy coloring after a mutation; ``None`` past budget.

    Distance-1 analogue of :func:`repair_mis2`: ``dirty`` seeds with the
    endpoints of every changed edge (plus appended vertices); a vertex whose
    color flips re-enqueues its larger-key neighbours. Bit-identical to
    :func:`ordered_color` of the new graph.
    """
    colors = prev_colors.copy()
    rowmap, entries = graph.rowmap, graph.entries

    def update(v: int) -> Iterable[int]:
        nbrs = _neighbors(rowmap, entries, v)
        want = _mex(colors[nbrs[keys[nbrs] < keys[v]]])
        if int(colors[v]) == want:
            return ()
        colors[v] = want
        return nbrs[keys[nbrs] > keys[v]]

    return _drain(keys, colors, dirty, budget, update)
