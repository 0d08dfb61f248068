"""Vectorised data-parallel primitives over CSR structure.

Algorithm 1's inner loops are all of the form "for every vertex in a worklist, reduce
(min / all / any) over its adjacency list". On a GPU the paper maps the outer loop to
thread teams and the inner loop to SIMD lanes (Section V-D); in this reproduction the
same operations are expressed as *segmented reductions* over the CSR ``entries`` array
so that NumPy executes the whole worklist in a handful of array operations. These
primitives are the performance-critical core shared by the MIS, coloring and
aggregation kernels.

All primitives are deterministic: they are pure functions of their inputs with no
data races (reductions use associative, commutative operators evaluated in a fixed
order), matching the deterministic guarantee the paper makes for its algorithm.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = [
    "exclusive_scan",
    "inclusive_scan",
    "stream_compact",
    "segmented_min",
    "segmented_max",
    "segmented_sum",
    "segmented_all_equal",
    "segmented_any_equal",
    "segmented_lexmin",
    "row_lengths",
    "expand_rows",
]


# --------------------------------------------------------------------------- scans
def inclusive_scan(values: np.ndarray) -> np.ndarray:
    """Inclusive prefix sum (``out[i] = sum(values[:i+1])``)."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError("inclusive_scan expects a 1-D array")
    return np.cumsum(arr)


def exclusive_scan(values: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum (``out[i] = sum(values[:i])``), the Kokkos ``parallel_scan``.

    Returns an array one element longer than the input; the final element is the total
    (handy for building new rowmaps / compacted worklists).
    """
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError("exclusive_scan expects a 1-D array")
    out = np.zeros(arr.size + 1, dtype=np.int64 if arr.dtype.kind in "iub" else arr.dtype)
    np.cumsum(arr, out=out[1:])
    return out


def stream_compact(items: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Stable stream compaction: keep ``items[i]`` where ``keep[i]`` is true.

    This is how Algorithm 1 rebuilds ``worklist1`` / ``worklist2`` each iteration
    (lines 33-34); on the GPU it is realised with a parallel prefix sum, here the scan
    and the gather collapse into a boolean index but the result (and its order) is
    identical.
    """
    items = np.asarray(items)
    keep = np.asarray(keep, dtype=bool)
    if items.shape != keep.shape:
        raise ValueError("items and keep must have the same shape")
    return items[keep]


# --------------------------------------------------------------------------- rows
def row_lengths(rowmap: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Adjacency-list lengths of the selected ``rows``."""
    rowmap = np.asarray(rowmap)
    rows = np.asarray(rows)
    return rowmap[rows + 1] - rowmap[rows]


def expand_rows(rowmap: np.ndarray, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Expand selected CSR rows into flat (slot, segment) index arrays.

    Returns ``(slots, segment_offsets)`` where ``slots`` indexes into ``entries`` for
    every adjacency slot of every selected row (in row order), and
    ``segment_offsets`` (length ``len(rows) + 1``) delimits each row's slots within
    ``slots``. Rows with empty adjacency lists contribute empty segments.

    With ``seg = segment_offsets``, slot ``k`` of row ``j`` (``seg[j] <= k < seg[j + 1]``)
    is ``rowmap[rows[j]] + k - seg[j]``, the ``Ap[i] + k`` of pyamg's CSR loops: one
    repeat of each row's ``rowmap[rows[j]] - seg[j]``, plus ``arange(total)`` in
    place. No per-slot owner index or gather is built.
    """
    rowmap = np.asarray(rowmap, dtype=np.int64)
    rows = np.asarray(rows, dtype=np.int64)
    start = rowmap[rows]
    lens = rowmap[rows + 1] - start
    seg_offsets = exclusive_scan(lens)
    total = int(seg_offsets[-1])
    if total == 0:
        return np.zeros(0, dtype=np.int64), seg_offsets
    slots = np.repeat(start - seg_offsets[:-1], lens)
    slots += np.arange(total, dtype=np.int64)
    return slots, seg_offsets


def _nonempty_starts(seg_offsets: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(nonempty, starts)``: which segments hold values, and where each of those
    begins.

    ``ufunc.reduceat`` takes these starts. Because the segments partition the values
    contiguously, the span from one non-empty start to the next (or to the end of the
    array) holds exactly that segment's values.
    """
    starts = seg_offsets[:-1]
    nonempty = seg_offsets[1:] > starts
    return nonempty, starts[nonempty]


def _segmented_reduce(
    values: np.ndarray,
    seg_offsets: np.ndarray,
    op,
    identity,
) -> np.ndarray:
    """Reduce ``values`` within segments delimited by ``seg_offsets`` using ufunc ``op``.

    Empty segments yield ``identity``.
    """
    nseg = seg_offsets.size - 1
    out = np.full(nseg, identity, dtype=values.dtype if values.size else np.asarray(identity).dtype)
    if values.size == 0 or nseg == 0:
        return out
    nonempty, starts = _nonempty_starts(seg_offsets)
    out[nonempty] = op.reduceat(values, starts)
    return out


def segmented_min(values: np.ndarray, seg_offsets: np.ndarray, identity) -> np.ndarray:
    """Per-segment minimum (identity for empty segments)."""
    return _segmented_reduce(np.asarray(values), np.asarray(seg_offsets, dtype=np.int64),
                             np.minimum, identity)


def segmented_max(values: np.ndarray, seg_offsets: np.ndarray, identity) -> np.ndarray:
    """Per-segment maximum (identity for empty segments)."""
    return _segmented_reduce(np.asarray(values), np.asarray(seg_offsets, dtype=np.int64),
                             np.maximum, identity)


def segmented_sum(values: np.ndarray, seg_offsets: np.ndarray) -> np.ndarray:
    """Per-segment sum (0 for empty segments)."""
    return _segmented_reduce(np.asarray(values), np.asarray(seg_offsets, dtype=np.int64),
                             np.add, 0)


def segmented_all_equal(
    values: np.ndarray, reference: np.ndarray, seg_offsets: np.ndarray
) -> np.ndarray:
    """Per-segment test "every value in segment j equals reference[j]".

    Empty segments vacuously return True, matching the ``forall`` semantics of
    Algorithm 1 line 28. A segment passes when its minimum and its maximum both equal
    its reference: one ``minimum`` and one ``maximum`` ``reduceat``, with no per-slot
    copy of the reference or of the matches.
    """
    values = np.asarray(values)
    seg_offsets = np.asarray(seg_offsets, dtype=np.int64)
    reference = np.asarray(reference)
    nonempty, starts = _nonempty_starts(seg_offsets)
    ref = reference[nonempty]
    out = np.ones(nonempty.size, dtype=bool)
    out[nonempty] = (np.minimum.reduceat(values, starts) == ref) & (
        np.maximum.reduceat(values, starts) == ref
    )
    return out


def segmented_lexmin(
    arrays: "list[np.ndarray]",
    seg_offsets: np.ndarray,
    identities: "list",
) -> "list[np.ndarray]":
    """Lexicographic per-segment minimum over parallel arrays.

    ``arrays`` are compared element-wise as tuples ``(arrays[0][i], arrays[1][i], ...)``
    — exactly the 3-way ``(status, priority, id)`` comparison of Bell's uncompressed
    status tuples. Returns one reduced array per input array; empty segments yield the
    corresponding ``identities`` entries.
    """
    if not arrays:
        raise ValueError("segmented_lexmin requires at least one array")
    if len(identities) != len(arrays):
        raise ValueError("identities must match arrays")
    seg_offsets = np.asarray(seg_offsets, dtype=np.int64)
    lens = np.diff(seg_offsets)
    total = int(seg_offsets[-1]) if seg_offsets.size else 0
    still_min = np.ones(total, dtype=bool)
    results: "list[np.ndarray]" = []
    empty = lens == 0
    for arr, ident in zip(arrays, identities):
        arr = np.asarray(arr)
        if arr.size != total:
            raise ValueError("all arrays must match the total segment length")
        if np.issubdtype(arr.dtype, np.integer):
            fill = np.iinfo(arr.dtype).max
        else:
            fill = np.inf
        masked = np.where(still_min, arr, fill)
        reduced = segmented_min(masked, seg_offsets, identity=fill)
        reduced = np.asarray(reduced, dtype=arr.dtype)
        reduced[empty] = ident
        results.append(reduced)
        # Narrow the candidate mask to elements matching the minimum so far.
        expanded = np.repeat(reduced, lens)
        still_min &= arr == expanded
    return results


def segmented_any_equal(
    values: np.ndarray, target, seg_offsets: np.ndarray
) -> np.ndarray:
    """Per-segment test "any value in segment j equals target" (scalar target).

    Empty segments return False, matching the ``exists`` semantics of Algorithm 1
    line 25. One ``logical_or`` ``reduceat`` over the boolean match mask, with no
    per-slot integer copy of it.
    """
    values = np.asarray(values)
    seg_offsets = np.asarray(seg_offsets, dtype=np.int64)
    return _segmented_reduce(values == target, seg_offsets, np.logical_or, False)
