"""Compressed-row-storage (CRS/CSR) graph container.

The paper's implementation operates on the Kokkos Kernels CRS graph: a ``rowmap``
(offsets) array of length ``|V|+1`` and an ``entries`` array of column indices of
length ``|E|`` (directed edge slots; an undirected edge is stored twice).
:class:`CSRGraph` is the exact Python analogue, backed by NumPy arrays so that all
kernels can operate on it with vectorised, data-parallel operations.

The container is deliberately *structure only* — edge weights live in the sparse
matrices handled by :mod:`repro.solvers`; graph algorithms in this package only need
adjacency structure, matching how the paper's MIS-2 treats its input.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Iterator, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - the partitioned engine imports this module
    from ..parallel.partitioned import PartitionLayout

__all__ = ["CSRGraph"]


class CSRGraph:
    """An undirected graph in compressed-row-storage form.

    Parameters
    ----------
    rowmap:
        Integer array of length ``num_vertices + 1`` with non-decreasing offsets into
        ``entries``. ``rowmap[0]`` must be 0 and ``rowmap[-1] == len(entries)``.
    entries:
        Integer array of neighbor ids, concatenated row by row. For an undirected
        graph each edge ``(u, v)`` appears both in row ``u`` and row ``v``
        (use :func:`repro.graph.build.symmetrize` to enforce this).
    validate:
        When true (default), structural invariants are checked at construction.

    Notes
    -----
    * Self-loops are permitted in storage but the generators and builders strip them;
      the MIS kernels treat every vertex as implicitly adjacent to itself (as the
      paper's Fig. 1 does), so explicit self-loops are redundant.
    * The arrays are stored read-only to guarantee that algorithms cannot mutate a
      shared graph in place — determinism across runs relies on this. Pickles and
      copies are rebuilt through the constructor, so they are read-only too.
    * Because the graph is immutable, the partition layout of each integer part
      count is built once and kept on the graph (see
      :func:`repro.parallel.build_partition_layout`); pickles and copies start
      without it.
    """

    __slots__ = ("_rowmap", "_entries", "_num_vertices", "_layouts")

    def __init__(
        self,
        rowmap: np.ndarray,
        entries: np.ndarray,
        validate: bool = True,
    ) -> None:
        rowmap = np.asarray(rowmap)
        entries = np.asarray(entries)
        if not np.issubdtype(rowmap.dtype, np.integer):
            raise TypeError(f"rowmap must be integer-typed, got {rowmap.dtype}")
        if not np.issubdtype(entries.dtype, np.integer):
            raise TypeError(f"entries must be integer-typed, got {entries.dtype}")
        if rowmap.ndim != 1 or entries.ndim != 1:
            raise ValueError("rowmap and entries must be one-dimensional")
        if rowmap.size == 0:
            raise ValueError("rowmap must have at least one element (got empty array)")
        rowmap = rowmap.astype(np.int64, copy=True)
        entries = entries.astype(np.int32, copy=True)
        n = rowmap.size - 1
        if validate:
            if rowmap[0] != 0:
                raise ValueError("rowmap[0] must be 0")
            if rowmap[-1] != entries.size:
                raise ValueError(
                    f"rowmap[-1] ({rowmap[-1]}) must equal len(entries) ({entries.size})"
                )
            if n > 0 and np.any(np.diff(rowmap) < 0):
                raise ValueError("rowmap must be non-decreasing")
            if entries.size and (entries.min() < 0 or entries.max() >= n):
                raise ValueError("entries contain vertex ids outside [0, num_vertices)")
        rowmap.setflags(write=False)
        entries.setflags(write=False)
        self._rowmap = rowmap
        self._entries = entries
        self._num_vertices = int(n)
        #: Part count -> the ``PartitionLayout`` built for it, filled on first use.
        self._layouts: "Dict[int, PartitionLayout]" = {}

    def __reduce__(self):
        # Through the constructor, which marks the arrays read-only again;
        # validating is unnecessary because this graph already passed.
        return (CSRGraph, (self._rowmap, self._entries, False))

    # ------------------------------------------------------------------ accessors
    @property
    def rowmap(self) -> np.ndarray:
        """Read-only offsets array of length ``num_vertices + 1`` (int64)."""
        return self._rowmap

    @property
    def entries(self) -> np.ndarray:
        """Read-only concatenated adjacency lists (int32)."""
        return self._entries

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``|V|``."""
        return self._num_vertices

    @property
    def num_edge_slots(self) -> int:
        """Number of stored directed edge slots, i.e. ``len(entries)``.

        For a symmetric graph without self-loops this is ``2 * |E|``.
        """
        return int(self._entries.size)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``|E|`` (edge slots divided by two, self-loops
        counted once)."""
        loops = int(np.count_nonzero(self._entries == self._vertex_of_slot()))
        return (self.num_edge_slots - loops) // 2 + loops

    def _vertex_of_slot(self) -> np.ndarray:
        """Return, for every entry slot, the row (source vertex) it belongs to."""
        return np.repeat(np.arange(self._num_vertices, dtype=np.int32), self.degrees())

    # ------------------------------------------------------------------ degrees
    def degrees(self) -> np.ndarray:
        """Per-vertex degree (length of each adjacency list), int64."""
        return np.diff(self._rowmap)

    def degree(self, v: int) -> int:
        """Degree of a single vertex ``v``."""
        self._check_vertex(v)
        return int(self._rowmap[v + 1] - self._rowmap[v])

    def average_degree(self) -> float:
        """Mean adjacency-list length (``0.0`` for an empty graph)."""
        if self._num_vertices == 0:
            return 0.0
        return self.num_edge_slots / self._num_vertices

    def max_degree(self) -> int:
        """Maximum adjacency-list length (``0`` for an empty graph)."""
        if self._num_vertices == 0:
            return 0
        degs = self.degrees()
        return int(degs.max()) if degs.size else 0

    # ------------------------------------------------------------------ adjacency
    def neighbors(self, v: int) -> np.ndarray:
        """Read-only view of the adjacency list of ``v``."""
        self._check_vertex(v)
        return self._entries[self._rowmap[v]: self._rowmap[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """True when ``v`` appears in ``u``'s adjacency list."""
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(np.any(self.neighbors(u) == v))

    def iter_edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over undirected edges ``(u, v)`` with ``u <= v``, each once."""
        for u in range(self._num_vertices):
            for v in self.neighbors(u):
                if u <= int(v):
                    yield (u, int(v))

    def edge_array(self) -> np.ndarray:
        """Return an ``(m, 2)`` array of undirected edges with ``u <= v``."""
        src = self._vertex_of_slot()
        dst = self._entries
        mask = src <= dst
        return np.stack([src[mask], dst[mask]], axis=1).astype(np.int64)

    # ------------------------------------------------------------------ comparisons
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return (
            self._num_vertices == other._num_vertices
            and np.array_equal(self._rowmap, other._rowmap)
            and np.array_equal(self._entries, other._entries)
        )

    def __hash__(self) -> int:
        return hash(
            (
                self._num_vertices,
                self._rowmap.tobytes(),
                self._entries.tobytes(),
            )
        )

    def is_symmetric(self) -> bool:
        """True when every stored edge ``(u, v)`` also appears as ``(v, u)``."""
        src = self._vertex_of_slot().astype(np.int64)
        dst = self._entries.astype(np.int64)
        n = self._num_vertices
        forward = np.sort(src * n + dst)
        backward = np.sort(dst * n + src)
        return bool(np.array_equal(forward, backward))

    def has_self_loops(self) -> bool:
        """True when any vertex appears in its own adjacency list."""
        return bool(np.any(self._entries == self._vertex_of_slot()))

    def copy(self) -> "CSRGraph":
        """Return an independent copy of the graph."""
        return CSRGraph(self._rowmap.copy(), self._entries.copy(), validate=False)

    # ------------------------------------------------------------------ misc
    def memory_bytes(self, index_bytes: int = 4, offset_bytes: int = 8) -> int:
        """Approximate storage footprint of the CRS arrays, used by the cost model."""
        return offset_bytes * self._rowmap.size + index_bytes * self._entries.size

    def _check_vertex(self, v: int) -> None:
        if not (0 <= int(v) < self._num_vertices):
            raise IndexError(f"vertex {v} out of range [0, {self._num_vertices})")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(num_vertices={self._num_vertices}, "
            f"num_edge_slots={self.num_edge_slots}, "
            f"avg_degree={self.average_degree():.2f})"
        )

    # ------------------------------------------------------------------ constructors
    @staticmethod
    def empty(num_vertices: int) -> "CSRGraph":
        """Graph with ``num_vertices`` vertices and no edges."""
        if num_vertices < 0:
            raise ValueError("num_vertices must be >= 0")
        return CSRGraph(
            np.zeros(num_vertices + 1, dtype=np.int64),
            np.zeros(0, dtype=np.int32),
            validate=False,
        )
