"""Verification of distance-k independent sets.

The paper's claims rest on three properties of the output: distance-k independence,
maximality, and determinism. Determinism is checked by the test-suite (identical
results across runs and backends); this module provides the independence and
maximality checks for arbitrary ``k`` using sparse boolean reachability, plus a slow
BFS-based violation enumerator used by the property-based tests on small graphs.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple, Union

import numpy as np
import scipy.sparse as sp

from ..graph.build import to_scipy
from ..graph.csr import CSRGraph
from ..graph.distance import bfs_distances

__all__ = [
    "is_independent_set",
    "is_maximal",
    "verify_mis",
    "independence_violations",
]


def _as_vertex_array(vertices: Union[np.ndarray, Iterable[int]], n: int) -> np.ndarray:
    verts = np.unique(np.asarray(list(vertices) if not isinstance(vertices, np.ndarray)
                                 else vertices, dtype=np.int64))
    if verts.size and (verts.min() < 0 or verts.max() >= n):
        raise ValueError("vertex id outside the graph")
    return verts


def _reach_within_k(graph: CSRGraph, indicator: np.ndarray, k: int) -> np.ndarray:
    """Boolean vector: true for vertices within distance ``k`` of any indicated vertex."""
    A = to_scipy(graph, dtype=np.int8)
    reach = indicator.astype(bool)
    current = indicator.astype(np.int8)
    for _ in range(k):
        current = A @ current
        reach = reach | (np.asarray(current).ravel() > 0)
        current = reach.astype(np.int8)
    return reach


def is_independent_set(
    graph: CSRGraph, vertices: Union[np.ndarray, Iterable[int]], k: int = 2
) -> bool:
    """True when no two distinct members of ``vertices`` are within distance ``k``."""
    if k < 1:
        raise ValueError("k must be >= 1")
    verts = _as_vertex_array(vertices, graph.num_vertices)
    if verts.size <= 1:
        return True
    A = to_scipy(graph, dtype=np.int8) + sp.identity(graph.num_vertices, dtype=np.int8, format="csr")
    # Rows of (A+I)^k restricted to the set: nonzero (i, j), i != j, is a violation.
    block = sp.csr_matrix(A[verts])
    for _ in range(k - 1):
        block = block @ A
        block.data[:] = 1
    sub = sp.csr_matrix(block[:, verts])
    sub.setdiag(0)
    sub.eliminate_zeros()
    return sub.nnz == 0


def is_maximal(
    graph: CSRGraph, vertices: Union[np.ndarray, Iterable[int]], k: int = 2
) -> bool:
    """True when every vertex of the graph is within distance ``k`` of some member."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n = graph.num_vertices
    if n == 0:
        return True
    verts = _as_vertex_array(vertices, n)
    indicator = np.zeros(n, dtype=np.int8)
    indicator[verts] = 1
    reach = _reach_within_k(graph, indicator, k)
    return bool(np.all(reach))


def verify_mis(
    graph: CSRGraph, vertices: Union[np.ndarray, Iterable[int]], k: int = 2
) -> bool:
    """True when ``vertices`` is a *maximal* distance-``k`` independent set of ``graph``."""
    return is_independent_set(graph, vertices, k=k) and is_maximal(graph, vertices, k=k)


def independence_violations(
    graph: CSRGraph, vertices: Union[np.ndarray, Iterable[int]], k: int = 2
) -> List[Tuple[int, int]]:
    """All pairs of set members within distance ``k`` (BFS-based; small graphs only)."""
    verts = _as_vertex_array(vertices, graph.num_vertices)
    vset = set(int(v) for v in verts)
    violations: List[Tuple[int, int]] = []
    for v in verts:
        dist = bfs_distances(graph, int(v), max_distance=k)
        for u in np.nonzero((dist > 0) & (dist <= k))[0]:
            if int(u) in vset and int(v) < int(u):
                violations.append((int(v), int(u)))
    return violations
