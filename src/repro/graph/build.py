"""Builders converting edge lists, SciPy sparse matrices, dense arrays and NetworkX
graphs to and from :class:`~repro.graph.csr.CSRGraph`.

All builders produce *symmetric, self-loop-free, duplicate-free* CSR structure, which
is the canonical input form for the MIS / coloring / coarsening kernels (matching what
Kokkos Kernels expects of its CRS graphs).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from .csr import CSRGraph

__all__ = [
    "from_edges",
    "from_scipy",
    "from_dense",
    "from_networkx",
    "to_scipy",
    "symmetrize",
    "remove_self_loops",
]


def _csr_from_coo(
    num_vertices: int, src: np.ndarray, dst: np.ndarray
) -> CSRGraph:
    """Build a CSRGraph from COO edge arrays, deduplicating entries per row."""
    if src.size == 0:
        return CSRGraph.empty(num_vertices)
    mat = sp.coo_matrix(
        (np.ones(src.size, dtype=np.int8), (src, dst)),
        shape=(num_vertices, num_vertices),
    ).tocsr()
    mat.sum_duplicates()
    mat.sort_indices()
    return CSRGraph(mat.indptr.astype(np.int64), mat.indices.astype(np.int32), validate=False)


def from_edges(
    num_vertices: int,
    edges: Iterable[Tuple[int, int]],
    symmetric: bool = True,
    allow_self_loops: bool = False,
) -> CSRGraph:
    """Build a graph from an iterable of ``(u, v)`` pairs.

    Parameters
    ----------
    num_vertices:
        Total vertex count; every edge endpoint must lie in ``[0, num_vertices)``.
    edges:
        Iterable of vertex pairs, or an ``(m, 2)`` array (used as is, with
        no round trip through Python objects). Duplicates are collapsed.
    symmetric:
        When true (default), both directions of every edge are stored.
    allow_self_loops:
        When false (default), self-loops are dropped.
    """
    edge_arr = np.asarray(
        edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64
    )
    if edge_arr.size == 0:
        return CSRGraph.empty(num_vertices)
    if edge_arr.ndim != 2 or edge_arr.shape[1] != 2:
        raise ValueError("edges must be an iterable of (u, v) pairs")
    if edge_arr.min() < 0 or edge_arr.max() >= num_vertices:
        raise ValueError("edge endpoint outside [0, num_vertices)")
    src = edge_arr[:, 0]
    dst = edge_arr[:, 1]
    if not allow_self_loops:
        keep = src != dst
        src, dst = src[keep], dst[keep]
    if symmetric:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    return _csr_from_coo(num_vertices, src, dst)


def from_scipy(matrix: sp.spmatrix, drop_self_loops: bool = True) -> CSRGraph:
    """Build a graph from the sparsity pattern of a SciPy sparse matrix.

    The matrix is symmetrized (pattern-wise) so the result is undirected, matching how
    the paper treats its (symmetric) test matrices.
    """
    mat = sp.csr_matrix(matrix)
    if mat.shape[0] != mat.shape[1]:
        raise ValueError(f"adjacency matrix must be square, got shape {mat.shape}")
    pattern = sp.csr_matrix(
        (np.ones(mat.nnz, dtype=np.int8), mat.indices, mat.indptr), shape=mat.shape
    )
    pattern = pattern + pattern.T
    if drop_self_loops:
        pattern = sp.csr_matrix(pattern)
        pattern.setdiag(0)
    pattern.eliminate_zeros()
    pattern.sort_indices()
    return CSRGraph(
        pattern.indptr.astype(np.int64),
        pattern.indices.astype(np.int32),
        validate=False,
    )


def from_dense(matrix: np.ndarray, drop_self_loops: bool = True) -> CSRGraph:
    """Build a graph from a dense 0/1 (or weighted) adjacency matrix."""
    arr = np.asarray(matrix)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("dense adjacency matrix must be square")
    return from_scipy(sp.csr_matrix(arr), drop_self_loops=drop_self_loops)


def from_networkx(graph) -> CSRGraph:
    """Build a graph from a :class:`networkx.Graph` (nodes relabelled to ``0..n-1``)."""
    import networkx as nx  # local import: networkx is a test/benchmark dependency

    relabelled = nx.convert_node_labels_to_integers(graph, ordering="sorted")
    n = relabelled.number_of_nodes()
    return from_edges(n, relabelled.edges(), symmetric=True)


def to_scipy(graph: CSRGraph, dtype=np.float64) -> sp.csr_matrix:
    """Return the 0/1 adjacency matrix of ``graph`` as a SciPy CSR matrix."""
    data = np.ones(graph.num_edge_slots, dtype=dtype)
    return sp.csr_matrix(
        (data, graph.entries.astype(np.int64), graph.rowmap),
        shape=(graph.num_vertices, graph.num_vertices),
    )


def symmetrize(graph: CSRGraph) -> CSRGraph:
    """Return an undirected version of ``graph`` (union of the pattern and its transpose)."""
    return from_scipy(to_scipy(graph), drop_self_loops=False)


def remove_self_loops(graph: CSRGraph) -> CSRGraph:
    """Return a copy of ``graph`` without self-loops."""
    if not graph.has_self_loops():
        return graph.copy()
    mat = to_scipy(graph).tolil()
    mat.setdiag(0)
    return from_scipy(mat.tocsr(), drop_self_loops=True)
