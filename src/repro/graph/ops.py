"""Structural graph operations: boolean squaring (distance-2 adjacency), induced
subgraphs, unions and degree statistics.

The boolean square ``G^2`` implements Lemma IV.1/IV.2 of the paper: with self-loops,
``(G^2)_{ij} != 0`` iff a path of length <= 2 joins ``i`` and ``j``, so an MIS-1 of
``G^2`` is an MIS-2 of ``G``. The reduction is used for verification and theory tests,
not by Algorithm 1 itself (which never forms ``G^2`` explicitly — that is the point of
Bell's and the paper's direct approach).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from ..parallel.primitives import expand_rows
from .build import from_scipy, to_scipy
from .csr import CSRGraph

__all__ = [
    "square",
    "distance_k_graph",
    "induced_subgraph",
    "union",
    "complement_mask",
    "degree_statistics",
    "DegreeStatistics",
]


def square(graph: CSRGraph, include_self: bool = False) -> CSRGraph:
    """Return the distance-2 closure graph of ``graph``.

    Vertices ``u != v`` are adjacent in the result iff there is a path of length 1 or
    2 between them in ``graph`` (i.e. the boolean product ``(A + I)^2`` with the
    diagonal dropped unless ``include_self``).
    """
    A = to_scipy(graph, dtype=np.int8)
    A_loops = A + sp.identity(graph.num_vertices, dtype=np.int8, format="csr")
    sq = A_loops @ A_loops
    return from_scipy(sq, drop_self_loops=not include_self)


def distance_k_graph(graph: CSRGraph, k: int) -> CSRGraph:
    """Graph whose edges join all vertex pairs at distance ``1..k`` in ``graph``."""
    if k < 1:
        raise ValueError("k must be >= 1")
    A = to_scipy(graph, dtype=np.int8)
    closure = A + sp.identity(graph.num_vertices, dtype=np.int8, format="csr")
    power = closure.copy()
    for _ in range(k - 1):
        power = power @ closure
        # Keep entries boolean to bound memory/intermediate growth.
        power.data[:] = 1
    return from_scipy(power, drop_self_loops=True)


def induced_subgraph(
    graph: CSRGraph, vertices: np.ndarray
) -> tuple[CSRGraph, np.ndarray]:
    """Subgraph induced by ``vertices``.

    Returns ``(subgraph, mapping)`` where ``mapping[i]`` is the original id of the
    ``i``-th vertex in the subgraph. Vertex order follows the (deduplicated, sorted)
    input order to keep the operation deterministic.

    Built in NumPy in O(kept rows + their slots): the kept rows' slots are
    gathered, relabelled and filtered, in row order. On a canonical graph
    (rows sorted without duplicates, no self-loops, symmetric: what the
    builders, the generators and every service write produce) the result is
    canonical and equals ``from_scipy`` of the restricted adjacency matrix. On
    any other input it holds the stored rows restricted, without symmetrising.
    """
    verts = np.unique(np.asarray(vertices, dtype=np.int64))
    if verts.size and (verts.min() < 0 or verts.max() >= graph.num_vertices):
        raise ValueError("vertices outside the graph's vertex range")
    new_id = np.full(graph.num_vertices, -1, dtype=np.int64)
    new_id[verts] = np.arange(verts.size, dtype=np.int64)
    slots, seg = expand_rows(graph.rowmap, verts)
    relabelled = new_id[graph.entries[slots]]
    kept = relabelled >= 0
    kept_before = np.concatenate([[0], np.cumsum(kept)])
    return CSRGraph(kept_before[seg], relabelled[kept], validate=False), verts


def union(a: CSRGraph, b: CSRGraph) -> CSRGraph:
    """Union of two graphs on the same vertex set."""
    if a.num_vertices != b.num_vertices:
        raise ValueError("graphs must have the same number of vertices")
    return from_scipy(to_scipy(a, dtype=np.int8) + to_scipy(b, dtype=np.int8))


def complement_mask(num_vertices: int, vertices: np.ndarray) -> np.ndarray:
    """Boolean mask that is True for vertices *not* in ``vertices``."""
    mask = np.ones(num_vertices, dtype=bool)
    verts = np.asarray(vertices, dtype=np.int64)
    if verts.size and (verts.min() < 0 or verts.max() >= num_vertices):
        raise ValueError("vertices outside range")
    mask[verts] = False
    return mask


@dataclass(frozen=True)
class DegreeStatistics:
    """Summary statistics of a graph's degree distribution (as in the paper's Table II)."""

    num_vertices: int
    num_edge_slots: int
    average_degree: float
    max_degree: int
    min_degree: int

    @property
    def num_edges_millions(self) -> float:
        """Edge-slot count in millions (paper's |E| column counts stored nonzeros)."""
        return self.num_edge_slots / 1e6

    @property
    def num_vertices_millions(self) -> float:
        return self.num_vertices / 1e6


def degree_statistics(graph: CSRGraph) -> DegreeStatistics:
    """Compute the Table II-style summary statistics for ``graph``."""
    degs = graph.degrees()
    return DegreeStatistics(
        num_vertices=graph.num_vertices,
        num_edge_slots=graph.num_edge_slots,
        average_degree=float(graph.average_degree()),
        max_degree=int(degs.max()) if degs.size else 0,
        min_degree=int(degs.min()) if degs.size else 0,
    )
