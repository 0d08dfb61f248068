"""Point multicolor Gauss-Seidel (Deveci et al. 2016) — the Table VI baseline.

A distance-1 coloring of the matrix graph partitions the rows into independent sets;
rows within one color have no couplings among themselves, so they can be updated in
parallel in Gauss-Seidel fashion, one color after another. The price is convergence:
the update order is no longer the natural sequential order, so the preconditioned
solver typically needs more iterations than classical GS — the gap cluster multicolor
GS (Algorithm 4) closes.

Setup = one greedy coloring of the fine matrix graph (the dominant cost the paper
reports for both methods in Table VI). Apply = for each color, a vectorised batch
update of all rows of that color.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from ..coloring.greedy import greedy_color
from ..graph.build import from_scipy

__all__ = ["MulticolorGaussSeidel"]

#: One batch of mutually independent rows: ``(rows, A[rows], diag[rows])``.
RowBlock = Tuple[np.ndarray, sp.csr_matrix, np.ndarray]


def row_blocks(A: sp.csr_matrix, diag: np.ndarray, groups: Sequence[np.ndarray]) -> List[RowBlock]:
    """Pre-slice the row block and diagonal of every group of rows, in order."""
    return [(rows, sp.csr_matrix(A[rows]), diag[rows]) for rows in groups]


def sweep(blocks: Sequence[RowBlock], b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One Gauss-Seidel pass over ``blocks`` in order, updating ``x`` in place.

    The rows of one block share no couplings, so a Jacobi-style batch update
    restricted to them is exactly the Gauss-Seidel update in this ordering.
    """
    for rows, block, diag in blocks:
        residual = b[rows] - block @ x + diag * x[rows]
        x[rows] = residual / diag
    return x


class MulticolorGaussSeidel:
    """Point multicolor (symmetric) Gauss-Seidel preconditioner.

    Parameters
    ----------
    A:
        System matrix (CSR). The coloring is computed on its symmetrized graph.
    sweeps:
        Number of (symmetric) sweeps per :meth:`apply`.
    symmetric:
        Sweep colors forward then backward (SGS), the configuration Table VI uses.
    """

    def __init__(self, A: sp.spmatrix, sweeps: int = 1, symmetric: bool = True) -> None:
        setup_start = time.perf_counter()
        self.A = sp.csr_matrix(A).astype(np.float64)
        n = self.A.shape[0]
        if self.A.shape[0] != self.A.shape[1]:
            raise ValueError("A must be square")
        diag = self.A.diagonal()
        if np.any(diag == 0):
            raise ValueError("multicolor Gauss-Seidel requires a nonzero diagonal")
        self._diag = diag
        self.sweeps = int(sweeps)
        self.symmetric = bool(symmetric)
        graph = from_scipy(self.A)
        self.coloring = greedy_color(graph)
        self.color_sets: List[np.ndarray] = self.coloring.color_classes()
        self.num_colors = self.coloring.num_colors
        # Pre-slice the per-color row blocks and diagonals once so each sweep is a
        # handful of SpMVs (the analogue of the pre-built color-batched kernels in
        # Kokkos Kernels).
        self._blocks = row_blocks(self.A, diag, self.color_sets)
        self._backward_blocks = self._blocks[::-1]
        self.setup_seconds = time.perf_counter() - setup_start

    # ------------------------------------------------------------------ application
    def apply(self, b: np.ndarray, x: Optional[np.ndarray] = None) -> np.ndarray:
        """Apply the configured number of multicolor (S)GS sweeps."""
        b = np.asarray(b, dtype=np.float64)
        out = np.zeros_like(b) if x is None else np.array(x, dtype=np.float64, copy=True)
        for _ in range(self.sweeps):
            out = sweep(self._blocks, b, out)
            if self.symmetric:
                out = sweep(self._backward_blocks, b, out)
        return out

    def as_preconditioner(self):
        """Return ``M(r) -> z`` applying the sweeps with a zero initial guess."""
        return lambda r: self.apply(r)
