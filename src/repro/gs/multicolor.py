"""Point multicolor Gauss-Seidel (Deveci et al. 2016) — the Table VI baseline.

A distance-1 coloring of the matrix graph partitions the rows into independent sets;
rows within one color have no couplings among themselves, so they can be updated in
parallel in Gauss-Seidel fashion, one color after another. The price is convergence:
the update order is no longer the natural sequential order, so the preconditioned
solver typically needs more iterations than classical GS — the gap cluster multicolor
GS (Algorithm 4) closes.

Setup = one greedy coloring of the fine matrix graph (the dominant cost the paper
reports for both methods in Table VI), then a :class:`SweepSchedule` that renumbers
the rows color by color, so each color is one contiguous row range. Apply = gather
``b`` and ``x`` into that order once, update each color's range as one vectorised
batch through in-place slice updates, and scatter the result back once.
:class:`SweepSchedule` also runs cluster multicolor GS, over its level schedule.
"""

from __future__ import annotations

import time
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from ..coloring.greedy import greedy_color
from ..graph.build import from_scipy
from ..util.vectors import as_vector

__all__ = ["MulticolorGaussSeidel"]


#: One level of a :class:`SweepSchedule`: its row range, ``A[rows]`` in the new
#: numbering, and its diagonal.
Level = Tuple[slice, sp.csr_matrix, np.ndarray]


def _sweep(levels: Iterable[Level], b: np.ndarray, x: np.ndarray) -> None:
    """One Gauss-Seidel pass over ``levels`` in order, updating ``x`` in place.

    The rows of one level share no couplings, so a Jacobi-style batch update
    restricted to them is exactly the Gauss-Seidel update in this ordering. Each
    row computes ``(b_i - A_i x + d_i x_i) / d_i``, operand for operand.
    """
    for rows, block, diag in levels:
        residual = block @ x
        np.subtract(b[rows], residual, out=residual)
        x_rows = x[rows]
        x_rows *= diag
        x_rows += residual
        x_rows /= diag


class SweepSchedule:
    """Gauss-Seidel sweeps over an ordered sequence of independent row groups.

    Set-up renumbers the rows in schedule order, so level ``l`` is one contiguous
    row range, and keeps each level's rows ``A[rows]`` with their column ids mapped
    to the new numbering. Every row keeps its stored entry order, so its dot product
    adds the same terms in the same order as ``A[i] @ x``: :meth:`apply` equals the
    row-by-row sweep in the schedule's order bit for bit.

    Parameters
    ----------
    A:
        Square CSR matrix, float64.
    diag:
        Its diagonal, nonzero.
    levels:
        The rows of each level, in sweep order; together a permutation of the rows.
        The rows of one level must not couple in ``A``.
    """

    def __init__(self, A: sp.csr_matrix, diag: np.ndarray, levels: Sequence[np.ndarray]) -> None:
        n = A.shape[0]
        self._order = np.concatenate(levels) if levels else np.zeros(0, dtype=np.int64)
        inverse = np.empty(n, dtype=A.indices.dtype)
        inverse[self._order] = np.arange(n, dtype=A.indices.dtype)
        diag = diag[self._order]
        self._levels: List[Level] = []
        start = 0
        for rows in levels:
            block = A[rows]
            block = sp.csr_matrix(
                (block.data, inverse[block.indices], block.indptr), shape=block.shape
            )
            stop = start + rows.size
            self._levels.append((slice(start, stop), block, diag[start:stop]))
            start = stop

    def apply(
        self, b: np.ndarray, x: Optional[np.ndarray], sweeps: int, symmetric: bool
    ) -> np.ndarray:
        """``sweeps`` passes from ``x`` (zero when ``None``), each forward then, when
        ``symmetric``, backward. ``b`` and ``x`` are gathered into schedule order
        once, every level updates a slice of it in place, and one scatter returns
        the result in the original numbering."""
        n = self._order.size
        b = as_vector(b, n, "b")[self._order]
        x = np.zeros(n) if x is None else as_vector(x, n, "x")[self._order]
        for _ in range(sweeps):
            _sweep(self._levels, b, x)
            if symmetric:
                _sweep(reversed(self._levels), b, x)
        out = np.empty(n)
        out[self._order] = x
        return out


class MulticolorGaussSeidel:
    """Point multicolor (symmetric) Gauss-Seidel preconditioner.

    Parameters
    ----------
    A:
        System matrix (CSR). The coloring is computed on its symmetrized graph.
    sweeps:
        Number of (symmetric) sweeps per :meth:`apply`, at least 1.
    symmetric:
        Sweep colors forward then backward (SGS), the configuration Table VI uses.
    """

    def __init__(self, A: sp.spmatrix, sweeps: int = 1, symmetric: bool = True) -> None:
        setup_start = time.perf_counter()
        self.A = sp.csr_matrix(A).astype(np.float64)
        if self.A.shape[0] != self.A.shape[1]:
            raise ValueError("A must be square")
        diag = self.A.diagonal()
        if np.any(diag == 0):
            raise ValueError("multicolor Gauss-Seidel requires a nonzero diagonal")
        self.sweeps = int(sweeps)
        if self.sweeps < 1:
            raise ValueError("sweeps must be >= 1")
        self.symmetric = bool(symmetric)
        graph = from_scipy(self.A)
        self.coloring = greedy_color(graph)
        self.color_sets: List[np.ndarray] = self.coloring.color_classes()
        self.num_colors = self.coloring.num_colors
        # One level per color, so each sweep is a handful of SpMVs (the analogue
        # of the pre-built color-batched kernels in Kokkos Kernels).
        self._schedule = SweepSchedule(self.A, diag, self.color_sets)
        self.setup_seconds = time.perf_counter() - setup_start

    # ------------------------------------------------------------------ application
    def apply(self, b: np.ndarray, x: Optional[np.ndarray] = None) -> np.ndarray:
        """Apply the configured number of multicolor (S)GS sweeps.

        ``b`` and ``x`` must be 1-D of length n; anything else raises ``ValueError``.
        """
        return self._schedule.apply(b, x, self.sweeps, self.symmetric)

    def as_preconditioner(self):
        """Return ``M(r) -> z`` applying the sweeps with a zero initial guess."""
        return lambda r: self.apply(r)
