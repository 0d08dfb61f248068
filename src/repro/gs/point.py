"""Classical (sequential) Gauss-Seidel and symmetric Gauss-Seidel.

Classical GS updates the unknowns in order, each update using the most recent values
of all previous unknowns — which is why it parallelises poorly and why the paper's
multicolor variants exist. It is included as the convergence reference: cluster
multicolor GS approaches its iteration counts (each cluster is swept sequentially),
while point multicolor GS trades iterations for parallelism.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = ["gauss_seidel_sweep", "symmetric_gauss_seidel_sweep", "PointGaussSeidel"]


def _split(A: sp.csr_matrix):
    lower = sp.tril(A, k=0, format="csr")  # D + L
    upper = sp.triu(A, k=0, format="csr")  # D + U
    return lower, upper


def gauss_seidel_sweep(
    A: sp.spmatrix,
    b: np.ndarray,
    x: Optional[np.ndarray] = None,
    backward: bool = False,
) -> np.ndarray:
    """One forward (or backward) Gauss-Seidel sweep on ``A x = b``.

    Implemented with a sparse triangular solve of the (D+L) (or (D+U)) factor, which
    is mathematically identical to the row-by-row update loop.
    """
    A = sp.csr_matrix(A)
    b = np.asarray(b, dtype=np.float64)
    x = np.zeros_like(b) if x is None else np.array(x, dtype=np.float64, copy=True)
    lower, upper = _split(A)
    if not backward:
        rhs = b - (A - lower) @ x
        return spla.spsolve_triangular(lower, rhs, lower=True)
    rhs = b - (A - upper) @ x
    return spla.spsolve_triangular(upper, rhs, lower=False)


def symmetric_gauss_seidel_sweep(
    A: sp.spmatrix, b: np.ndarray, x: Optional[np.ndarray] = None
) -> np.ndarray:
    """One symmetric Gauss-Seidel sweep (forward then backward)."""
    x = gauss_seidel_sweep(A, b, x, backward=False)
    return gauss_seidel_sweep(A, b, x, backward=True)


class PointGaussSeidel:
    """Reusable classical (S)GS preconditioner object.

    Parameters
    ----------
    A:
        System matrix.
    sweeps:
        Number of sweeps per application, at least 1.
    symmetric:
        Apply symmetric sweeps (forward+backward) — required when used as a CG
        preconditioner.
    """

    def __init__(self, A: sp.spmatrix, sweeps: int = 1, symmetric: bool = True) -> None:
        self.A = sp.csr_matrix(A)
        if np.any(self.A.diagonal() == 0):
            raise ValueError("Gauss-Seidel requires a nonzero diagonal")
        self.sweeps = int(sweeps)
        if self.sweeps < 1:
            raise ValueError("sweeps must be >= 1")
        self.symmetric = bool(symmetric)

    def apply(self, b: np.ndarray, x: Optional[np.ndarray] = None) -> np.ndarray:
        """Apply ``sweeps`` (S)GS sweeps starting from ``x`` (zero by default)."""
        out = x
        for _ in range(self.sweeps):
            if self.symmetric:
                out = symmetric_gauss_seidel_sweep(self.A, b, out)
            else:
                out = gauss_seidel_sweep(self.A, b, out)
        return out

    def as_preconditioner(self):
        """Return ``M(r) -> z`` applying the sweeps with a zero initial guess."""
        return lambda r: self.apply(r)
