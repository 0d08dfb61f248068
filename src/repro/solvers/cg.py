"""Preconditioned conjugate gradient.

The MueLu experiment of Table V solves a 3-D Laplace system with CG preconditioned by
one SA-AMG V-cycle to a relative tolerance of 1e-12; this module implements the
standard PCG iteration with a pluggable preconditioner (any callable ``M(r) -> z``).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from ..util.vectors import as_vector
from .result import SolveResult

__all__ = ["pcg"]

Preconditioner = Callable[[np.ndarray], np.ndarray]


def pcg(
    A: sp.spmatrix,
    b: np.ndarray,
    M: Optional[Preconditioner] = None,
    x0: Optional[np.ndarray] = None,
    tol: float = 1e-10,
    maxiter: int = 1000,
) -> SolveResult:
    """Solve the SPD system ``A x = b`` with (preconditioned) conjugate gradients.

    Parameters
    ----------
    A:
        Symmetric positive-definite sparse matrix.
    b:
        Right-hand side.
    M:
        Optional preconditioner application ``z = M(r)`` (must be SPD for CG theory
        to hold; the SA-AMG V-cycle and symmetric Gauss-Seidel both qualify).
    x0:
        Initial guess (zero by default).
    tol:
        Relative residual tolerance ``||r|| <= tol * ||b||``.
    maxiter:
        Iteration cap.

    Notes
    -----
    ``b`` and ``x0`` must be 1-D of length n; anything else raises ``ValueError``
    before any arithmetic. Neither is modified.

    The iteration updates ``x``, ``r`` and ``p`` in place, scaling the fresh product
    ``A p`` by ``alpha`` where it lies, and ``alpha p`` goes through one work vector
    allocated per call. Each update rounds the same operands in the same order as
    ``x + alpha p``, ``r - alpha A p`` and ``z + beta p``, so the iterates are those
    of the allocating form bit for bit. With no initial guess the first residual is
    ``b`` itself, without the product ``A @ 0``.
    """
    A = sp.csr_matrix(A)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("A must be square")
    b = as_vector(b, n, "b")
    if x0 is None:
        x = np.zeros(n)
        r = b.copy()
    else:
        x = as_vector(x0, n, "x0").copy()
        r = A @ x
        np.subtract(b, r, out=r)
    b_norm = np.linalg.norm(b)
    if b_norm == 0:
        return SolveResult(x=np.zeros(n), iterations=0, converged=True, residual_norms=[0.0])
    residuals = [float(np.linalg.norm(r))]
    if residuals[0] <= tol * b_norm:
        return SolveResult(x=x, iterations=0, converged=True, residual_norms=residuals)

    z = M(r) if M is not None else r
    p = z.copy()
    rz = float(r @ z)
    step = np.empty(n)
    iterations = 0
    converged = False
    for iterations in range(1, maxiter + 1):
        Ap = A @ p
        pAp = float(p @ Ap)
        if pAp <= 0:
            # Loss of positive-definiteness (preconditioner or matrix not SPD).
            break
        alpha = rz / pAp
        np.multiply(alpha, p, out=step)
        x += step
        Ap *= alpha
        r -= Ap
        res_norm = float(np.linalg.norm(r))
        residuals.append(res_norm)
        if res_norm <= tol * b_norm:
            converged = True
            break
        z = M(r) if M is not None else r
        rz_new = float(r @ z)
        beta = rz_new / rz
        rz = rz_new
        p *= beta
        p += z
    return SolveResult(x=x, iterations=iterations, converged=converged, residual_norms=residuals)
