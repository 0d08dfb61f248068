"""Restarted GMRES.

Table VI of the paper uses GMRES preconditioned with point/cluster multicolor
symmetric Gauss-Seidel and a convergence tolerance of 1e-8 within 800 iterations;
this module provides a standard right-preconditioned restarted GMRES(m) with Givens
rotations, taking any callable ``M(r) -> z`` as the preconditioner.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import daxpy, ddot

from .result import SolveResult

__all__ = ["gmres"]

Preconditioner = Callable[[np.ndarray], np.ndarray]


def gmres(
    A: sp.spmatrix,
    b: np.ndarray,
    M: Optional[Preconditioner] = None,
    x0: Optional[np.ndarray] = None,
    tol: float = 1e-8,
    restart: int = 50,
    maxiter: int = 800,
) -> SolveResult:
    """Solve ``A x = b`` with right-preconditioned restarted GMRES.

    Parameters
    ----------
    A:
        Sparse matrix (no symmetry requirement).
    b:
        Right-hand side.
    M:
        Optional preconditioner application ``z = M(v)`` approximating ``A^{-1} v``.
    x0:
        Initial guess (zero by default).
    tol:
        Relative residual tolerance ``||b - A x|| <= tol * ||b||``.
    restart:
        Krylov subspace dimension per cycle.
    maxiter:
        Total iteration (inner step) cap — the quantity reported as "iterations" in
        Table VI.

    Notes
    -----
    The Krylov basis ``Q`` and its preconditioned images ``Z`` are stored row-major,
    one contiguous row per vector, and allocated once per call, at
    ``min(restart, maxiter)`` rows; every restart cycle reuses them, writing each
    row before it reads it.

    Modified Gram-Schmidt runs in place through BLAS: each projection is one
    ``ddot`` and one ``daxpy`` on a contiguous basis row, with no temporary. ``A``
    is cast to float64 at entry, so ``w = A z`` is a float64 vector that BLAS
    updates without converting it. ``daxpy`` may round ``w - h q`` once, as a
    fused multiply-add, where numpy rounds the product and the difference
    separately; that is the only way ``x`` differs from a numpy MGS, in the last
    bits.

    Breakdown is judged relative to the step's own scale: when orthogonalisation
    leaves ``||w|| <= 1e-14 ||A z||`` the Krylov space is (numerically) invariant,
    the cycle ends, and the next restart checks the true residual. The test is
    unchanged by scaling ``A`` and ``b``, which an absolute threshold is not.
    """
    A = sp.csr_matrix(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n = b.shape[0]
    if A.shape != (n, n):
        raise ValueError("A and b have incompatible shapes")
    if restart < 1:
        raise ValueError("restart must be >= 1")
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64, copy=True)
    b_norm = np.linalg.norm(b)
    if b_norm == 0:
        return SolveResult(x=np.zeros(n), iterations=0, converged=True, residual_norms=[0.0])

    def precondition(v: np.ndarray) -> np.ndarray:
        return M(v) if M is not None else v

    residuals = []
    total_iters = 0
    converged = False
    basis = max(0, min(restart, maxiter))
    Q = np.empty((basis + 1, n))
    Z = np.empty((basis, n))  # preconditioned basis vectors (for the update)
    while total_iters < maxiter and not converged:
        r = b - A @ x
        beta = float(np.linalg.norm(r))
        residuals.append(beta)
        if beta <= tol * b_norm:
            converged = True
            break
        m = min(restart, maxiter - total_iters)
        H = np.zeros((m + 1, m))
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        g[0] = beta
        np.divide(r, beta, out=Q[0])
        k_used = 0
        for k in range(m):
            Z[k] = precondition(Q[k])
            w = A @ Z[k]
            w_scale = float(np.linalg.norm(w))
            # Modified Gram-Schmidt.
            for i in range(k + 1):
                h = ddot(w, Q[i])
                w = daxpy(Q[i], w, a=-h)
                H[i, k] = h
            H[k + 1, k] = float(np.linalg.norm(w))
            breakdown = H[k + 1, k] <= 1e-14 * w_scale
            if not breakdown:
                np.divide(w, H[k + 1, k], out=Q[k + 1])
            # Apply existing Givens rotations to the new column.
            for i in range(k):
                temp = cs[i] * H[i, k] + sn[i] * H[i + 1, k]
                H[i + 1, k] = -sn[i] * H[i, k] + cs[i] * H[i + 1, k]
                H[i, k] = temp
            denom = np.hypot(H[k, k], H[k + 1, k])
            if denom == 0:
                cs[k], sn[k] = 1.0, 0.0
            else:
                cs[k] = H[k, k] / denom
                sn[k] = H[k + 1, k] / denom
            H[k, k] = cs[k] * H[k, k] + sn[k] * H[k + 1, k]
            H[k + 1, k] = 0.0
            g[k + 1] = -sn[k] * g[k]
            g[k] = cs[k] * g[k]
            total_iters += 1
            k_used = k + 1
            res_norm = abs(g[k + 1])
            residuals.append(float(res_norm))
            if res_norm <= tol * b_norm or total_iters >= maxiter or breakdown:
                break
        # Solve the small triangular system and update the iterate.
        if k_used > 0:
            y = np.linalg.solve(H[:k_used, :k_used], g[:k_used])
            x = x + Z[:k_used].T @ y
        final_res = float(np.linalg.norm(b - A @ x))
        if final_res <= tol * b_norm:
            converged = True
    residuals.append(float(np.linalg.norm(b - A @ x)))
    return SolveResult(
        x=x, iterations=total_iters, converged=converged, residual_norms=residuals
    )
