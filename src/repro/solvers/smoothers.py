"""Multigrid smoothers.

The paper's MueLu experiment (Table V) uses two sweeps of damped Jacobi as the
smoother on every level of the SA-AMG V-cycle; a Chebyshev smoother is provided as
well since it is MueLu's other standard choice and is useful for the extension
benches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from ..util.vectors import as_vector

__all__ = ["JacobiSmoother", "ChebyshevSmoother"]


@dataclass
class JacobiSmoother:
    """Damped Jacobi smoother ``x <- x + omega D^{-1} (b - A x)``.

    Set-up stores ``omega D^{-1}`` as one vector, so a sweep is one product with
    ``A`` and in-place updates of its residual and of ``x``. Scaling once is exact:
    ``omega * dinv * r`` evaluates as ``(omega * dinv) * r``. With no initial guess
    the first sweep starts from ``x = 0``, whose residual is ``b`` itself, so it
    sets ``x = omega D^{-1} b`` without the product ``A @ 0``.

    Parameters
    ----------
    A:
        System matrix (CSR).
    omega:
        Damping factor (2/3 by default, the standard choice for Poisson-like
        problems; MueLu's default Jacobi damping).
    sweeps:
        Number of sweeps applied per :meth:`apply` call, at least 1.
    """

    A: sp.csr_matrix
    omega: float = 2.0 / 3.0
    sweeps: int = 2

    def __post_init__(self) -> None:
        self.A = sp.csr_matrix(self.A)
        if self.sweeps < 1:
            raise ValueError("sweeps must be >= 1")
        diag = self.A.diagonal()
        if np.any(diag == 0):
            raise ValueError("Jacobi smoother requires a nonzero diagonal")
        self._omega_dinv = self.omega * (1.0 / diag)

    def apply(self, b: np.ndarray, x: Optional[np.ndarray] = None) -> np.ndarray:
        """Apply ``sweeps`` damped-Jacobi sweeps to ``A x = b`` starting from ``x``
        (zero when omitted) and return the new iterate; ``b`` and ``x`` are left
        unchanged. Both must be 1-D of length n; anything else raises ``ValueError``."""
        n = self.A.shape[0]
        b = as_vector(b, n, "b")
        if x is None:
            out = self._omega_dinv * b
            self._sweep(b, out, self.sweeps - 1)
        else:
            out = as_vector(x, n, "x").copy()
            self._sweep(b, out, self.sweeps)
        return out

    def smooth(self, b: np.ndarray, x: np.ndarray) -> None:
        """Apply ``sweeps`` sweeps to ``x`` in place: :meth:`apply` without the copy.

        ``b`` must be 1-D of length n and ``x`` a float64 array of shape ``(n,)``;
        anything else raises ``ValueError``.
        """
        n = self.A.shape[0]
        if not isinstance(x, np.ndarray) or x.dtype != np.float64 or x.shape != (n,):
            raise ValueError(f"x must be a float64 array of shape ({n},)")
        self._sweep(as_vector(b, n, "b"), x, self.sweeps)

    def _sweep(self, b: np.ndarray, x: np.ndarray, sweeps: int) -> None:
        for _ in range(sweeps):
            residual = self.A @ x
            np.subtract(b, residual, out=residual)
            residual *= self._omega_dinv
            x += residual


@dataclass
class ChebyshevSmoother:
    """Chebyshev polynomial smoother targeting the upper part of the spectrum.

    Uses the standard three-term recurrence on the interval
    ``[lambda_max / eig_ratio, lambda_max]`` of ``D^{-1} A``.
    """

    A: sp.csr_matrix
    degree: int = 2
    eig_ratio: float = 7.0
    lambda_max: Optional[float] = None

    def __post_init__(self) -> None:
        self.A = sp.csr_matrix(self.A)
        diag = self.A.diagonal()
        if np.any(diag == 0):
            raise ValueError("Chebyshev smoother requires a nonzero diagonal")
        self._dinv = 1.0 / diag
        if self.lambda_max is None:
            from ..coarsen.prolongation import estimate_spectral_radius

            self.lambda_max = estimate_spectral_radius(self.A)
        if self.lambda_max <= 0:
            raise ValueError("lambda_max must be positive")

    def apply(self, b: np.ndarray, x: Optional[np.ndarray] = None) -> np.ndarray:
        """Apply one degree-``degree`` Chebyshev smoothing pass."""
        b = np.asarray(b, dtype=np.float64)
        x_out = np.zeros_like(b) if x is None else np.array(x, dtype=np.float64, copy=True)
        lmax = float(self.lambda_max)
        lmin = lmax / self.eig_ratio
        theta = 0.5 * (lmax + lmin)
        delta = 0.5 * (lmax - lmin)
        residual = b - self.A @ x_out
        p = self._dinv * residual / theta
        x_out = x_out + p
        # Standard recurrence (see Saad, Iterative Methods, Alg. 12.1).
        sigma = theta / delta if delta != 0 else 0.0
        rho = 1.0 / sigma if sigma != 0 else 0.0
        for _ in range(1, max(1, self.degree)):
            residual = b - self.A @ x_out
            rho_new = 1.0 / (2.0 * sigma - rho) if (2.0 * sigma - rho) != 0 else 0.0
            p = rho_new * rho * p + (2.0 * rho_new / delta) * (self._dinv * residual)
            x_out = x_out + p
            rho = rho_new
        return x_out
