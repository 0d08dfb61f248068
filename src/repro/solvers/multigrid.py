"""Smoothed-aggregation algebraic multigrid (SA-AMG).

This is the Python analogue of the MueLu setup the paper's Table V experiment drives:

* **Setup** — starting from the fine matrix, repeatedly (i) aggregate the matrix graph
  with a pluggable aggregation scheme (Algorithm 2, Algorithm 3, D2C or the serial
  baseline), (ii) build the smoothed prolongation ``P = (I - omega D^{-1}A) P_tent``,
  and (iii) form the Galerkin coarse operator ``A_c = P^T A P`` — until the coarse
  system is small enough for a direct solve. The time spent inside the aggregation
  routines is recorded separately, matching the "Agg." column of Table V.
* **Solve** — a standard V-cycle (pre/post smoothing with damped Jacobi, exact
  coarsest solve) used as a preconditioner for CG (:func:`repro.solvers.cg.pcg`).

Each level keeps one transfer operator: the restriction ``R = P^T`` in CSR, with the
prolongation as its transpose ``R.T``, a CSC view of the same arrays. A V-cycle does
only the work its math needs: the zero-guess pre-smoothing skips ``A @ 0``, and the
residual, the coarse-grid correction and the post-smoothing update vectors the cycle
owns in place. It keeps no buffer between calls, so it is reentrant.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np
import scipy.sparse as sp

from ..coarsen.aggregation import Aggregation
from ..coarsen.coarse import galerkin_operator
from ..coarsen.mis2_agg import mis2_aggregation
from ..coarsen.prolongation import smoothed_prolongation
from ..graph.build import from_scipy
from ..graph.csr import CSRGraph
from ..util.vectors import as_vector
from .cg import pcg
from .direct import DirectSolver
from .result import SolveResult
from .smoothers import JacobiSmoother

__all__ = ["AMGLevel", "AMGHierarchy", "build_hierarchy"]

AggregationFn = Callable[[CSRGraph], Aggregation]


@dataclass
class AMGLevel:
    """One level of the SA-AMG hierarchy."""

    #: Level index (0 = finest).
    index: int
    #: System matrix on this level.
    A: sp.csr_matrix
    #: Prolongation from the next-coarser level: ``R.T``, a CSC view of ``R``'s
    #: arrays with no copy of its own (None on the coarsest level).
    P: Optional[sp.csc_matrix] = None
    #: Restriction ``P^T`` in CSR (None on the coarsest level).
    R: Optional[sp.csr_matrix] = None
    #: Aggregation used to coarsen this level (None on the coarsest level).
    aggregation: Optional[Aggregation] = None
    #: Pre/post smoother for this level (None on the coarsest level).
    smoother: Optional[JacobiSmoother] = None


@dataclass
class AMGHierarchy:
    """A complete SA-AMG hierarchy with V-cycle application."""

    levels: List[AMGLevel] = field(default_factory=list)
    coarse_solver: Optional[DirectSolver] = None
    #: Wall-clock seconds spent inside the aggregation routines during setup.
    aggregation_seconds: float = 0.0
    #: Total wall-clock seconds of the setup.
    setup_seconds: float = 0.0
    #: Name of the aggregation scheme used (for reporting).
    aggregation_name: str = ""

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    def operator_complexity(self) -> float:
        """Sum of nonzeros over all level matrices divided by the fine nonzeros."""
        fine_nnz = self.levels[0].A.nnz
        return sum(level.A.nnz for level in self.levels) / fine_nnz if fine_nnz else 0.0

    def level_sizes(self) -> List[int]:
        return [int(level.A.shape[0]) for level in self.levels]

    # ------------------------------------------------------------------ V-cycle
    def vcycle(self, b: np.ndarray, x: Optional[np.ndarray] = None, level: int = 0) -> np.ndarray:
        """One V(1,1)-style cycle from ``x`` (zero when omitted) on level ``level``;
        the Jacobi smoother applies its configured sweeps.

        Returns a new vector and leaves ``b`` and ``x`` unchanged. Both must be 1-D
        of the level's size; anything else raises ``ValueError``.
        """
        lvl = self.levels[level]
        n = lvl.A.shape[0]
        b = as_vector(b, n, "b")
        if x is not None:
            x = as_vector(x, n, "x")
        if level == self.num_levels - 1:
            assert self.coarse_solver is not None
            return self.coarse_solver.solve(b)
        assert lvl.smoother is not None and lvl.P is not None and lvl.R is not None
        x = lvl.smoother.apply(b, x)
        residual = lvl.A @ x
        np.subtract(b, residual, out=residual)
        x += lvl.P @ self.vcycle(lvl.R @ residual, None, level + 1)
        lvl.smoother.smooth(b, x)
        return x

    def as_preconditioner(self) -> Callable[[np.ndarray], np.ndarray]:
        """Return ``M(r) -> z`` applying one V-cycle with zero initial guess."""
        return lambda r: self.vcycle(r)

    def solve(
        self,
        b: np.ndarray,
        tol: float = 1e-12,
        maxiter: int = 500,
        x0: Optional[np.ndarray] = None,
    ) -> SolveResult:
        """Solve ``A x = b`` with CG preconditioned by one V-cycle per iteration."""
        start = time.perf_counter()
        result = pcg(self.levels[0].A, b, M=self.as_preconditioner(), x0=x0, tol=tol, maxiter=maxiter)
        result.solve_seconds = time.perf_counter() - start
        result.setup_seconds = self.setup_seconds
        return result


def build_hierarchy(
    A: sp.spmatrix,
    aggregation_fn: AggregationFn = mis2_aggregation,
    max_levels: int = 10,
    min_coarse_size: int = 64,
    smoother_sweeps: int = 2,
    smoother_omega: float = 2.0 / 3.0,
    aggregation_name: Optional[str] = None,
) -> AMGHierarchy:
    """Build an SA-AMG hierarchy for ``A`` using ``aggregation_fn`` on every level.

    Parameters
    ----------
    A:
        Symmetric positive-definite system matrix.
    aggregation_fn:
        Maps a :class:`~repro.graph.csr.CSRGraph` to an
        :class:`~repro.coarsen.aggregation.Aggregation` (Algorithm 3 by default).
    max_levels:
        Maximum number of levels including the finest.
    min_coarse_size:
        Stop coarsening once a level has at most this many unknowns.
    smoother_sweeps / smoother_omega:
        Damped-Jacobi smoother configuration (the paper uses 2 sweeps); at least
        one sweep.
    aggregation_name:
        Label recorded on the hierarchy (defaults to the function's ``__name__``).
    """
    if smoother_sweeps < 1:
        raise ValueError("smoother_sweeps must be >= 1")
    setup_start = time.perf_counter()
    A = sp.csr_matrix(A).astype(np.float64)
    hierarchy = AMGHierarchy(
        aggregation_name=aggregation_name or getattr(aggregation_fn, "__name__", "custom")
    )
    current = A
    for level_index in range(max_levels):
        level = AMGLevel(index=level_index, A=current)
        hierarchy.levels.append(level)
        if current.shape[0] <= min_coarse_size or level_index == max_levels - 1:
            break
        graph = from_scipy(current)
        agg_start = time.perf_counter()
        aggregation = aggregation_fn(graph)
        hierarchy.aggregation_seconds += time.perf_counter() - agg_start
        if aggregation.num_aggregates >= current.shape[0] or aggregation.num_aggregates == 0:
            # Coarsening stagnated; stop here and solve this level directly.
            break
        P, _ = smoothed_prolongation(current, aggregation)
        coarse = galerkin_operator(current, P)
        level.R = sp.csr_matrix(P.T)
        level.P = level.R.T
        level.aggregation = aggregation
        level.smoother = JacobiSmoother(current, omega=smoother_omega, sweeps=smoother_sweeps)
        current = coarse
    hierarchy.coarse_solver = DirectSolver(hierarchy.levels[-1].A)
    hierarchy.setup_seconds = time.perf_counter() - setup_start
    return hierarchy
