"""Tests for classical (sequential) Gauss-Seidel."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graph import laplace2d
from repro.gs import PointGaussSeidel, gauss_seidel_sweep, symmetric_gauss_seidel_sweep
from repro.solvers import pcg


@pytest.fixture
def system():
    A = laplace2d(10, 10)
    rng = np.random.default_rng(1)
    x_exact = rng.random(A.shape[0])
    return A, x_exact, A @ x_exact


def _reference_forward_sweep(A, b, x):
    dense = sp.csr_matrix(A).toarray()
    x = x.copy()
    for i in range(dense.shape[0]):
        diag = dense[i, i]
        total = dense[i] @ x - diag * x[i]
        x[i] = (b[i] - total) / diag
    return x


class TestSweeps:
    def test_forward_sweep_matches_row_by_row_reference(self, system):
        A, _, b = system
        x0 = np.zeros(A.shape[0])
        fast = gauss_seidel_sweep(A, b, x0)
        slow = _reference_forward_sweep(A, b, x0)
        assert np.allclose(fast, slow)

    def test_backward_sweep_differs_from_forward(self, system):
        A, _, b = system
        f = gauss_seidel_sweep(A, b)
        bwd = gauss_seidel_sweep(A, b, backward=True)
        assert not np.allclose(f, bwd)

    def test_sweeps_reduce_residual_monotonically(self, system):
        A, _, b = system
        x = np.zeros(A.shape[0])
        prev = np.linalg.norm(b)
        for _ in range(5):
            x = symmetric_gauss_seidel_sweep(A, b, x)
            res = np.linalg.norm(b - A @ x)
            assert res < prev
            prev = res

    def test_exact_solution_is_fixed_point(self, system):
        A, x_exact, b = system
        out = symmetric_gauss_seidel_sweep(A, b, x_exact.copy())
        assert np.allclose(out, x_exact, atol=1e-10)


class TestPreconditioner:
    def test_sgs_preconditioner_accelerates_cg(self, system):
        A, _, b = system
        plain = pcg(A, b, tol=1e-10, maxiter=1000)
        gs = PointGaussSeidel(A, sweeps=1, symmetric=True)
        pre = pcg(A, b, M=gs.as_preconditioner(), tol=1e-10, maxiter=1000)
        assert pre.converged
        assert pre.iterations < plain.iterations

    def test_multiple_sweeps(self, system):
        A, _, b = system
        one = PointGaussSeidel(A, sweeps=1).apply(b)
        two = PointGaussSeidel(A, sweeps=2).apply(b)
        assert np.linalg.norm(b - A @ two) < np.linalg.norm(b - A @ one)

    def test_zero_diagonal_rejected(self):
        A = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(ValueError):
            PointGaussSeidel(A)

    @pytest.mark.parametrize("sweeps", [0, -1])
    def test_sweeps_below_one_rejected(self, system, sweeps):
        # Zero sweeps would make apply return None, which no solver can use.
        A, _, _ = system
        with pytest.raises(ValueError, match="sweeps"):
            PointGaussSeidel(A, sweeps=sweeps)
