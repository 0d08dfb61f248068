"""Tests for CG, GMRES and the direct coarse solver."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graph import laplace2d, laplace3d_matrix
from repro.solvers import DirectSolver, JacobiSmoother, gmres, pcg


@pytest.fixture
def spd_system():
    A = laplace2d(15, 15)
    rng = np.random.default_rng(2)
    x_exact = rng.random(A.shape[0])
    return A, x_exact, A @ x_exact


class TestDirectSolver:
    def test_exact_solve(self, spd_system):
        A, x_exact, b = spd_system
        solver = DirectSolver(A)
        assert np.allclose(solver.solve(b), x_exact, atol=1e-8)

    def test_singular_matrix_falls_back_to_pinv(self):
        A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        solver = DirectSolver(A)
        x = solver.solve(np.array([2.0, 2.0]))
        assert np.allclose(A @ x, [2.0, 2.0])

    def test_empty_system(self):
        solver = DirectSolver(sp.csr_matrix((0, 0)))
        assert solver.solve(np.zeros(0)).size == 0

    def test_validation(self, spd_system):
        A, _, _ = spd_system
        solver = DirectSolver(A)
        with pytest.raises(ValueError):
            solver.solve(np.zeros(3))
        with pytest.raises(ValueError):
            DirectSolver(sp.csr_matrix(np.ones((2, 3))))


class TestPCG:
    def test_converges_unpreconditioned(self, spd_system):
        A, x_exact, b = spd_system
        result = pcg(A, b, tol=1e-10, maxiter=2000)
        assert result.converged
        assert np.allclose(result.x, x_exact, atol=1e-6)
        assert result.residual_norms[-1] < result.residual_norms[0]

    def test_preconditioning_reduces_iterations(self, spd_system):
        A, _, b = spd_system
        plain = pcg(A, b, tol=1e-10, maxiter=2000)
        smoother = JacobiSmoother(A, sweeps=2)
        preconditioned = pcg(A, b, M=smoother.apply, tol=1e-10, maxiter=2000)
        assert preconditioned.converged
        assert preconditioned.iterations < plain.iterations

    def test_zero_rhs(self, spd_system):
        A, _, _ = spd_system
        result = pcg(A, np.zeros(A.shape[0]))
        assert result.converged
        assert result.iterations == 0
        assert np.all(result.x == 0)

    def test_initial_guess(self, spd_system):
        A, x_exact, b = spd_system
        result = pcg(A, b, x0=x_exact.copy(), tol=1e-10)
        assert result.iterations == 0
        assert result.converged

    def test_maxiter_respected(self, spd_system):
        A, _, b = spd_system
        result = pcg(A, b, tol=1e-14, maxiter=3)
        assert result.iterations == 3
        assert not result.converged

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            pcg(laplace2d(3, 3), np.zeros(5))


class TestGMRES:
    def test_converges_on_spd_system(self, spd_system):
        A, x_exact, b = spd_system
        result = gmres(A, b, tol=1e-10, maxiter=500)
        assert result.converged
        assert np.allclose(result.x, x_exact, atol=1e-5)

    def test_converges_on_nonsymmetric_system(self):
        A = laplace2d(10, 10).tolil()
        A[0, 5] += 0.3  # break symmetry
        A = sp.csr_matrix(A)
        rng = np.random.default_rng(3)
        x_exact = rng.random(A.shape[0])
        b = A @ x_exact
        result = gmres(A, b, tol=1e-10, maxiter=500)
        assert result.converged
        assert np.allclose(result.x, x_exact, atol=1e-5)

    def test_preconditioning_reduces_iterations(self, spd_system):
        A, _, b = spd_system
        plain = gmres(A, b, tol=1e-8, maxiter=800)
        smoother = JacobiSmoother(A, sweeps=2)
        pre = gmres(A, b, M=smoother.apply, tol=1e-8, maxiter=800)
        assert pre.converged
        assert pre.iterations < plain.iterations

    def test_restart_still_converges(self, spd_system):
        A, x_exact, b = spd_system
        result = gmres(A, b, tol=1e-8, restart=10, maxiter=800)
        assert result.converged
        assert np.allclose(result.x, x_exact, atol=1e-4)

    def test_zero_rhs(self, spd_system):
        A, _, _ = spd_system
        result = gmres(A, np.zeros(A.shape[0]))
        assert result.converged and result.iterations == 0

    def test_scale_invariant(self):
        # Scaling A and b by a power of two scales every quantity GMRES computes
        # exactly, so the breakdown test must not fire on the scale alone.
        A = laplace2d(10, 10)
        b = np.random.default_rng(0).random(A.shape[0])
        unscaled = gmres(A, b)
        assert unscaled.converged
        for scale in (2.0**-60, 2.0**60):
            result = gmres(scale * A, scale * b)
            assert result.converged
            assert result.iterations == unscaled.iterations

    def test_maxiter_cap(self, spd_system):
        A, _, b = spd_system
        result = gmres(A, b, tol=1e-15, maxiter=5)
        assert result.iterations <= 5
        assert not result.converged

    def test_validation(self):
        with pytest.raises(ValueError):
            gmres(laplace2d(3, 3), np.zeros(5))
        with pytest.raises(ValueError):
            gmres(laplace2d(3, 3), np.zeros(9), restart=0)


class TestGMRESInputs:
    """Inputs that are not float64 vectors and matrices solve the float64 system."""

    @pytest.fixture
    def jacobi(self, spd_system):
        A, _, _ = spd_system
        d = A.diagonal()
        return lambda r: r / d

    @pytest.mark.parametrize("dtype", [np.float32, np.int64])
    def test_integer_valued_matrix_of_another_dtype(self, spd_system, jacobi, dtype):
        A, _, b = spd_system
        reference = gmres(A, b, M=jacobi)
        result = gmres(A.astype(dtype), b, M=jacobi)
        assert result.converged
        assert result.iterations == reference.iterations
        assert np.array_equal(result.x, reference.x)

    def test_strided_right_hand_side(self, spd_system, jacobi):
        A, _, b = spd_system
        reference = gmres(A, b, M=jacobi)
        storage = np.zeros(2 * b.size)
        storage[::2] = b
        result = gmres(A, storage[::2], M=jacobi)
        assert result.converged
        assert result.iterations == reference.iterations
        assert np.array_equal(result.x, reference.x)

    @pytest.mark.parametrize("matrix_dtype", [np.float64, np.float32])
    def test_preconditioner_returning_float32(self, spd_system, jacobi, matrix_dtype):
        A, x_exact, b = spd_system
        reference = gmres(A, b, M=jacobi)
        result = gmres(A.astype(matrix_dtype), b, M=lambda r: jacobi(r).astype(np.float32))
        assert result.converged
        assert result.iterations == reference.iterations
        assert np.allclose(result.x, x_exact, atol=1e-5)


def test_gmres_allocates_one_krylov_basis_per_call():
    # Q (m + 1 rows) and Z (m rows) are allocated once and reused by every restart
    # cycle; besides them a solve holds a few n-vectors at a time.
    A = laplace2d(100, 100)
    n = A.shape[0]
    b = np.random.default_rng(0).random(n)
    M = JacobiSmoother(A).apply
    m = 20
    tracemalloc.start()
    try:
        result = gmres(A, b, M=M, restart=m, maxiter=3 * m + m // 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.iterations == 3 * m + m // 2  # three restarts, the last one short
    assert peak < (2 * m + 1) * n * 8 + 16 * n * 8
