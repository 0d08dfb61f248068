"""Tests for CG, GMRES and the direct coarse solver."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graph import laplace2d, laplace3d_matrix
from repro.solvers import DirectSolver, JacobiSmoother, gmres, pcg
from tests.solvers.test_smoothers import _traced_peak


@pytest.fixture
def spd_system():
    A = laplace2d(15, 15)
    rng = np.random.default_rng(2)
    x_exact = rng.random(A.shape[0])
    return A, x_exact, A @ x_exact


def _pcg_reference(A, b, M=None, x0=None, tol=1e-10, maxiter=1000):
    """The allocating PCG iteration: every update of ``x``, ``r`` and ``p`` makes new
    arrays. Returns ``(x, iterations, converged, residual_norms)``."""
    A = sp.csr_matrix(A)
    b = np.asarray(b, dtype=np.float64)
    n = b.shape[0]
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64, copy=True)
    r = b - A @ x
    b_norm = np.linalg.norm(b)
    if b_norm == 0:
        return np.zeros(n), 0, True, [0.0]
    residuals = [float(np.linalg.norm(r))]
    if residuals[0] <= tol * b_norm:
        return x, 0, True, residuals
    z = M(r) if M is not None else r
    p = z.copy()
    rz = float(r @ z)
    iterations = 0
    converged = False
    for iterations in range(1, maxiter + 1):
        Ap = A @ p
        pAp = float(p @ Ap)
        if pAp <= 0:
            break
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        res_norm = float(np.linalg.norm(r))
        residuals.append(res_norm)
        if res_norm <= tol * b_norm:
            converged = True
            break
        z = M(r) if M is not None else r
        rz_new = float(r @ z)
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
    return x, iterations, converged, residuals


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

    @pytest.mark.parametrize("b_shape, x0_shape", [
        ((226,), None), ((224,), None), ((225, 1), None), ((225,), (226,)), ((225,), (225, 1)),
    ], ids=["long_b", "short_b", "2d_b", "long_x0", "2d_x0"])
    def test_misshapen_vectors_rejected(self, spd_system, b_shape, x0_shape):
        A, _, _ = spd_system
        x0 = None if x0_shape is None else np.zeros(x0_shape)
        with pytest.raises(ValueError, match="must have shape"):
            pcg(A, np.ones(b_shape), x0=x0)

    def test_column_rhs_rejected_before_any_arithmetic(self):
        # A (n, 1) right-hand side once broadcast the first residual to n x n, and
        # the iteration copied it and multiplied it by itself before failing.
        A = laplace3d_matrix(6, 6, 6)
        n = A.shape[0]
        b = np.ones((n, 1))
        assert _traced_peak(lambda: pcg(A, b)) < 4 * n * 8

    @pytest.mark.parametrize("start", ["zero", "given"])
    @pytest.mark.parametrize("preconditioner", ["none", "jacobi"])
    @pytest.mark.parametrize("maxiter", [3, 2000])
    def test_matches_allocating_reference(self, spd_system, start, preconditioner, maxiter):
        A, _, b = spd_system
        x0 = None if start == "zero" else np.random.default_rng(3).random(A.shape[0])
        M = None if preconditioner == "none" else JacobiSmoother(A, sweeps=2).apply
        b_before = b.copy()
        x0_before = None if x0 is None else x0.copy()
        result = pcg(A, b, M=M, x0=x0, tol=1e-10, maxiter=maxiter)
        x, iterations, converged, residuals = _pcg_reference(A, b, M, x0, 1e-10, maxiter)
        assert (result.iterations, result.converged) == (iterations, converged)
        assert result.residual_norms == residuals
        assert np.array_equal(result.x, x)
        assert np.array_equal(b, b_before)
        assert x0 is None or np.array_equal(x0, x0_before)


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
