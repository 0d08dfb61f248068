"""Tests for the Jacobi and Chebyshev smoothers."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graph import laplace2d, laplace3d_matrix
from repro.solvers import ChebyshevSmoother, JacobiSmoother
from tests.gs.test_cluster import MISSHAPEN


@pytest.fixture
def system():
    A = laplace2d(12, 12)
    rng = np.random.default_rng(0)
    x_exact = rng.random(A.shape[0])
    return A, x_exact, A @ x_exact


def _jacobi_reference(smoother, b, x=None):
    """The allocating damped-Jacobi sweeps: from ``x`` (zero when omitted), ``sweeps``
    times ``x += omega * dinv * (b - A x)``, each operand a new array."""
    dinv = 1.0 / smoother.A.diagonal()
    b = np.asarray(b, dtype=np.float64)
    out = np.zeros_like(b) if x is None else np.array(x, dtype=np.float64, copy=True)
    for _ in range(smoother.sweeps):
        residual = b - smoother.A @ out
        out += smoother.omega * dinv * residual
    return out


def _traced_peak(call):
    """Bytes at the traced allocation peak while ``call()`` raises ``ValueError``."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="must have shape"):
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestJacobi:
    def test_reduces_residual(self, system):
        A, x_exact, b = system
        smoother = JacobiSmoother(A, sweeps=3)
        x = smoother.apply(b)
        assert np.linalg.norm(b - A @ x) < np.linalg.norm(b)

    def test_sweeps_accumulate(self, system):
        A, _, b = system
        one = JacobiSmoother(A, sweeps=1).apply(b)
        two = JacobiSmoother(A, sweeps=2).apply(b)
        r1 = np.linalg.norm(b - A @ one)
        r2 = np.linalg.norm(b - A @ two)
        assert r2 < r1

    def test_initial_guess_respected(self, system):
        A, x_exact, b = system
        smoother = JacobiSmoother(A, sweeps=1)
        from_exact = smoother.apply(b, x_exact.copy())
        assert np.allclose(from_exact, x_exact, atol=1e-12)

    def test_error_energy_norm_does_not_grow(self, system):
        A, _, _ = system
        n = A.shape[0]
        rng = np.random.default_rng(1)
        rough = rng.standard_normal(n)
        smoother = JacobiSmoother(A, sweeps=2)
        # For the homogeneous system b = 0 the new error is simply the smoother
        # applied to the old error; damped Jacobi must not amplify it in energy norm.
        e_after = smoother.apply(np.zeros(n), rough)
        assert e_after @ (A @ e_after) <= rough @ (A @ rough) * 1.001

    def test_zero_diagonal_rejected(self):
        A = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 2.0]]))
        with pytest.raises(ValueError):
            JacobiSmoother(A)

    @pytest.mark.parametrize("sweeps", [0, -1])
    def test_sweeps_below_one_rejected(self, system, sweeps):
        # Zero sweeps would make apply return zeros, a V-cycle with no smoothing.
        A, _, _ = system
        with pytest.raises(ValueError, match="sweeps"):
            JacobiSmoother(A, sweeps=sweeps)

    @pytest.mark.parametrize("sweeps", [1, 2, 3])
    @pytest.mark.parametrize("start", ["zero", "given"])
    def test_apply_matches_allocating_reference(self, start, sweeps):
        # A varied diagonal, so that omega * (1 / d) and omega / d round apart.
        rng = np.random.default_rng(sweeps)
        A = laplace3d_matrix(6, 6, 6) + sp.diags(rng.uniform(0.0, 1.0, 216))
        b = rng.standard_normal(A.shape[0])
        x = None if start == "zero" else rng.standard_normal(A.shape[0])
        x_before = None if x is None else x.copy()
        b_before = b.copy()
        smoother = JacobiSmoother(A, omega=0.7, sweeps=sweeps)
        assert np.array_equal(smoother.apply(b, x), _jacobi_reference(smoother, b, x))
        assert np.array_equal(b, b_before)
        assert x is None or np.array_equal(x, x_before)

    def test_smooth_updates_x_in_place_like_apply(self, system):
        A, _, b = system
        smoother = JacobiSmoother(A)
        x = np.random.default_rng(5).standard_normal(A.shape[0])
        expected = smoother.apply(b, x)
        assert smoother.smooth(b, x) is None
        assert np.array_equal(x, expected)

    @pytest.mark.parametrize(
        "x", [np.zeros(143), np.zeros((144, 1)), np.zeros(144, dtype=np.float32), [0.0] * 144],
        ids=["short", "2d", "float32", "list"],
    )
    def test_smooth_rejects_x_it_cannot_update_in_place(self, system, x):
        A, _, b = system
        with pytest.raises(ValueError, match="float64 array"):
            JacobiSmoother(A).smooth(b, x)

    @pytest.mark.parametrize("b_shape, x_shape", MISSHAPEN.values(), ids=MISSHAPEN.keys())
    def test_apply_rejects_misshapen_vectors(self, b_shape, x_shape):
        smoother = JacobiSmoother(laplace2d(9, 9))
        x = None if x_shape is None else np.zeros(x_shape)
        with pytest.raises(ValueError, match="must have shape"):
            smoother.apply(np.ones(b_shape), x)

    def test_column_rhs_rejected_before_any_arithmetic(self):
        # A (n, 1) right-hand side once broadcast the first update to n x n.
        A = laplace3d_matrix(6, 6, 6)
        n = A.shape[0]
        smoother = JacobiSmoother(A)
        b = np.ones((n, 1))
        assert _traced_peak(lambda: smoother.apply(b)) < 4 * n * 8


class TestChebyshev:
    def test_reduces_residual(self, system):
        A, _, b = system
        smoother = ChebyshevSmoother(A, degree=3)
        x = smoother.apply(b)
        assert np.linalg.norm(b - A @ x) < np.linalg.norm(b)

    def test_higher_degree_better(self, system):
        A, _, b = system
        r2 = np.linalg.norm(b - A @ ChebyshevSmoother(A, degree=2).apply(b))
        r4 = np.linalg.norm(b - A @ ChebyshevSmoother(A, degree=4).apply(b))
        assert r4 < r2

    def test_explicit_lambda_max(self, system):
        A, _, b = system
        x = ChebyshevSmoother(A, degree=2, lambda_max=2.0).apply(b)
        assert np.all(np.isfinite(x))

    def test_validation(self):
        A = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 2.0]]))
        with pytest.raises(ValueError):
            ChebyshevSmoother(A)
        with pytest.raises(ValueError):
            ChebyshevSmoother(laplace2d(3, 3), lambda_max=-1.0)
