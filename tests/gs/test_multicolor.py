"""Tests for point multicolor Gauss-Seidel (the Table VI baseline)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.coloring import is_valid_coloring
from repro.graph import laplace2d, laplace3d_matrix
from repro.gs import MulticolorGaussSeidel
from repro.solvers import gmres, pcg
from tests.gs.test_cluster import MISSHAPEN, _one_sided_laplace


@pytest.fixture
def system():
    A = laplace3d_matrix(8, 8, 8)
    rng = np.random.default_rng(4)
    x_exact = rng.random(A.shape[0])
    return A, x_exact, A @ x_exact


class TestSetup:
    def test_coloring_is_valid(self, system):
        A, _, _ = system
        gs = MulticolorGaussSeidel(A)
        from repro.graph import from_scipy

        assert is_valid_coloring(from_scipy(A), gs.coloring.colors, distance=1)
        assert gs.num_colors >= 2

    def test_color_sets_partition_rows(self, system):
        A, _, _ = system
        gs = MulticolorGaussSeidel(A)
        combined = np.sort(np.concatenate(gs.color_sets))
        assert np.array_equal(combined, np.arange(A.shape[0]))

    def test_setup_time_recorded(self, system):
        A, _, _ = system
        assert MulticolorGaussSeidel(A).setup_seconds > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            MulticolorGaussSeidel(sp.csr_matrix(np.ones((2, 3))))
        with pytest.raises(ValueError):
            MulticolorGaussSeidel(sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])))

    @pytest.mark.parametrize("sweeps", [0, -1])
    def test_sweeps_below_one_rejected(self, system, sweeps):
        # Zero sweeps would make apply return zeros, a singular preconditioner.
        A, _, _ = system
        with pytest.raises(ValueError, match="sweeps"):
            MulticolorGaussSeidel(A, sweeps=sweeps)


def _color_ordered_sweeps(A, gs, b, x, sweeps, symmetric):
    """Point multicolor GS row by row: the colors in order, each color's rows in order;
    a symmetric sweep then walks the colors back."""
    A = sp.csr_matrix(A)
    d = A.diagonal()
    forward = list(gs.color_sets)
    passes = [forward, forward[::-1]] if symmetric else [forward]
    for _ in range(sweeps):
        for colors in passes:
            for rows in colors:
                for i in rows:
                    row_dot = float((A[i] @ x)[0])
                    x[i] = (b[i] - row_dot + d[i] * x[i]) / d[i]
    return x


class TestApply:
    def test_sweeps_reduce_residual(self, system):
        A, _, b = system
        gs = MulticolorGaussSeidel(A, sweeps=1, symmetric=True)
        x = gs.apply(b)
        assert np.linalg.norm(b - A @ x) < np.linalg.norm(b)
        x2 = gs.apply(b, x)
        assert np.linalg.norm(b - A @ x2) < np.linalg.norm(b - A @ x)

    def test_exact_solution_fixed_point(self, system):
        A, x_exact, b = system
        gs = MulticolorGaussSeidel(A)
        assert np.allclose(gs.apply(b, x_exact.copy()), x_exact, atol=1e-10)

    def test_forward_only_variant(self, system):
        A, _, b = system
        fwd = MulticolorGaussSeidel(A, symmetric=False).apply(b)
        sym = MulticolorGaussSeidel(A, symmetric=True).apply(b)
        assert not np.allclose(fwd, sym)

    @pytest.mark.parametrize("sweeps", [1, 2])
    @pytest.mark.parametrize("start", ["zero", "nonzero"])
    @pytest.mark.parametrize("symmetric", [False, True], ids=["forward", "symmetric"])
    @pytest.mark.parametrize(
        "matrix",
        [lambda: laplace2d(9, 9).tocsr(), _one_sided_laplace],
        ids=["laplace2d", "one_sided"],
    )
    def test_apply_matches_color_ordered_reference(self, matrix, symmetric, start, sweeps):
        # The contiguous per-color ranges must update every row exactly as the
        # row-by-row loop does, also when A couples a pair of rows on one side only.
        A = matrix()
        n = A.shape[0]
        b = np.linspace(0.5, 1.5, n)
        x0 = np.zeros(n) if start == "zero" else np.cos(np.arange(n))
        gs = MulticolorGaussSeidel(A, sweeps=sweeps, symmetric=symmetric)
        expected = _color_ordered_sweeps(A, gs, b, x0.copy(), sweeps, symmetric)
        got = gs.apply(b) if start == "zero" else gs.apply(b, x0)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("b_shape, x_shape", MISSHAPEN.values(), ids=MISSHAPEN.keys())
    def test_apply_rejects_misshapen_vectors(self, b_shape, x_shape):
        gs = MulticolorGaussSeidel(laplace2d(9, 9))
        x = None if x_shape is None else np.zeros(x_shape)
        with pytest.raises(ValueError, match="must have shape"):
            gs.apply(np.ones(b_shape), x)


class TestAsPreconditioner:
    def test_accelerates_gmres(self, system):
        A, _, b = system
        plain = gmres(A, b, tol=1e-8, maxiter=800)
        gs = MulticolorGaussSeidel(A)
        pre = gmres(A, b, M=gs.as_preconditioner(), tol=1e-8, maxiter=800)
        assert pre.converged
        assert pre.iterations < plain.iterations

    def test_symmetric_variant_works_with_cg(self, system):
        A, _, b = system
        gs = MulticolorGaussSeidel(A, symmetric=True)
        result = pcg(A, b, M=gs.as_preconditioner(), tol=1e-10, maxiter=500)
        assert result.converged
