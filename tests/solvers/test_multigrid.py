"""Tests for the SA-AMG hierarchy and V-cycle (the Table V substrate)."""

import numpy as np
import pytest

from repro.coarsen import mis2_aggregation, mis2_basic_aggregation, serial_aggregation
from repro.graph import laplace3d_matrix
from repro.solvers import build_hierarchy, pcg
from tests.solvers.test_krylov import _pcg_reference
from tests.solvers.test_smoothers import _jacobi_reference, _traced_peak


@pytest.fixture(scope="module")
def laplace_system():
    A = laplace3d_matrix(12, 12, 12)
    b = np.ones(A.shape[0])
    return A, b


@pytest.fixture(scope="module")
def hierarchy(laplace_system):
    A, _ = laplace_system
    return build_hierarchy(A)


def _vcycle_reference(hierarchy, b, x=None, level=0):
    """The allocating V-cycle: every residual, correction and smoothed iterate is a
    new array; the transfers are the hierarchy's own ``R`` and ``P``."""
    lvl = hierarchy.levels[level]
    b = np.asarray(b, dtype=np.float64)
    if level == hierarchy.num_levels - 1:
        return hierarchy.coarse_solver.solve(b)
    x = np.zeros_like(b) if x is None else np.asarray(x, dtype=np.float64)
    x = _jacobi_reference(lvl.smoother, b, x)
    residual = b - lvl.A @ x
    coarse_x = _vcycle_reference(hierarchy, lvl.R @ residual, None, level + 1)
    x = x + lvl.P @ coarse_x
    return _jacobi_reference(lvl.smoother, b, x)


class TestHierarchySetup:
    def test_levels_shrink(self, laplace_system):
        A, _ = laplace_system
        h = build_hierarchy(A, max_levels=5, min_coarse_size=40)
        sizes = h.level_sizes()
        assert sizes[0] == A.shape[0]
        assert all(a > b for a, b in zip(sizes, sizes[1:]))
        assert sizes[-1] <= 40 or h.num_levels == 5

    def test_transfer_operator_shapes(self, laplace_system):
        A, _ = laplace_system
        h = build_hierarchy(A)
        for fine, coarse in zip(h.levels, h.levels[1:]):
            assert fine.P.shape == (fine.A.shape[0], coarse.A.shape[0])
            assert fine.R.shape == (coarse.A.shape[0], fine.A.shape[0])

    def test_operator_complexity_reasonable(self, laplace_system):
        A, _ = laplace_system
        h = build_hierarchy(A)
        assert 1.0 < h.operator_complexity() < 3.0

    def test_aggregation_time_recorded(self, laplace_system):
        A, _ = laplace_system
        h = build_hierarchy(A)
        assert 0 < h.aggregation_seconds <= h.setup_seconds

    def test_max_levels_respected(self, laplace_system):
        A, _ = laplace_system
        h = build_hierarchy(A, max_levels=2, min_coarse_size=2)
        assert h.num_levels <= 2

    def test_aggregation_name_recorded(self, laplace_system):
        A, _ = laplace_system
        h = build_hierarchy(A, aggregation_fn=mis2_basic_aggregation, aggregation_name="MIS2 Basic")
        assert h.aggregation_name == "MIS2 Basic"

    def test_prolongation_is_a_view_of_the_restriction(self, hierarchy):
        # One transfer operator per level: P is R.T in CSC, over R's own arrays.
        for level in hierarchy.levels[:-1]:
            assert level.P.format == "csc"
            for name in ("data", "indices", "indptr"):
                p_array, r_array = getattr(level.P, name), getattr(level.R, name)
                assert np.shares_memory(p_array, r_array)
                assert np.array_equal(p_array, r_array)

    @pytest.mark.parametrize("sweeps", [0, -1])
    def test_smoother_sweeps_below_one_rejected(self, laplace_system, sweeps):
        # Zero sweeps once built a V-cycle with no smoothing.
        A, _ = laplace_system
        with pytest.raises(ValueError, match="sweeps"):
            build_hierarchy(A, smoother_sweeps=sweeps)


class TestVCycleSolve:
    def test_vcycle_reduces_residual(self, laplace_system):
        A, b = laplace_system
        h = build_hierarchy(A)
        x = h.vcycle(b)
        assert np.linalg.norm(b - A @ x) < np.linalg.norm(b)

    def test_preconditioned_cg_converges_fast(self, laplace_system):
        A, b = laplace_system
        h = build_hierarchy(A)
        result = h.solve(b, tol=1e-10)
        assert result.converged
        assert result.iterations < 30
        assert np.allclose(A @ result.x, b, atol=1e-6)

    def test_amg_beats_unpreconditioned_cg(self, laplace_system):
        A, b = laplace_system
        h = build_hierarchy(A)
        amg = h.solve(b, tol=1e-10)
        plain = pcg(A, b, tol=1e-10, maxiter=2000)
        assert amg.iterations < plain.iterations

    def test_solve_records_timings(self, laplace_system):
        A, b = laplace_system
        h = build_hierarchy(A)
        result = h.solve(b, tol=1e-8)
        assert result.solve_seconds > 0
        assert result.setup_seconds == h.setup_seconds


class TestInPlaceSolveMatchesReferences:
    @pytest.mark.parametrize("start", ["zero", "given"])
    def test_vcycle_matches_allocating_reference(self, hierarchy, start):
        n = hierarchy.levels[0].A.shape[0]
        rng = np.random.default_rng(11)
        b = rng.standard_normal(n)
        x = None if start == "zero" else rng.standard_normal(n)
        b_before = b.copy()
        x_before = None if x is None else x.copy()
        assert np.array_equal(hierarchy.vcycle(b, x), _vcycle_reference(hierarchy, b, x))
        assert np.array_equal(b, b_before)
        assert x is None or np.array_equal(x, x_before)

    @pytest.mark.parametrize("start", ["zero", "given"])
    def test_solve_matches_reference_pcg(self, laplace_system, hierarchy, start):
        A, _ = laplace_system
        rng = np.random.default_rng(12)
        b = rng.standard_normal(A.shape[0])
        x0 = None if start == "zero" else rng.standard_normal(A.shape[0])
        result = hierarchy.solve(b, tol=1e-12, x0=x0)
        x, iterations, converged, residuals = _pcg_reference(
            A, b, lambda r: _vcycle_reference(hierarchy, r), x0, tol=1e-12, maxiter=500
        )
        assert result.converged and converged
        assert result.iterations == iterations
        assert result.residual_norms == residuals
        assert np.array_equal(result.x, x)

    @pytest.mark.parametrize("b_shape, x_shape", [
        ((1729,), None), ((1727,), None), ((1728, 1), None), ((1728,), (1729,)), ((1728,), (1728, 1)),
    ], ids=["long_b", "short_b", "2d_b", "long_x", "2d_x"])
    def test_vcycle_rejects_misshapen_vectors(self, hierarchy, b_shape, x_shape):
        x = None if x_shape is None else np.zeros(x_shape)
        with pytest.raises(ValueError, match="must have shape"):
            hierarchy.vcycle(np.ones(b_shape), x)

    def test_column_rhs_rejected_before_any_arithmetic(self):
        # A (n, 1) right-hand side once made an n x n temporary in the first
        # smoothing sweep before anything raised.
        A = laplace3d_matrix(6, 6, 6)
        n = A.shape[0]
        h = build_hierarchy(A, min_coarse_size=8)
        assert h.num_levels >= 2
        b = np.ones((n, 1))
        assert _traced_peak(lambda: h.vcycle(b)) < 4 * n * 8


class TestAggregationSchemesInsideAMG:
    @pytest.mark.parametrize(
        "fn", [mis2_aggregation, mis2_basic_aggregation, serial_aggregation],
        ids=["mis2_agg", "mis2_basic", "serial"],
    )
    def test_all_schemes_converge(self, laplace_system, fn):
        A, b = laplace_system
        h = build_hierarchy(A, aggregation_fn=fn)
        result = h.solve(b, tol=1e-10)
        assert result.converged

    def test_algorithm3_converges_at_least_as_fast_as_algorithm2(self, laplace_system):
        # The headline of Table V: MIS2 Agg needs fewer CG iterations than MIS2 Basic.
        A, b = laplace_system
        agg3 = build_hierarchy(A, aggregation_fn=mis2_aggregation).solve(b, tol=1e-10)
        agg2 = build_hierarchy(A, aggregation_fn=mis2_basic_aggregation).solve(b, tol=1e-10)
        assert agg3.iterations <= agg2.iterations
