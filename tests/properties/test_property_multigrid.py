"""Property: the in-place Jacobi smoother, V-cycle and PCG equal their allocating
references bit for bit on random SPD matrices, and leave their inputs unchanged."""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solvers import build_hierarchy
from tests.properties.strategies import graphs
from tests.solvers.test_krylov import _pcg_reference
from tests.solvers.test_multigrid import _vcycle_reference
from tests.solvers.test_smoothers import _jacobi_reference


@st.composite
def spd_matrices(draw):
    """A random graph's pattern with random symmetric off-diagonal values and a
    strictly dominant positive diagonal; each row's entries are stored in a random
    order."""
    graph = draw(graphs())
    n = graph.num_vertices
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = np.repeat(np.arange(n), np.diff(graph.rowmap))
    cols = np.asarray(graph.entries, dtype=np.int64)
    upper = rows < cols
    values = rng.uniform(-1.0, 1.0, int(upper.sum()))
    off = sp.csr_matrix(
        (np.concatenate([values, values]),
         (np.concatenate([rows[upper], cols[upper]]), np.concatenate([cols[upper], rows[upper]]))),
        shape=(n, n),
    )
    diag = np.asarray(abs(off).sum(axis=1)).ravel() + rng.uniform(0.5, 2.0, n)
    A = sp.csr_matrix(off + sp.diags(diag))
    shuffle = np.lexsort((rng.random(A.nnz), np.repeat(np.arange(n), np.diff(A.indptr))))
    return sp.csr_matrix((A.data[shuffle], A.indices[shuffle], A.indptr), shape=(n, n)), rng


@settings(max_examples=60, deadline=None)
@given(spd_matrices(), st.sampled_from([1, 2, 3]))
def test_in_place_solve_equals_allocating_references(system, sweeps):
    A, rng = system
    n = A.shape[0]
    h = build_hierarchy(A, min_coarse_size=1, smoother_sweeps=sweeps)
    b = rng.standard_normal(n)
    x = rng.standard_normal(n)
    b_before, x_before = b.copy(), x.copy()

    assert np.array_equal(h.vcycle(b), _vcycle_reference(h, b))
    assert np.array_equal(h.vcycle(b, x), _vcycle_reference(h, b, x))
    fine = h.levels[0].smoother
    if fine is not None:
        assert np.array_equal(fine.apply(b), _jacobi_reference(fine, b))
        assert np.array_equal(fine.apply(b, x), _jacobi_reference(fine, b, x))
    assert np.array_equal(b, b_before) and np.array_equal(x, x_before)

    result = h.solve(b, tol=1e-10, maxiter=50)
    ref_x, iterations, converged, residuals = _pcg_reference(
        A, b, lambda r: _vcycle_reference(h, r), tol=1e-10, maxiter=50
    )
    assert (result.iterations, result.converged) == (iterations, converged)
    assert result.residual_norms == residuals
    assert np.array_equal(result.x, ref_x)
