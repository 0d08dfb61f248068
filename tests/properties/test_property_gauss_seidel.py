"""Property: point and cluster multicolor Gauss-Seidel sweep exactly in their
sequential row-by-row order, bit for bit, on random sparse matrices."""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gs import ClusterMulticolorGaussSeidel, MulticolorGaussSeidel
from tests.gs.test_cluster import _sequential_sweeps
from tests.gs.test_multicolor import _color_ordered_sweeps
from tests.properties.strategies import graphs


@st.composite
def matrices(draw):
    """A random graph's pattern with random off-diagonal values, up to three entries
    stored on one side only, and a positive diagonal; each row's entries are stored
    in a random order."""
    graph = draw(graphs())
    n = graph.num_vertices
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    one_sided = []
    if n > 1:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        one_sided = [(i, j) for i, j in draw(st.lists(pairs, max_size=3)) if i != j]
    rows = np.concatenate([
        np.repeat(np.arange(n), np.diff(graph.rowmap)),
        np.array([i for i, _ in one_sided], dtype=np.int64),
        np.arange(n),
    ])
    cols = np.concatenate([
        np.asarray(graph.entries, dtype=np.int64),
        np.array([j for _, j in one_sided], dtype=np.int64),
        np.arange(n),
    ])
    values = rng.uniform(-1.0, 1.0, rows.size)
    values[rows.size - n:] = rng.uniform(1.0, 4.0, n)
    A = sp.csr_matrix((values, (rows, cols)), shape=(n, n))
    shuffle = np.lexsort((rng.random(A.nnz), np.repeat(np.arange(n), np.diff(A.indptr))))
    return sp.csr_matrix((A.data[shuffle], A.indices[shuffle], A.indptr), shape=(n, n)), rng


@settings(max_examples=100, deadline=None)
@given(matrices(), st.sampled_from([1, 2]), st.booleans())
def test_multicolor_sweeps_equal_their_sequential_references(system, sweeps, symmetric):
    A, rng = system
    n = A.shape[0]
    b = rng.standard_normal(n)
    x = rng.standard_normal(n)
    point = MulticolorGaussSeidel(A, sweeps=sweeps, symmetric=symmetric)
    expected = _color_ordered_sweeps(A, point, b, x.copy(), sweeps, symmetric)
    assert np.array_equal(point.apply(b, x), expected)
    cluster = ClusterMulticolorGaussSeidel(A, sweeps=sweeps, symmetric=symmetric)
    expected = _sequential_sweeps(A, cluster, b, x.copy(), sweeps, symmetric)
    assert np.array_equal(cluster.apply(b, x), expected)
