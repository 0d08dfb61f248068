"""Tests for graph builders and converters."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graph import (
    from_dense,
    from_edges,
    from_networkx,
    from_scipy,
    remove_self_loops,
    symmetrize,
    to_scipy,
)


class TestFromEdges:
    def test_basic(self):
        g = from_edges(3, [(0, 1), (1, 2)])
        assert g.num_vertices == 3
        assert g.has_edge(0, 1) and g.has_edge(1, 0)

    def test_empty_edges(self):
        g = from_edges(5, [])
        assert g.num_vertices == 5
        assert g.num_edge_slots == 0

    def test_duplicates_collapsed(self):
        g = from_edges(3, [(0, 1), (0, 1), (1, 0)])
        assert g.num_edge_slots == 2

    def test_self_loops_dropped_by_default(self):
        g = from_edges(3, [(0, 0), (0, 1)])
        assert not g.has_self_loops()
        g2 = from_edges(3, [(0, 0), (0, 1)], allow_self_loops=True)
        assert g2.has_self_loops()

    def test_asymmetric_storage(self):
        g = from_edges(3, [(0, 1)], symmetric=False)
        assert g.neighbors(0).tolist() == [1]
        assert g.neighbors(1).tolist() == []

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            from_edges(2, [(0, 5)])

    def test_rejects_bad_shape(self):
        for edges in ([(0, 1, 2)], np.array([[0, 1, 2]]), np.array([0, 1])):
            with pytest.raises(ValueError):
                from_edges(3, edges)

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_array_input_matches_list_input(self, symmetric):
        edges = [(0, 1), (3, 1), (2, 2), (1, 0), (4, 3), (3, 1)]
        array = np.array(edges, dtype=np.int32)
        assert from_edges(5, array, symmetric=symmetric) == from_edges(
            5, edges, symmetric=symmetric
        )
        assert array.tolist() == [list(e) for e in edges]  # input left as is
        with pytest.raises(ValueError):
            from_edges(4, array)  # endpoint 4 is out of range


class TestScipyConversions:
    def test_from_scipy_symmetrizes_pattern(self):
        A = sp.csr_matrix(np.array([[0, 1, 0], [0, 0, 0], [0, 2, 0]], dtype=float))
        g = from_scipy(A)
        assert g.is_symmetric()
        assert g.has_edge(0, 1) and g.has_edge(1, 2)

    def test_from_scipy_drops_diagonal(self):
        A = sp.identity(4, format="csr") + sp.diags([1.0], offsets=[1], shape=(4, 4))
        g = from_scipy(A)
        assert not g.has_self_loops()

    def test_from_scipy_rejects_rectangular(self):
        with pytest.raises(ValueError):
            from_scipy(sp.csr_matrix(np.ones((2, 3))))

    def test_roundtrip_to_scipy(self):
        g = from_edges(4, [(0, 1), (2, 3), (1, 2)])
        A = to_scipy(g)
        g2 = from_scipy(A)
        assert g == g2

    def test_from_dense(self):
        dense = np.array([[0, 1], [1, 0]])
        g = from_dense(dense)
        assert g.num_edge_slots == 2
        with pytest.raises(ValueError):
            from_dense(np.ones((2, 3)))


class TestNetworkx:
    def test_from_networkx(self):
        nx = pytest.importorskip("networkx")
        gnx = nx.path_graph(5)
        g = from_networkx(gnx)
        assert g.num_vertices == 5
        assert g.num_edges == 4


class TestSymmetrizeAndLoops:
    def test_symmetrize(self):
        g = from_edges(3, [(0, 1), (1, 2)], symmetric=False)
        s = symmetrize(g)
        assert s.is_symmetric()
        assert s.has_edge(1, 0)

    def test_remove_self_loops_no_loops_is_copy(self):
        g = from_edges(3, [(0, 1)])
        h = remove_self_loops(g)
        assert h == g

    def test_remove_self_loops(self):
        g = from_edges(3, [(0, 0), (0, 1)], allow_self_loops=True)
        h = remove_self_loops(g)
        assert not h.has_self_loops()
        assert h.has_edge(0, 1)
