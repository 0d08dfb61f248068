"""Tests for the CSRGraph container."""

import numpy as np
import pytest

from repro.graph import CSRGraph, from_edges, path_graph, star_graph


class TestConstruction:
    def test_basic_construction(self):
        g = CSRGraph(np.array([0, 1, 3, 4]), np.array([1, 0, 2, 1]))
        assert g.num_vertices == 3
        assert g.num_edge_slots == 4
        assert g.degree(1) == 2

    def test_empty_graph(self):
        g = CSRGraph.empty(4)
        assert g.num_vertices == 4
        assert g.num_edge_slots == 0
        assert g.degrees().tolist() == [0, 0, 0, 0]

    def test_zero_vertex_graph(self):
        g = CSRGraph.empty(0)
        assert g.num_vertices == 0
        assert g.average_degree() == 0.0
        assert g.max_degree() == 0

    def test_rejects_bad_rowmap_start(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([1, 2]), np.array([0]))

    def test_rejects_rowmap_entries_mismatch(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 2]), np.array([0]))

    def test_rejects_decreasing_rowmap(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 2, 1, 3]), np.array([0, 1, 2]))

    def test_rejects_out_of_range_entries(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 1]), np.array([5]))

    def test_rejects_float_arrays(self):
        with pytest.raises(TypeError):
            CSRGraph(np.array([0.0, 1.0]), np.array([0]))

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(ValueError):
            CSRGraph.empty(-1)

    def test_arrays_are_read_only(self):
        g = path_graph(4)
        with pytest.raises(ValueError):
            g.rowmap[0] = 7
        with pytest.raises(ValueError):
            g.entries[0] = 3

    @pytest.mark.parametrize("how", ["pickle", "deepcopy", "copy"])
    def test_round_trip_stays_read_only_and_equal(self, how):
        # Regression: pickles (every bench pool worker) and copies came
        # back with writable arrays. They also leave the stored layouts behind.
        import copy
        import pickle

        from repro.parallel import build_partition_layout

        g = path_graph(5)
        build_partition_layout(g, 2)
        clone = {
            "pickle": lambda: pickle.loads(pickle.dumps(g)),
            "deepcopy": lambda: copy.deepcopy(g),
            "copy": lambda: copy.copy(g),
        }[how]()
        assert clone == g and clone is not g
        assert clone.rowmap.dtype == np.int64 and clone.entries.dtype == np.int32
        assert not clone.rowmap.flags.writeable
        assert not clone.entries.flags.writeable
        assert clone._layouts == {} and 2 in g._layouts


class TestAccessors:
    def test_neighbors(self):
        g = from_edges(4, [(0, 1), (1, 2), (1, 3)])
        assert sorted(g.neighbors(1).tolist()) == [0, 2, 3]
        assert g.neighbors(0).tolist() == [1]

    def test_neighbors_out_of_range(self):
        g = path_graph(3)
        with pytest.raises(IndexError):
            g.neighbors(5)
        with pytest.raises(IndexError):
            g.degree(-1)

    def test_has_edge(self):
        g = path_graph(4)
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 0)
        assert not g.has_edge(0, 2)

    def test_degrees_and_average(self):
        g = star_graph(5)
        assert g.degree(0) == 5
        assert g.max_degree() == 5
        assert g.average_degree() == pytest.approx(10 / 6)

    def test_num_edges_counts_undirected(self):
        g = path_graph(5)
        assert g.num_edges == 4
        assert g.num_edge_slots == 8

    def test_iter_edges_and_edge_array(self):
        g = from_edges(4, [(0, 1), (2, 3), (1, 2)])
        edges = sorted(g.iter_edges())
        assert edges == [(0, 1), (1, 2), (2, 3)]
        arr = g.edge_array()
        assert sorted(map(tuple, arr.tolist())) == edges


class TestProperties:
    def test_symmetry_check(self):
        g = path_graph(4)
        assert g.is_symmetric()
        asym = CSRGraph(np.array([0, 1, 1]), np.array([1]))
        assert not asym.is_symmetric()

    def test_self_loop_detection(self):
        g = path_graph(3)
        assert not g.has_self_loops()
        loop = CSRGraph(np.array([0, 1, 1]), np.array([0]))
        assert loop.has_self_loops()

    def test_equality_and_hash(self):
        a = path_graph(5)
        b = path_graph(5)
        c = path_graph(6)
        assert a == b
        assert hash(a) == hash(b)
        assert a != c
        assert a != "not a graph"

    def test_copy_is_independent_and_equal(self):
        g = path_graph(4)
        h = g.copy()
        assert g == h
        assert g is not h

    def test_memory_bytes(self):
        g = path_graph(10)
        expected = 8 * 11 + 4 * 18
        assert g.memory_bytes() == expected

    def test_repr_contains_counts(self):
        text = repr(path_graph(3))
        assert "num_vertices=3" in text
