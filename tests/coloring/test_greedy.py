"""Tests for the speculative parallel greedy distance-1 coloring."""

import numpy as np
import pytest

from repro.coloring import color_class_sizes, greedy_color, is_valid_coloring, num_colors
from repro.graph import (
    complete_graph,
    cycle_graph,
    empty_graph,
    grid2d,
    path_graph,
    star_graph,
)


class TestCorrectness:
    def test_valid_on_every_small_graph(self, any_small_graph):
        result = greedy_color(any_small_graph)
        assert is_valid_coloring(any_small_graph, result.colors, distance=1)

    def test_all_vertices_colored(self, nonempty_small_graph):
        result = greedy_color(nonempty_small_graph)
        assert np.all(result.colors >= 0)
        assert result.colors.size == nonempty_small_graph.num_vertices

    def test_color_count_bounded_by_degree_plus_one(self, nonempty_small_graph):
        result = greedy_color(nonempty_small_graph)
        assert result.num_colors <= nonempty_small_graph.max_degree() + 1

    def test_empty_graph(self):
        result = greedy_color(empty_graph(0))
        assert result.num_colors == 0
        assert result.colors.size == 0

    def test_isolated_vertices_single_color(self):
        result = greedy_color(empty_graph(7))
        assert result.num_colors == 1

    def test_bipartite_grid_uses_few_colors(self):
        result = greedy_color(grid2d(10, 10))
        assert result.num_colors <= 4

    def test_complete_graph_needs_n_colors(self):
        result = greedy_color(complete_graph(6))
        assert result.num_colors == 6

    def test_star_two_colors(self):
        result = greedy_color(star_graph(9))
        assert result.num_colors == 2

    def test_colors_are_dense(self, nonempty_small_graph):
        result = greedy_color(nonempty_small_graph)
        used = np.unique(result.colors)
        assert used.tolist() == list(range(result.num_colors))

    def test_max_rounds_caps_the_conflict_loop(self):
        # A cap of exactly the rounds the coloring needs lets it finish; one
        # round less raises instead of returning an incomplete coloring.
        g = grid2d(30, 30)
        result = greedy_color(g)
        assert result.rounds > 1
        capped = greedy_color(g, max_rounds=result.rounds)
        assert np.array_equal(capped.colors, result.colors)
        assert capped.rounds == result.rounds
        with pytest.raises(RuntimeError, match="did not converge"):
            greedy_color(g, max_rounds=result.rounds - 1)


class TestResultObject:
    def test_color_classes_partition_vertices(self, small_laplace3d):
        result = greedy_color(small_laplace3d)
        classes = result.color_classes()
        assert len(classes) == result.num_colors
        combined = np.sort(np.concatenate(classes))
        assert np.array_equal(combined, np.arange(small_laplace3d.num_vertices))

    def test_num_colors_helper(self):
        assert num_colors(np.array([0, 1, 1, 2])) == 3
        assert num_colors(np.array([], dtype=np.int64)) == 0

    def test_color_class_sizes_helper(self):
        sizes = color_class_sizes(np.array([0, 0, 1, 2, 2, 2]))
        assert sizes == {0: 2, 1: 1, 2: 3}

    def test_deterministic(self, small_laplace3d):
        a = greedy_color(small_laplace3d)
        b = greedy_color(small_laplace3d)
        assert np.array_equal(a.colors, b.colors)
