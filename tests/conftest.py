"""Shared fixtures for the test-suite.

Graphs used across many test modules are defined once here. They are intentionally
small: the algorithms are verified against brute-force BFS-based checks, so keeping
the fixtures small keeps the whole suite fast while still covering the interesting
structure (paths, cycles, stars, grids, stencils, random graphs, disconnected graphs,
graphs with isolated vertices).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

# Hypothesis profiles: CI runs fully derandomized so every pipeline execution
# explores the same example sequence (reproducible pass/fail); local runs keep
# the default randomized exploration. Select explicitly with
# HYPOTHESIS_PROFILE=ci|default. Hypothesis stays an optional test dependency —
# without it the property suites fail to import but everything else runs.
try:
    from hypothesis import settings as _hypothesis_settings
except ImportError:  # pragma: no cover - exercised only in minimal environments
    _hypothesis_settings = None
if _hypothesis_settings is not None:
    _hypothesis_settings.register_profile("ci", derandomize=True, print_blob=True)
    _hypothesis_settings.load_profile(
        os.environ.get("HYPOTHESIS_PROFILE", "ci" if os.environ.get("CI") else "default")
    )

from repro.graph import (
    CSRGraph,
    complete_graph,
    cycle_graph,
    elasticity3d,
    empty_graph,
    from_edges,
    grid2d,
    laplace2d,
    laplace3d,
    laplace3d_matrix,
    paper_example_graph,
    path_graph,
    random_gnp,
    random_regular,
    star_graph,
)

__all__ = []


@pytest.fixture
def fig1_graph() -> CSRGraph:
    """The 6-vertex worked-example graph of the paper's Fig. 1."""
    return paper_example_graph()


@pytest.fixture
def small_laplace3d() -> CSRGraph:
    """A 10x10x10 7-point-stencil graph (1000 vertices)."""
    return laplace3d(10, 10, 10)


@pytest.fixture
def small_laplace3d_matrix():
    """The 10x10x10 Laplace matrix matching :func:`small_laplace3d`."""
    return laplace3d_matrix(10, 10, 10)


@pytest.fixture
def medium_laplace3d() -> CSRGraph:
    """A 14x14x14 7-point-stencil graph used by the solver tests."""
    return laplace3d(14, 14, 14)


@pytest.fixture
def small_elasticity() -> CSRGraph:
    """A small 27-point-stencil, 3-dof elasticity graph."""
    return elasticity3d(5, 5, 5)


@pytest.fixture
def random_graph() -> CSRGraph:
    """A deterministic Erdős–Rényi graph with 120 vertices."""
    return random_gnp(120, 0.05, seed=3)


@pytest.fixture
def disconnected_graph() -> CSRGraph:
    """Two components plus two isolated vertices."""
    edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6)]
    return from_edges(9, edges)


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running test (excluded from quick runs)")


#: Collection of named small graphs exercised by parametrised structural tests.
SMALL_GRAPH_CASES = {
    "empty": empty_graph(0),
    "single_vertex": empty_graph(1),
    "isolated_vertices": empty_graph(5),
    "single_edge": path_graph(2),
    "path10": path_graph(10),
    "cycle9": cycle_graph(9),
    "star8": star_graph(8),
    "complete6": complete_graph(6),
    "grid5x7": grid2d(5, 7),
    "fig1": paper_example_graph(),
    "gnp60": random_gnp(60, 0.08, seed=1),
    "regular48": random_regular(48, 4, seed=2),
    "disconnected": from_edges(9, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6)]),
}


@pytest.fixture(params=sorted(SMALL_GRAPH_CASES), ids=sorted(SMALL_GRAPH_CASES))
def any_small_graph(request) -> CSRGraph:
    """Parametrised fixture iterating over all named small graphs."""
    return SMALL_GRAPH_CASES[request.param]


@pytest.fixture(
    params=[name for name, g in sorted(SMALL_GRAPH_CASES.items()) if g.num_vertices > 0],
    ids=[name for name, g in sorted(SMALL_GRAPH_CASES.items()) if g.num_vertices > 0],
)
def nonempty_small_graph(request) -> CSRGraph:
    """Parametrised fixture over the non-empty named small graphs."""
    return SMALL_GRAPH_CASES[request.param]


#: Invalid worker/rank counts and the error each one names: a bool or a
#: non-integer is refused at construction, before any pool or rank starts.
INVALID_COUNTS = [
    (0, ">= 1"),
    (2.5, "an integer, got 2.5"),
    (2.0, "an integer, got 2.0"),
    (True, "an integer, got True"),
    ("2", "an integer, got '2'"),
]
