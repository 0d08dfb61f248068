"""Property tests: GraphService repair is bit-identical to full recompute.

The service's whole correctness story rests on one claim — after any
sequence of mutations, answering a repairable query by patching the cached
result yields *exactly* the array a from-scratch run would produce. These
tests pin that claim three ways:

1. the repair engine alone (``repair_mis2`` / ``repair_ordered_color``)
   against the serial references, for single random edge toggles;
2. the serial references against the real parallel kernel
   (``kk_mis2(priority_scheme="fixed")``), so "repairable semantics" and
   "what the kernels compute" provably coincide;
3. the full service — random mutation sequences, query-after-every-mutation,
   compared bit-for-bit against fresh kernel runs, with a second seed asked
   only at some epochs, so its answer repairs across several writes. Every
   cached frontier stays within the repair budget. Its ``aggregate`` must
   equal Algorithm 3 seeded with a from-scratch fixed-scheme MIS-2, whatever
   order the epoch's queries arrive in.

Beneath all three sits the graph each write leaves behind: the service
splices the touched CSR rows, and that splice must equal a from-scratch
build of the new edge set.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.coarsen.mis2_agg import mis2_aggregation
from repro.graph import from_edges
from repro.mis.kk import kk_mis2
from repro.service import (
    GraphService,
    mis_keys,
    ordered_color,
    repair_mis2,
    repair_ordered_color,
    serial_mis2_mask,
)
from tests.properties.strategies import graphs

COMMON = dict(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
SERVICE_COMMON = dict(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# --------------------------------------------------------------------------
# Layer 2: the serial references match the parallel kernel.
# --------------------------------------------------------------------------


@given(graph=graphs(), seed=st.integers(min_value=0, max_value=5))
@settings(**COMMON)
def test_serial_reference_matches_fixed_scheme_kernel(graph, seed):
    keys = mis_keys(graph.num_vertices, seed=seed)
    expected = kk_mis2(graph, priority_scheme="fixed", seed=seed).in_mask
    np.testing.assert_array_equal(serial_mis2_mask(graph, keys), expected)


@given(graph=graphs())
@settings(**COMMON)
def test_ordered_color_is_proper_and_greedy_minimal(graph):
    keys = mis_keys(graph.num_vertices, seed=0)
    colors = ordered_color(graph, keys)
    rowmap, entries = graph.rowmap, graph.entries
    for v in range(graph.num_vertices):
        nbrs = entries[rowmap[v]: rowmap[v + 1]]
        assert not np.any(colors[nbrs] == colors[v]), "improper coloring"
        # Greedy minimality: every smaller color is taken by a smaller-key
        # neighbour (otherwise the order-greedy rule would have used it).
        smaller = nbrs[keys[nbrs] < keys[v]]
        for c in range(int(colors[v])):
            assert c in set(colors[smaller].tolist())


# --------------------------------------------------------------------------
# Layer 1: the repair engine alone, for a single random edge toggle.
# --------------------------------------------------------------------------


def _closed_neighborhood(graph, vertices):
    rowmap, entries = graph.rowmap, graph.entries
    hops = [np.asarray(vertices, dtype=np.int64)] + [
        entries[rowmap[v]: rowmap[v + 1]] for v in vertices
    ]
    return np.unique(np.concatenate(hops)).astype(np.int64)


def _edge_set(graph):
    n = graph.num_vertices
    out = set()
    for v in range(n):
        for u in graph.entries[graph.rowmap[v]: graph.rowmap[v + 1]]:
            out.add((min(v, int(u)), max(v, int(u))))
    return out


@given(
    graph=graphs(max_vertices=14, max_extra_edges=30),
    u=st.integers(min_value=0, max_value=13),
    v=st.integers(min_value=0, max_value=13),
    seed=st.integers(min_value=0, max_value=3),
)
@settings(**COMMON)
def test_repair_engine_single_edge_toggle(graph, u, v, seed):
    n = graph.num_vertices
    if n < 2:
        return
    u, v = u % n, v % n
    if u == v:
        return
    edges = _edge_set(graph)
    toggled = (min(u, v), max(u, v))
    adding = toggled not in edges
    new_edges = edges | {toggled} if adding else edges - {toggled}
    new_graph = from_edges(n, sorted(new_edges))

    keys = mis_keys(n, seed=seed)
    prev_mask = serial_mis2_mask(graph, keys)
    # MIS dirty frontier: closed neighbourhood of the endpoints in whichever
    # graph still contains the toggled edge's paths.
    frontier_graph = new_graph if adding else graph
    dirty = _closed_neighborhood(frontier_graph, [u, v])
    repaired = repair_mis2(new_graph, keys, prev_mask, dirty)
    assert repaired is not None
    mask, touched = repaired
    np.testing.assert_array_equal(mask, serial_mis2_mask(new_graph, keys))
    assert touched >= dirty.size  # every seed is evaluated at least once

    ckeys = mis_keys(n, seed=0)
    prev_colors = ordered_color(graph, ckeys)
    re_colored = repair_ordered_color(
        new_graph, ckeys, prev_colors, np.array([u, v], dtype=np.int64)
    )
    assert re_colored is not None
    np.testing.assert_array_equal(re_colored[0], ordered_color(new_graph, ckeys))


@given(graph=graphs(max_vertices=14, max_extra_edges=30))
@settings(**COMMON)
def test_repair_budget_zero_forces_fallback_or_exact(graph):
    """A budget smaller than the frontier returns ``None``, never a wrong mask."""
    n = graph.num_vertices
    if n == 0:
        return
    keys = mis_keys(n, seed=0)
    prev = np.zeros(n, dtype=bool)  # deliberately wrong cached mask
    dirty = np.arange(n, dtype=np.int64)
    result = repair_mis2(graph, keys, prev, dirty, budget=0)
    assert result is None


@given(graph=graphs(max_vertices=14, max_extra_edges=30))
@settings(**COMMON)
def test_color_repair_budget_zero_forces_fallback(graph):
    """The coloring repair honours its budget the same way."""
    n = graph.num_vertices
    if n == 0:
        return
    keys = mis_keys(n, seed=0)
    prev = np.full(n, -1, dtype=np.int64)  # deliberately wrong cached colors
    dirty = np.arange(n, dtype=np.int64)
    assert repair_ordered_color(graph, keys, prev, dirty, budget=0) is None


# --------------------------------------------------------------------------
# Layer 3: the full service under random mutation sequences.
# --------------------------------------------------------------------------


@st.composite
def mutation_ops(draw, max_ops: int = 4):
    """Abstract mutation scripts; vertex ids resolve modulo the live count."""
    count = draw(st.integers(min_value=1, max_value=max_ops))
    ops = []
    for _ in range(count):
        kind = draw(
            st.sampled_from(
                ["add_edges", "remove_edges", "add_vertices", "remove_vertices"]
            )
        )
        if kind == "add_vertices":
            ops.append((kind, draw(st.integers(min_value=1, max_value=3))))
        elif kind == "remove_vertices":
            ops.append(
                (
                    kind,
                    draw(
                        st.lists(
                            st.integers(min_value=0, max_value=9999),
                            min_size=1,
                            max_size=2,
                        )
                    ),
                )
            )
        else:
            ops.append(
                (
                    kind,
                    draw(
                        st.lists(
                            st.tuples(
                                st.integers(min_value=0, max_value=9999),
                                st.integers(min_value=0, max_value=9999),
                            ),
                            min_size=1,
                            max_size=4,
                        )
                    ),
                )
            )
    return ops


def _apply(svc: GraphService, name: str, kind: str, payload) -> None:
    n = svc.graph(name).num_vertices
    if kind == "add_vertices":
        svc.add_vertices(name, payload)
    elif kind == "remove_vertices":
        if n == 0:
            return
        svc.remove_vertices(name, sorted({v % n for v in payload}))
    else:
        if n < 2:
            return
        getattr(svc, kind)(name, [(a % n, b % n) for a, b in payload])


def _check_against_scratch(svc: GraphService, name: str, *seeds: int) -> None:
    graph = svc.graph(name)
    for seed in seeds:
        mask = svc.mis2(name, seed=seed)
        expected = kk_mis2(graph, priority_scheme="fixed", seed=seed).in_mask
        np.testing.assert_array_equal(np.asarray(mask), expected)
    colors = svc.color(name)
    np.testing.assert_array_equal(
        np.asarray(colors), ordered_color(graph, mis_keys(graph.num_vertices, 0))
    )


def _budget_without_floor(svc: GraphService, num_vertices: int) -> int:
    """``GraphService._budget`` without its floor of 32 vertices, which every
    graph these strategies draw stays below."""
    return int(svc._crossover * num_vertices)


def _check_frontiers(svc: GraphService, name: str) -> None:
    """Every cached frontier holds at most the repair budget."""
    budget = svc._budget(svc.graph(name).num_vertices)
    for cached in svc._entry(name).caches.values():
        assert cached.dirty is None or cached.dirty.size <= budget


@given(
    graph=graphs(max_vertices=16, max_extra_edges=30),
    ops=mutation_ops(),
    seed=st.integers(min_value=0, max_value=2),
    other=st.integers(min_value=3, max_value=5),
    crossover=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    data=st.data(),
)
@settings(**SERVICE_COMMON)
def test_service_repair_bit_identical_across_mutations(
    graph, ops, seed, other, crossover, data
):
    # Without the floor a write's frontier can outgrow these small graphs'
    # budget, so the frontier check can fail.
    with mock.patch.object(GraphService, "_budget", _budget_without_floor), GraphService(
        repair_crossover=crossover
    ) as svc:
        svc.add_graph("g", graph)
        _check_against_scratch(svc, "g", seed, other)  # seed the caches
        for kind, payload in ops:
            _apply(svc, "g", kind, payload)
            _check_frontiers(svc, "g")
            # The second seed's answer, skipped at some epochs, repairs
            # across every write since it was last asked.
            if data.draw(st.booleans()):
                _check_against_scratch(svc, "g", seed, other)
            else:
                _check_against_scratch(svc, "g", seed)
        # Whatever mix of repair / fallback / structural recompute ran, the
        # books must balance: every query was either a hit, a repair, or a
        # full recompute.
        stats = svc.stats
        assert (
            stats.cache_hits + stats.repairs + stats.full_recomputes
            == stats.queries - stats.coalesced
        )


def _check_epoch_in_order(svc: GraphService, name: str, seed: int, kinds) -> None:
    """Ask the epoch's three queries in ``kinds`` order; the aggregate must
    equal Algorithm 3 seeded with a from-scratch fixed-scheme MIS-2, be
    complete, and have the ``mis2`` answer's vertices as its phase-1 roots."""
    graph = svc.graph(name)
    answers = {
        "mis2": lambda: svc.mis2(name, seed=seed),
        "color": lambda: svc.color(name),
        "aggregate": lambda: svc.aggregate(name, seed=seed),
    }
    got = {kind: answers[kind]() for kind in kinds}
    mis = kk_mis2(graph, priority_scheme="fixed", seed=seed)
    expected = mis2_aggregation(graph, mis=mis)
    agg = got["aggregate"]
    np.testing.assert_array_equal(agg.labels, expected.labels)
    np.testing.assert_array_equal(agg.roots, expected.roots)
    assert agg.num_aggregates == expected.num_aggregates
    assert agg.is_complete()
    roots = np.flatnonzero(got["mis2"])
    np.testing.assert_array_equal(agg.roots[: roots.size], roots)
    np.testing.assert_array_equal(np.asarray(got["mis2"]), mis.in_mask)


@given(
    graph=graphs(max_vertices=16, max_extra_edges=30),
    ops=mutation_ops(),
    seed=st.integers(min_value=0, max_value=2),
    data=st.data(),
)
@settings(**SERVICE_COMMON)
def test_service_aggregate_is_seeded_by_the_epochs_mis2(graph, ops, seed, data):
    orders = st.permutations(["mis2", "color", "aggregate"])
    hits = 0
    with GraphService(repair_crossover=1.0) as svc:
        svc.add_graph("g", graph)
        epoch = None
        for kind, payload in [(None, None)] + ops:
            if kind is not None:
                _apply(svc, "g", kind, payload)
            kinds = data.draw(orders)
            if svc.epoch("g") == epoch:
                hits += 3
            elif kinds.index("aggregate") < kinds.index("mis2"):
                hits += 1  # the aggregate filled the epoch's mis2 cache
            epoch = svc.epoch("g")
            _check_epoch_in_order(svc, "g", seed, kinds)
        # The aggregate's own MIS-2 lookup is neither a query nor a hit.
        stats = svc.stats_snapshot()
        assert stats["queries"] == 3 * (1 + len(ops))
        assert stats["cache_hits"] == hits


@given(graph=graphs(max_vertices=16, max_extra_edges=30), ops=mutation_ops())
@settings(**SERVICE_COMMON)
def test_service_crossover_zero_still_bit_identical(graph, ops):
    """With a zero budget every repair falls back — results hold."""
    with mock.patch.object(GraphService, "_budget", _budget_without_floor), GraphService(
        repair_crossover=0.0
    ) as svc:
        svc.add_graph("g", graph)
        _check_against_scratch(svc, "g", 0)
        for kind, payload in ops:
            before = svc.stats_snapshot()
            _apply(svc, "g", kind, payload)
            _check_frontiers(svc, "g")
            after = svc.stats_snapshot()
            _check_against_scratch(svc, "g", 0)
            if (
                after["mutations"] > before["mutations"]
                and after["structural_mutations"] == before["structural_mutations"]
            ):
                # The write outgrew both cached answers' frontiers: mis2 and
                # color each fall back once.
                fallbacks = svc.stats_snapshot()["repair_fallbacks"]
                assert fallbacks - after["repair_fallbacks"] == 2


# --------------------------------------------------------------------------
# The write path: a spliced graph equals a rebuild of its edge set.
# --------------------------------------------------------------------------


@st.composite
def edge_batches(draw, n: int, present):
    """A write batch on ``n`` vertices mixing random pairs, self-loops and
    edges already present, each possibly reversed, with repeats."""
    vertex = st.integers(min_value=0, max_value=n - 1)
    pairs = [st.tuples(vertex, vertex), vertex.map(lambda v: (v, v))]
    if present:
        pairs.append(st.sampled_from(sorted(present)))
    oriented = st.tuples(st.one_of(pairs), st.booleans()).map(
        lambda pair_flip: pair_flip[0][::-1] if pair_flip[1] else pair_flip[0]
    )
    batch = draw(st.lists(oriented, max_size=10))
    if batch:
        batch += draw(st.lists(st.sampled_from(batch), max_size=3))
    return batch


@given(graph=graphs(max_vertices=16, max_extra_edges=30), data=st.data())
@settings(**COMMON)
def test_spliced_writes_equal_a_rebuild_of_the_edge_set(graph, data):
    n = graph.num_vertices
    assume(n > 0)
    edges = _edge_set(graph)
    with GraphService() as svc:
        svc.add_graph("g", graph)
        for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
            insert = data.draw(st.booleans())
            batch = data.draw(edge_batches(n, edges))
            named = {(min(u, v), max(u, v)) for u, v in batch if u != v}
            if insert:
                changed, edges = named - edges, edges | named
                assert svc.add_edges("g", batch) == len(changed)
            else:
                changed, edges = named & edges, edges - named
                assert svc.remove_edges("g", batch) == len(changed)
            assert svc.graph("g") == from_edges(n, sorted(edges))
