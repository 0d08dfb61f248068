"""Backend-equivalence suite: the paper's determinism guarantee, enforced.

A flat call runs one NumPy path whatever the backend; a backend picks only
where the parts of a partitioned call run. Every partitioned kernel (kk
MIS-2, greedy coloring, MIS-2 aggregation) must produce results
*bit-identical* to the flat reference on every registered execution
backend's session (numpy, distributed), on a four-rank distributed
session and on the distributed ranks a benchmark pool worker opens, and the
Experiment path must yield identical rows regardless of backend and pool
width.
"""

import dataclasses
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.bench import BenchConfig, get_experiment
from repro.coarsen import mis2_aggregation
from repro.coloring import greedy_color
from repro.graph import elasticity3d, grid2d, laplace3d, path_graph, random_gnp, rmat
from repro.mis import kk_mis2
from repro.parallel import (
    DistributedBackend,
    available_backends,
    build_partition_layout,
    get_backend,
)

from tests.conftest import SMALL_GRAPH_CASES

#: Backends under test: every registered backend. The serial numpy run is
#: the reference, and a pool width of 2 maps its units over worker processes.
BACKENDS = {name: get_backend(name) for name in available_backends()}


@pytest.fixture(params=sorted(BACKENDS), ids=sorted(BACKENDS))
def backend(request):
    return BACKENDS[request.param]


#: Partitioned smoke, the Experiment-path run a backend changes: a flat run
#: opens no session and takes only numpy.
_EXPERIMENT_CONFIG = BenchConfig(scale=0.002, trials=1, warmup=0, parts=2)


def _untimed(rows):
    """Smoke rows without their three wall-clock meters."""
    return [
        dataclasses.replace(r, compute_seconds=0.0, exchange_seconds=0.0, idle_seconds=0.0)
        for r in rows
    ]


def test_experiment_rows_identical_at_every_pool_width(backend):
    """The pooled experiment path must yield the reference rows, bit for bit.

    Apart from the wall-clock meters, partitioned smoke on any backend at any
    pool width produces exactly the rows the serial NumPy reference produces.
    """
    experiment = get_experiment("smoke")
    reference = experiment.run(_EXPERIMENT_CONFIG, backend="numpy").rows
    for jobs in (None, 1, 2):
        result = experiment.run(_EXPERIMENT_CONFIG, backend=backend, jobs=jobs)
        assert _untimed(result.rows) == _untimed(reference)
        assert result.counts == experiment.counts(reference)


def test_experiment_counts_identical_across_all_backends():
    """Deterministic counts of the partitioned smoke experiment agree on every
    backend."""
    experiment = get_experiment("smoke")
    reference = experiment.run(_EXPERIMENT_CONFIG, backend="numpy")
    for name in available_backends():
        assert experiment.run(_EXPERIMENT_CONFIG, backend=name, jobs=2).counts == reference.counts


# --------------------------------------------------------------------------
# Partition-equivalence matrix: every registered backend × k ∈ {1, 2, 4, 7} ×
# {kk, greedy coloring, mis2_agg} must produce output bit-identical to
# the *unpartitioned* NumPy reference — the intra-graph sharding contract of
# repro.parallel.partitioned. numpy runs the serial in-process session;
# distributed runs two rank processes, and "distributed4" four, so
# k = 2 gives it fewer parts than ranks and k >= 4 runs four parts at once.
# "pooled" makes each call in a benchmark pool worker (``Experiment.run``
# with ``jobs >= 2``), whose registered distributed backend opens the
# worker's own two ranks while this process keeps its clusters.

#: One instance per registered backend name (including the numpy reference —
#: here it is the *execution* under test, not the baseline), plus the
#: four-rank session.
PARTITION_BACKENDS = {name: get_backend(name) for name in available_backends()}
PARTITION_BACKENDS["distributed4"] = DistributedBackend(ranks=4)

PARTITION_RUNS = sorted([*PARTITION_BACKENDS, "pooled"])

PARTITION_KS = (1, 2, 4, 7)

#: Structured + irregular + disconnected coverage without blowing up runtime.
PARTITION_GRAPHS = ("grid5x7", "gnp60", "disconnected")


def _on_worker_ranks(kernel, graph, kwargs):
    """Pool-worker side of a "pooled" call."""
    return kernel(graph, backend="distributed", **kwargs)


@pytest.fixture(scope="module")
def pool_worker():
    """One worker, so a prebuilt layout's warm rerun finds its payloads on
    the ranks its cold run filled."""
    with ProcessPoolExecutor(max_workers=1) as pool:
        yield pool


@pytest.fixture(params=PARTITION_RUNS)
def partition_run(request):
    """``run(kernel, graph, **kwargs)``: the partitioned call where this cell
    runs its parts."""
    if request.param == "pooled":
        pool = request.getfixturevalue("pool_worker")
        return lambda kernel, graph, **kwargs: pool.submit(
            _on_worker_ranks, kernel, graph, kwargs
        ).result(timeout=60)
    backend = PARTITION_BACKENDS[request.param]
    return lambda kernel, graph, **kwargs: kernel(graph, backend=backend, **kwargs)


@pytest.mark.parametrize("k", PARTITION_KS)
@pytest.mark.parametrize("graph_name", PARTITION_GRAPHS)
def test_partitioned_kk_mis2_bit_identical(partition_run, graph_name, k):
    g = SMALL_GRAPH_CASES[graph_name]
    ref = kk_mis2(g)
    out = partition_run(kk_mis2, g, partitions=k)
    assert np.array_equal(ref.in_set, out.in_set)
    assert np.array_equal(ref.in_mask, out.in_mask)
    assert ref.iterations == out.iterations
    assert ref.worklist_sizes == out.worklist_sizes
    assert out.config.partitions == k
    stats = out.partition_stats
    assert stats is not None and stats.num_parts == k
    assert stats.interior_vertices + stats.boundary_vertices == g.num_vertices


@pytest.mark.parametrize("k", PARTITION_KS)
@pytest.mark.parametrize("graph_name", PARTITION_GRAPHS)
def test_partitioned_greedy_coloring_bit_identical(partition_run, graph_name, k):
    g = SMALL_GRAPH_CASES[graph_name]
    ref = greedy_color(g)
    out = partition_run(greedy_color, g, partitions=k)
    assert np.array_equal(ref.colors, out.colors)
    assert ref.num_colors == out.num_colors
    assert ref.rounds == out.rounds
    assert out.partitions == k
    assert out.partition_stats is not None


@pytest.mark.parametrize("k", PARTITION_KS)
@pytest.mark.parametrize("graph_name", PARTITION_GRAPHS)
def test_partitioned_mis2_aggregation_bit_identical(partition_run, graph_name, k):
    g = SMALL_GRAPH_CASES[graph_name]
    ref = mis2_aggregation(g)
    out = partition_run(mis2_aggregation, g, partitions=k)
    assert np.array_equal(ref.labels, out.labels)
    assert ref.num_aggregates == out.num_aggregates
    assert np.array_equal(ref.roots, out.roots)


#: Graphs that color in many rounds, or with skewed degrees: meshes and a
#: path, where a coloring part recomputes only the frontier of what changed
#: and still falls back to whole-worklist rounds, and a power-law and a
#: random graph, whose every round recomputes the whole worklist.
_MANY_ROUND_GRAPHS = {
    "grid30x30": lambda: grid2d(30, 30),
    "laplace3d-8": lambda: laplace3d(8, 8, 8),
    "path200": lambda: path_graph(200),
    "elasticity3d-4": lambda: elasticity3d(4, 4, 4),
    "rmat10": lambda: rmat(10),
    "gnp400": lambda: random_gnp(400, 0.02, seed=2),
}

#: Part specifications: the multilevel partitioner's 4 parts, 3 contiguous
#: blocks, and a seeded random 5-part labelling (many cut edges).
_MANY_ROUND_PARTS = {
    "k4": lambda n: 4,
    "k3": lambda n: 3,
    "random5": lambda n: np.random.default_rng(5).integers(0, 5, n),
}


@pytest.fixture(scope="module")
def many_round_graphs():
    return {name: build() for name, build in _MANY_ROUND_GRAPHS.items()}


@pytest.mark.parametrize("parts", sorted(_MANY_ROUND_PARTS))
@pytest.mark.parametrize("graph_name", sorted(_MANY_ROUND_GRAPHS))
def test_partitioned_coloring_many_rounds_bit_identical(
    partition_run, many_round_graphs, graph_name, parts
):
    """Partitioned coloring over many rounds and skewed degrees equals the
    flat kernel, runs two supersteps a round, and records the numpy
    partitioned run's deterministic counts."""
    g = many_round_graphs[graph_name]
    layout = build_partition_layout(g, _MANY_ROUND_PARTS[parts](g.num_vertices))
    flat = greedy_color(g)
    out = partition_run(greedy_color, g, partitions=layout)
    ref = greedy_color(g, partitions=layout, backend="numpy")
    assert np.array_equal(out.colors, flat.colors)
    assert (out.num_colors, out.rounds) == (flat.num_colors, flat.rounds)
    assert out.partition_stats.supersteps == 2 * out.rounds
    assert _deterministic_stats(out.partition_stats) == _deterministic_stats(
        ref.partition_stats
    )


@pytest.mark.parametrize("option", ("default", "fixed-s3"))
@pytest.mark.parametrize("parts", sorted(_MANY_ROUND_PARTS))
@pytest.mark.parametrize("graph_name", sorted(_MANY_ROUND_GRAPHS))
def test_partitioned_kk_many_iterations_bit_identical(
    partition_run, many_round_graphs, graph_name, parts, option
):
    """Partitioned kk on larger meshes, skewed degrees and many cut edges
    equals the flat kernel, worklist sizes included, runs three supersteps
    an iteration, and records the numpy partitioned run's deterministic
    counts. ``fixed-s3`` is the service's MIS-2 query."""
    options = {} if option == "default" else _KK_OPTIONS[option]
    g = many_round_graphs[graph_name]
    layout = build_partition_layout(g, _MANY_ROUND_PARTS[parts](g.num_vertices))
    flat = kk_mis2(g, **options)
    out = partition_run(kk_mis2, g, partitions=layout, **options)
    ref = kk_mis2(g, partitions=layout, backend="numpy", **options)
    assert np.array_equal(out.in_set, flat.in_set)
    assert out.iterations == flat.iterations
    assert out.worklist_sizes == flat.worklist_sizes
    assert out.partition_stats.supersteps == 3 * out.iterations
    assert _deterministic_stats(out.partition_stats) == _deterministic_stats(
        ref.partition_stats
    )


def test_partitioned_coloring_max_rounds(partition_run, many_round_graphs):
    """``max_rounds`` caps the partitioned conflict loop as it caps the flat
    one. A raise closes the session, so the next call on the same backend
    runs normally."""
    g = many_round_graphs["grid30x30"]
    flat = greedy_color(g)
    capped = partition_run(greedy_color, g, partitions=4, max_rounds=flat.rounds)
    assert np.array_equal(capped.colors, flat.colors)
    assert capped.rounds == flat.rounds
    with pytest.raises(RuntimeError, match="did not converge"):
        partition_run(greedy_color, g, partitions=4, max_rounds=flat.rounds - 1)
    again = partition_run(greedy_color, g, partitions=4)
    assert np.array_equal(again.colors, flat.colors)


#: The two kinds of session: serial in-process (numpy) and socket
#: ranks, where empty parts and all-interior parts are installed on rank
#: processes: the registered two-rank cluster, and a four-rank one, which
#: holds fewer parts than ranks at k = 2 and 3 and runs four parts at once.
_EVERY_GRAPH_SESSIONS = {
    "numpy": get_backend("numpy"),
    "distributed": get_backend("distributed"),
    "distributed4": DistributedBackend(ranks=4),
}


@pytest.mark.parametrize("k", (1, 2, 3, 4, 5, 7, 8))
@pytest.mark.parametrize("graph_name", sorted(SMALL_GRAPH_CASES))
@pytest.mark.parametrize("session", sorted(_EVERY_GRAPH_SESSIONS))
def test_partitioned_kk_every_small_graph(session, graph_name, k):
    """Exhaustive graph coverage (incl. empty/isolated/complete) on every
    kind of session."""
    g = SMALL_GRAPH_CASES[graph_name]
    ref = kk_mis2(g)
    out = kk_mis2(g, partitions=k, backend=_EVERY_GRAPH_SESSIONS[session])
    assert np.array_equal(ref.in_set, out.in_set)
    assert ref.iterations == out.iterations
    assert ref.worklist_sizes == out.worklist_sizes


#: kk's non-default options, each a field of the resident payload and of the
#: session token: Table I's hash scheme without the star, the fixed scheme
#: under a nonzero seed (the service's MIS-2 query) and the paper's 32-bit
#: packed tuples.
_KK_OPTIONS = {
    "xor": {"priority_scheme": "xor"},
    "fixed-s3": {"priority_scheme": "fixed", "seed": 3},
    "w32": {"word_bits": 32},
}


@pytest.mark.parametrize("k", (1, 2, 3, 4, 5, 7, 8))
@pytest.mark.parametrize("graph_name", sorted(SMALL_GRAPH_CASES))
@pytest.mark.parametrize("option", sorted(_KK_OPTIONS))
@pytest.mark.parametrize("session", sorted(_EVERY_GRAPH_SESSIONS))
def test_partitioned_kk_options_every_small_graph(session, option, graph_name, k):
    """The exhaustive graph coverage again, for each option the parts read
    from their payload instead of the default xorstar, seed 0, 64 bits."""
    options = _KK_OPTIONS[option]
    g = SMALL_GRAPH_CASES[graph_name]
    ref = kk_mis2(g, **options)
    out = kk_mis2(g, partitions=k, backend=_EVERY_GRAPH_SESSIONS[session], **options)
    assert np.array_equal(ref.in_set, out.in_set)
    assert ref.iterations == out.iterations
    assert ref.worklist_sizes == out.worklist_sizes
    assert out.config.priority_scheme == ref.config.priority_scheme
    assert (out.config.seed, out.config.word_bits) == (ref.config.seed, ref.config.word_bits)


@pytest.mark.parametrize("graph_name", PARTITION_GRAPHS)
def test_kk_options_on_one_layout_each_match_flat(partition_run, graph_name):
    """Calls that differ only in a kk option share the layout but not the
    payload: each runs under its own session token, so on the distributed
    ranks none may reuse the payload another option cached. Every call, the
    default's cold and warm runs around the others included, equals its
    flat run. The fixed scheme under seed 0 runs after seed 3, so only the
    seed tells their tokens apart."""
    g = SMALL_GRAPH_CASES[graph_name]
    layout = build_partition_layout(g, 4)
    options = [_KK_OPTIONS[name] for name in sorted(_KK_OPTIONS)]
    runs = [{}, *options, {"priority_scheme": "fixed"}, {}]
    for options in runs:
        out = partition_run(kk_mis2, g, partitions=layout, **options)
        ref = kk_mis2(g, **options)
        assert np.array_equal(ref.in_set, out.in_set), options
        assert ref.iterations == out.iterations, options


#: kernel -> (front door, the result fields that must match the flat run).
_EVERY_GRAPH_KERNELS = {
    "color": (greedy_color, lambda r: (r.colors, r.num_colors, r.rounds)),
    "mis2_agg": (mis2_aggregation, lambda r: (r.labels, r.num_aggregates, r.roots)),
}


@pytest.mark.parametrize("k", (1, 2, 3, 4, 5, 7, 8))
@pytest.mark.parametrize("graph_name", sorted(SMALL_GRAPH_CASES))
@pytest.mark.parametrize("kernel", sorted(_EVERY_GRAPH_KERNELS))
@pytest.mark.parametrize("session", sorted(_EVERY_GRAPH_SESSIONS))
def test_partitioned_every_small_graph(session, kernel, graph_name, k):
    """The same exhaustive coverage for the other partitioned kernels: more
    parts than vertices leaves parts empty, and every part of an edgeless
    graph is all interior."""
    fn, fields = _EVERY_GRAPH_KERNELS[kernel]
    g = SMALL_GRAPH_CASES[graph_name]
    ref = fields(fn(g))
    out = fn(g, partitions=k, backend=_EVERY_GRAPH_SESSIONS[session])
    if kernel != "mis2_agg":  # an Aggregation carries no partition stats
        assert out.partition_stats.num_parts == k
    for expected, got in zip(ref, fields(out)):
        assert np.array_equal(expected, got)


def _deterministic_stats(stats) -> dict:
    """PartitionStats as a dict with the wall-clock meters stripped — the
    ``*_seconds`` triple is perf_counter-based and machine-varying by design;
    everything else must agree bit-for-bit across backends."""
    return {
        k: v for k, v in stats.to_dict().items() if not k.endswith("_seconds")
    }


def test_shipped_bytes_accounting_identical_across_backends():
    """The shipped-bytes fields are *logical* (array nbytes, charged in both
    directions), so every backend must record exactly the same numbers for
    the same run of every partitioned kernel — that is what makes them
    deterministic counts gateable by `bench compare`."""
    g = SMALL_GRAPH_CASES["gnp60"]
    for kernel in (kk_mis2, greedy_color):
        reference = None
        for name, backend in sorted(PARTITION_BACKENDS.items()):
            out = kernel(g, partitions=4, backend=backend)
            recorded = _deterministic_stats(out.partition_stats)
            if reference is None:
                reference = recorded
            assert recorded == reference, (kernel.__name__, name)
        assert reference["superstep_bytes"] > 0
        assert reference["resident_bytes"] > 0
        # The payload ships once: no single superstep re-ships the parts.
        assert reference["max_superstep_bytes"] < reference["resident_bytes"]


#: kernel -> (front door, result values, supersteps per round): Refresh Row,
#: Refresh Column, Decide (kk); speculation, conflicts (coloring).
_ROUND_KERNELS = {
    "kk": (kk_mis2, lambda r: r.in_set, lambda r: 3 * r.iterations),
    "color": (greedy_color, lambda r: r.colors, lambda r: 2 * r.rounds),
}


@pytest.mark.parametrize("k", (2, 4))
@pytest.mark.parametrize("graph_name", PARTITION_GRAPHS)
def test_prebuilt_layout_rerun_bit_identical(partition_run, graph_name, k):
    """A rerun on a prebuilt layout reuses the payloads cached under its
    token (the distributed ranks skip the CSR). That
    warm rerun, with another layout's run in between, must match the flat
    reference and record exactly the cold run's deterministic counts: the
    logical ledger charges the payload once per run whether or not it
    physically ships."""
    g = SMALL_GRAPH_CASES[graph_name]
    other = SMALL_GRAPH_CASES["regular48"]
    layout = build_partition_layout(g, k)
    other_layout = build_partition_layout(other, k)
    for name, (kernel, values, _) in sorted(_ROUND_KERNELS.items()):
        flat = values(kernel(g))
        cold = partition_run(kernel, g, partitions=layout)
        between = partition_run(kernel, other, partitions=other_layout)
        warm = partition_run(kernel, g, partitions=layout)
        assert np.array_equal(values(cold), flat), name
        assert np.array_equal(values(warm), flat), name
        assert np.array_equal(values(between), values(kernel(other))), name
        assert _deterministic_stats(warm.partition_stats) == _deterministic_stats(
            cold.partition_stats
        ), name


@pytest.mark.parametrize("graph_name", PARTITION_GRAPHS)
def test_one_superstep_per_phase_and_counts_match_numpy(partition_run, graph_name):
    """Barrier schedule on every backend: supersteps is the round count
    times the phases per round, and every deterministic count equals the
    in-process numpy partitioned run's. Three parts take the contiguous-block
    partitioner (power-of-two counts take the multilevel one)."""
    g = SMALL_GRAPH_CASES[graph_name]
    layout = build_partition_layout(g, 3)
    for name, (kernel, values, phases) in sorted(_ROUND_KERNELS.items()):
        out = partition_run(kernel, g, partitions=layout)
        ref = kernel(g, partitions=layout, backend="numpy")
        assert np.array_equal(values(out), values(kernel(g))), name
        assert out.partition_stats.supersteps == phases(out), name
        assert _deterministic_stats(out.partition_stats) == _deterministic_stats(
            ref.partition_stats
        ), name


def test_partitioned_smoke_sweep_counts_identical():
    """The partitioned smoke sweep (CI's intra-graph sharding gate) passes and
    records identical deterministic counts on every backend, pooled too."""
    from repro.bench import BenchConfig as _BC
    from repro.bench import sweep

    config = _BC(parts=2)
    result = sweep("smoke", ["numpy", "distributed"], config, jobs=2)
    assert result.reference.parts == 2
    for res in result.results:
        assert res.counts == result.reference.counts
        assert any(key.endswith("/boundary_vertices") for key in res.counts)
