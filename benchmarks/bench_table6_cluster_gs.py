"""Table VI: point vs cluster multicolor symmetric Gauss-Seidel preconditioning GMRES."""

from conftest import emit

from repro.bench import BenchConfig, run_table6, table6_table
from repro.bench.config import cached_suite_matrix
from repro.gs import ClusterMulticolorGaussSeidel


def test_table6_report(benchmark, bench_config, results_dir):
    config = BenchConfig(scale=max(bench_config.scale, 0.02), trials=1, warmup=0)
    rows = benchmark.pedantic(lambda: run_table6(config, tol=1e-8, maxiter=800), rounds=1, iterations=1)
    emit(results_dir, "table6_cluster_gs", table6_table(rows).render())
    assert len(rows) == 5
    for row in rows:
        # Both preconditioned solves converge within the iteration budget and with an
        # iteration count in the same ballpark (the paper reports the cluster method
        # ~5% better).
        assert row.point_converged and row.cluster_converged
        assert row.cluster_iterations <= 2 * row.point_iterations
        assert row.point_setup_seconds > 0 and row.cluster_setup_seconds > 0


def test_benchmark_cluster_gs_setup(benchmark, bench_config):
    A = cached_suite_matrix("Laplace3D_100", bench_config.scale, bench_config.seed, None)
    gs = benchmark(lambda: ClusterMulticolorGaussSeidel(A))
    assert gs.aggregation.is_complete()
