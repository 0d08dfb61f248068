"""Tests for the Experiment framework: registry, JSON persistence, sweep driver."""

import dataclasses
import os
import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.bench import (
    BenchConfig,
    ExperimentResult,
    SweepMismatchError,
    clear_suite_cache,
    experiment_names,
    get_experiment,
    run_experiment,
    suite_cache_stats,
    sweep,
    sweep_table,
)
from repro.bench.__main__ import EXPERIMENTS
import repro.bench.experiment as experiment_module
from repro.bench.experiment import SweepResult, _TaskInvocation
from repro.bench.table1 import Table1Row
from repro.parallel import get_backend

from tests.conftest import INVALID_COUNTS

#: The paper's twelve experiments plus the CI smoke check.
PAPER_EXPERIMENTS = {
    "table1", "table2", "table3", "table4", "table5", "table6",
    "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
}

#: Two tiny matrices keep every run in this module to a fraction of a second.
TINY = BenchConfig(scale=0.002, trials=1, warmup=0, matrices=("ecology2", "tmt_sym"))
#: Partitioned smoke: the only kind of run a backend other than numpy changes.
SMOKE_P2 = dataclasses.replace(TINY, parts=2)
SMOKE_GRAPHS = ["laplace3d(10,10,10)", "elasticity3d(6,6,6)"]


@dataclasses.dataclass(frozen=True)
class _PidRow:
    matrix: str
    pid: int


def _pid_task(unit, config):
    """Module-level, so a pooled run can pickle it: which process ran the unit."""
    return _PidRow(unit, os.getpid())


def _unit_must_not_run(unit, config):
    raise AssertionError(f"unit {unit!r} ran")


#: table1's plan with rows that carry the pid of the process that made them
#: (parts-aware, so a partitioned config may name a backend).
PID_EXPERIMENT = dataclasses.replace(
    get_experiment("table1"), deterministic_fields=("pid",), parts_aware=True
)


class TestRegistry:
    def test_all_twelve_paper_experiments_registered(self):
        assert PAPER_EXPERIMENTS | {"smoke"} == set(experiment_names())

    def test_registry_names_match_cli(self):
        assert set(EXPERIMENTS) == set(experiment_names())
        for name, experiment in EXPERIMENTS.items():
            assert experiment.name == name

    def test_get_experiment_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            get_experiment("table99")

    def test_every_experiment_plans_units(self):
        for name in experiment_names():
            units = get_experiment(name).units(TINY)
            assert len(units) >= 1, name

    def test_every_experiment_declares_determinism(self):
        for name in experiment_names():
            experiment = get_experiment(name)
            assert experiment.deterministic_fields, name
            assert experiment.key_field

    def test_task_invocations_are_picklable(self):
        """No lambdas in a task: every task must cross a process pool, with
        its config riding along."""
        for name in experiment_names():
            experiment = get_experiment(name)
            invocation = _TaskInvocation(experiment.task, TINY)
            restored = pickle.loads(pickle.dumps(invocation))
            assert restored.config == TINY
            assert pickle.dumps(restored.task) == pickle.dumps(experiment.task)


class TestExperimentRun:
    def test_run_returns_structured_result(self):
        result = run_experiment("table1", TINY)
        assert result.experiment == "table1"
        assert result.backend == "numpy"
        assert result.units == 2
        assert result.elapsed_seconds > 0
        assert [r.matrix for r in result.rows] == list(TINY.matrices)
        assert all(isinstance(r, Table1Row) for r in result.rows)
        assert result.counts["ecology2/xorstar"] >= 1

    def test_rows_preserve_plan_order_across_backends(self):
        for backend in ("numpy", "distributed"):
            result = run_experiment("smoke", SMOKE_P2, backend=backend, jobs=2)
            assert [r.graph for r in result.rows] == SMOKE_GRAPHS
            assert result.backend == backend
            assert result.jobs == 2

    def test_config_backend_is_honoured(self):
        ranks = get_backend("distributed")
        before = ranks.measured_stats()["messages_sent"]
        config = dataclasses.replace(SMOKE_P2, backend="distributed")
        assert run_experiment("smoke", config).backend == "distributed"
        assert ranks.measured_stats()["messages_sent"] > before

    @pytest.mark.parametrize(
        "backend, config", [("numpy", TINY), ("distributed", SMOKE_P2)],
        ids=["numpy", "distributed"],
    )
    def test_pooled_run_maps_units_in_worker_processes(self, backend, config):
        # jobs=2 maps the units over the harness's own pool on every backend,
        # the serial reference included.
        result = PID_EXPERIMENT.run(config, backend=backend, jobs=2, task=_pid_task)
        assert [r.matrix for r in result.rows] == list(TINY.matrices)
        assert os.getpid() not in {r.pid for r in result.rows}
        assert result.jobs == 2

    @pytest.mark.parametrize("jobs, workers", [(2, 2), (3, 3), (8, 3)])
    def test_pool_is_jobs_wide_but_no_wider_than_the_units(self, jobs, workers, monkeypatch):
        widths = []

        class _RecordingPool(ProcessPoolExecutor):
            def __init__(self, max_workers):
                widths.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(experiment_module, "ProcessPoolExecutor", _RecordingPool)
        config = dataclasses.replace(TINY, matrices=("ecology2", "tmt_sym", "apache2"))
        result = PID_EXPERIMENT.run(config, jobs=jobs, task=_pid_task)
        assert widths == [workers]
        assert result.jobs == jobs
        assert [r.matrix for r in result.rows] == list(config.matrices)
        assert len({r.pid for r in result.rows}) <= workers

    def test_pooled_unit_failure_reaches_the_caller(self):
        # The first failing unit in plan order re-raises in the caller as
        # its own exception, not as a broken pool.
        with pytest.raises(AssertionError, match="unit 'ecology2' ran"):
            get_experiment("table1").run(TINY, jobs=2, task=_unit_must_not_run)

    def test_default_run_maps_in_the_caller_and_records_one_job(self):
        result = PID_EXPERIMENT.run(TINY, task=_pid_task)
        assert {r.pid for r in result.rows} == {os.getpid()}
        assert result.jobs == 1

    @pytest.mark.parametrize("jobs, message", INVALID_COUNTS)
    def test_invalid_jobs_raise_before_any_unit_runs(self, jobs, message):
        with pytest.raises(ValueError, match=f"jobs must be {message}"):
            get_experiment("table1").run(TINY, jobs=jobs, task=_unit_must_not_run)

    def test_flat_run_takes_no_backend_but_numpy(self):
        # A flat run opens no session, so naming a backend, by argument or
        # by config, would only stamp a record with code that never ran.
        table1 = get_experiment("table1")
        with pytest.raises(ValueError, match="flat run"):
            table1.run(TINY, backend="distributed", task=_unit_must_not_run)
        with pytest.raises(ValueError, match="flat run"):
            table1.run(
                dataclasses.replace(TINY, backend="distributed"), task=_unit_must_not_run
            )

    def test_pooled_distributed_run_opens_sessions_in_its_workers(self):
        """jobs=2 on the distributed backend runs smoke's partitioned calls on
        rank clusters the pool workers open, not on the caller's, and records
        the serial numpy run's counts."""
        ranks = get_backend("distributed")
        before = ranks.measured_stats()
        pooled = run_experiment("smoke", BenchConfig(parts=2), backend="distributed", jobs=2)
        assert (pooled.backend, pooled.jobs) == ("distributed", 2)
        assert ranks.measured_stats() == before
        assert pooled.counts == run_experiment("smoke", BenchConfig(parts=2)).counts

    def test_smoke_runs_its_partitioned_calls_on_the_run_backend(self):
        """The run's backend reaches smoke's six partitioned calls: over the
        registered two-rank cluster they send 52 (kk) + 58 (coloring) + 34
        (aggregation) messages on laplace3d(10^3) and 28 + 56 + 26 on
        elasticity3d(6^3), as the same calls do run directly."""
        ranks = get_backend("distributed")
        before = ranks.measured_stats()["messages_sent"]
        result = run_experiment("smoke", BenchConfig(parts=2), backend="distributed")
        assert result.backend == "distributed"
        assert ranks.measured_stats()["messages_sent"] - before == 254


class TestJsonRoundTrip:
    def test_result_round_trips_through_json(self):
        result = run_experiment("table1", TINY)
        restored = ExperimentResult.from_json(result.to_json())
        assert restored.experiment == result.experiment
        assert restored.backend == result.backend
        assert restored.counts == result.counts
        assert restored.to_dict() == result.to_dict()

    def test_save_writes_bench_json(self, tmp_path):
        result = run_experiment("table1", TINY)
        path = result.save(tmp_path)
        assert path.name == "BENCH_table1_numpy.json"
        restored = ExperimentResult.from_json(path.read_text())
        assert restored.to_dict() == result.to_dict()

    def test_non_finite_floats_become_null(self):
        # table6 rows carry paper=(nan,)*6 for non-paper matrices; strict JSON
        # consumers (jq, JSON.parse) reject the NaN token json.dumps would emit.
        result = ExperimentResult(
            experiment="x", backend="numpy", jobs=None, scale=1.0, seed=0,
            trials=1, units=1, elapsed_seconds=0.1,
            counts={"a/nan": float("nan")},
            rows=[{"paper": (float("nan"), float("inf"))}],
        )
        text = result.to_json()
        assert "NaN" not in text and "Infinity" not in text
        import json

        parsed = json.loads(text)
        assert parsed["counts"]["a/nan"] is None
        assert parsed["rows"][0]["paper"] == [None, None]

    def test_rows_are_json_safe(self):
        # table5 rows carry tuples and bools; fig3 rows carry float dicts.
        import json

        result = run_experiment("fig3", TINY)
        parsed = json.loads(result.to_json())
        assert parsed["rows"][0]["matrix"] == "ecology2"
        assert set(parsed["rows"][0]["efficiency"]) == {"v100", "mi100", "skylake", "tx2"}

    def test_parts_round_trip_and_filename(self, tmp_path):
        config = dataclasses.replace(TINY, parts=2)
        result = run_experiment("smoke", config)
        assert result.parts == 2
        restored = ExperimentResult.from_json(result.to_json())
        assert restored.parts == 2
        path = result.save(tmp_path)
        assert path.name == "BENCH_smoke_p2_numpy.json"
        # Legacy records without a parts key load as unpartitioned.
        legacy = result.to_dict()
        del legacy["parts"]
        assert ExperimentResult.from_dict(legacy).parts is None
        assert ExperimentResult.from_dict(legacy).filename == "BENCH_smoke_numpy.json"

    def test_partitioned_smoke_rows_record_boundary_stats(self):
        config = dataclasses.replace(TINY, parts=3)
        result = run_experiment("smoke", config)
        for row in result.rows:
            assert row.parts == 3
            assert row.boundary_vertices >= 0
            assert row.ghost_supersteps > 0
        plain = run_experiment("smoke", TINY)
        for row in plain.rows:
            assert row.parts == 1 and row.ghost_supersteps == 0


class TestSweep:
    def test_smoke_sweep_across_backends(self):
        """The acceptance smoke sweep: partitioned smoke, both backends."""
        result = sweep("smoke", ["numpy", "distributed"], SMOKE_P2)
        assert [r.backend for r in result.results] == ["numpy", "distributed"]
        assert result.reference.backend == "numpy"
        # Identical measured iteration counts across backends — the paper's claim.
        assert result.results[0].counts == result.results[1].counts
        assert result.speedup(result.reference) == pytest.approx(1.0)
        text = sweep_table(result).render()
        assert "numpy" in text and "distributed" in text and "identical" in text

    def test_sweep_requires_backends(self):
        with pytest.raises(ValueError, match="at least one backend"):
            sweep("table1", [], TINY)

    def test_sweep_requires_a_partitioned_run(self):
        # Without parts every backend would run the same flat code; refused
        # before the warm-up generates anything.
        clear_suite_cache()
        with pytest.raises(ValueError, match="partitioned run"):
            sweep("table1", ["numpy", "distributed"], TINY)
        assert suite_cache_stats() == {"graphs": 0, "matrices": 0}

    @pytest.mark.parametrize("jobs, message", INVALID_COUNTS)
    def test_invalid_jobs_raise_before_the_warm_up(self, jobs, message):
        # The warm-up fills this process's suite caches; a bad pool width
        # is refused before it generates anything.
        clear_suite_cache()
        with pytest.raises(ValueError, match=f"jobs must be {message}"):
            sweep("table1", ["numpy", "distributed"], TINY, jobs=jobs)
        assert suite_cache_stats() == {"graphs": 0, "matrices": 0}

    def test_sweep_table_prints_a_serial_run_as_one_job(self):
        result = sweep("smoke", ["numpy"], SMOKE_P2)
        assert result.reference.jobs == 1
        header, _, row = sweep_table(result).render().splitlines()[1:4]
        assert header.split()[:2] == ["backend", "jobs"]
        assert row.split()[:2] == ["numpy", "1"]

    def test_sweep_detects_count_mismatch(self):
        good = run_experiment("table1", TINY)
        bad = ExperimentResult.from_dict(good.to_dict())
        bad.backend = "distributed"
        bad.counts = dict(bad.counts)
        bad.counts["ecology2/xorstar"] = -99
        from repro.bench.experiment import _check_counts

        with pytest.raises(SweepMismatchError, match="ecology2/xorstar"):
            _check_counts("table1", [good, bad])

    def test_sweep_summary_round_trip(self, tmp_path):
        result = sweep("smoke", ["numpy", "distributed"], SMOKE_P2)
        path = result.save(tmp_path)
        assert path.name == "BENCH_sweep_smoke_p2.json"
        import json

        summary = json.loads(path.read_text())
        assert summary["experiment"] == "smoke"
        assert summary["backends"] == ["numpy", "distributed"]
        assert summary["speedups"]["numpy"] == pytest.approx(1.0)

    def test_sweep_result_mismatch_renders_in_table(self):
        good = run_experiment("smoke", TINY)
        bad = ExperimentResult.from_dict(good.to_dict())
        bad.backend = "distributed"
        bad.counts = dict(bad.counts, extra=1)
        text = sweep_table(SweepResult(experiment="smoke", results=[good, bad])).render()
        assert "MISMATCH" in text


class TestSuiteCache:
    def test_cache_keyed_and_clearable(self):
        from repro.bench import cached_suite_graph

        clear_suite_cache()
        assert suite_cache_stats() == {"graphs": 0, "matrices": 0}
        g1 = cached_suite_graph("ecology2", 0.002, 0, None)
        assert cached_suite_graph("ecology2", 0.002, 0, None) is g1
        # A different (name, scale, seed, mtx_dir) key is a different entry.
        g2 = cached_suite_graph("ecology2", 0.002, 1, None)
        assert g2 is not g1
        assert suite_cache_stats()["graphs"] == 2
        clear_suite_cache()
        assert suite_cache_stats() == {"graphs": 0, "matrices": 0}

    def test_cache_capacity_bounded(self):
        from repro.bench import cached_suite_graph
        from repro.bench.config import _CACHE_CAPACITY

        clear_suite_cache()
        for seed in range(_CACHE_CAPACITY + 5):
            cached_suite_graph("ecology2", 0.001, seed, None)
        assert suite_cache_stats()["graphs"] <= _CACHE_CAPACITY
        clear_suite_cache()
