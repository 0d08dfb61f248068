"""Self-tests of the benchmark on tiny inputs.

    python -m pytest perfbench

Every workload, traced and untraced, must emit exactly the metrics
``BENCHMARK.json`` declares, with their units, and print each named metric of
its report; a corrupted answer must count as a failed operation; timings must
be scaled by the host-speed probe.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import workloads
from report import NAMED, PACE_NOMINAL_MS, end_to_end, execute
from tracing import NullTracer
from workloads import TINY, WORKLOADS, Run

CONTRACT = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_contract_lists_the_workloads_and_their_reasons():
    assert {w["name"]: w["why"] for w in CONTRACT["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    result, record, spans, report = execute(workload, seed=7, seconds=1.0, trace=bool(trace), sizes=TINY)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    for name, unit, _, _ in NAMED[workload]:
        assert any(line.split()[:1] == [name] and unit in line.split() for line in report.splitlines())
    assert record["seed"] == 7 and record["inputs"] and record["nproc"] >= 1
    if trace:
        assert spans and all(s.end >= s.start for s in spans)
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_timings_are_reported_at_the_probe_s_nominal_speed():
    run = Run(NullTracer())
    run.samples.update(setup_s=[2.0], solve_s=[0.5], iter_ms=[50.0], pace_ms=[2 * PACE_NOMINAL_MS["amg"]])
    run.peak_rss_mb = 100.0
    assert end_to_end("amg", run) == {"setup_s": 1.0, "main_ms": 250.0, "side_ms": 25.0, "peak_rss_mb": 100.0}
    assert end_to_end("amg", run, paced=False) == {
        "setup_s": 2.0, "main_ms": 500.0, "side_ms": 50.0, "peak_rss_mb": 100.0
    }


def _flip_one_mis2_bit(result):
    mask = result.in_mask.copy()
    mask[0] = not mask[0]
    return dataclasses.replace(result, in_set=np.flatnonzero(mask), in_mask=mask)


def _recolor_one_vertex(result):
    colors = result.colors.copy()
    colors[0] = colors[1] if colors[1] != colors[0] else colors[0] + 1
    return dataclasses.replace(result, colors=colors)


@pytest.mark.parametrize(
    "kernel, corrupt", [("kk_mis2", _flip_one_mis2_bit), ("greedy_color", _recolor_one_vertex)]
)
def test_corrupted_answer_counts_as_failed(monkeypatch, kernel, corrupt):
    real = getattr(workloads, kernel)

    def corrupted(graph, **kwargs):
        result = real(graph, **kwargs)
        return corrupt(result) if "partitions" in kwargs else result

    monkeypatch.setattr(workloads, kernel, corrupted)
    result, _, _, _ = execute("partitioned", seed=7, seconds=1.0, trace=False, sizes=TINY)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
