"""Tests for the `python -m repro.bench` command-line interface."""

import json

import pytest

from repro.bench import experiment_names
from repro.bench.__main__ import EXPERIMENTS, main


def test_every_experiment_is_registered():
    assert set(EXPERIMENTS) == {
        "table1", "table2", "table3", "table4", "table5", "table6",
        "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "smoke",
    }
    assert set(EXPERIMENTS) == set(experiment_names())


def test_cli_smoke_check(capsys):
    code = main(["smoke"])
    assert code == 0
    assert "smoke check: OK" in capsys.readouterr().out


def test_cli_backend_flag_records_backend(capsys):
    code = main(["smoke", "--parts", "2", "--backend", "distributed"])
    assert code == 0
    out = capsys.readouterr().out
    assert "backend: distributed" in out
    assert "smoke check: OK" in out


@pytest.mark.parametrize("name", ["cuda", "threaded", "chunked"])
def test_cli_rejects_unknown_backend(name, capsys):
    # A deleted backend's name fails like a name that never existed.
    with pytest.raises(SystemExit):
        main(["smoke", "--backend", name])
    assert f"invalid choice: '{name}'" in capsys.readouterr().err


def test_cli_runs_single_experiment(capsys):
    code = main(["table1", "--scale", "0.002", "--matrices", "ecology2", "tmt_sym"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Table I" in out
    assert "ecology2" in out and "tmt_sym" in out


def test_cli_runs_figure_driver(capsys):
    code = main(["fig3", "--scale", "0.002", "--matrices", "ecology2"])
    assert code == 0
    assert "bandwidth-efficiency" in capsys.readouterr().out


def test_cli_scaling_figures(capsys):
    code = main(["fig4", "--scale", "0.002", "--matrices", "ecology2"])
    assert code == 0
    assert "strong-scaling" in capsys.readouterr().out


def test_cli_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["table99"])


def test_cli_jobs_flag(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_RESULTS", str(tmp_path))
    code = main(["table1", "--scale", "0.002", "--matrices", "ecology2", "tmt_sym",
                 "--jobs", "2", "--json"])
    assert code == 0
    assert "Table I" in capsys.readouterr().out
    assert json.loads((tmp_path / "BENCH_table1_numpy.json").read_text())["jobs"] == 2


def test_cli_rejects_bad_jobs():
    with pytest.raises(SystemExit):
        main(["smoke", "--jobs", "0"])


def test_cli_json_writes_record(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_RESULTS", str(tmp_path))
    code = main(["table1", "--scale", "0.002", "--matrices", "ecology2", "--json"])
    assert code == 0
    path = tmp_path / "BENCH_table1_numpy.json"
    assert path.exists()
    record = json.loads(path.read_text())
    assert record["experiment"] == "table1"
    assert record["rows"][0]["matrix"] == "ecology2"
    assert "wrote" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [["sweep", "smoke", "--parts", "2"], ["partitioned", "smoke"]],
    ids=["sweep", "partitioned"],
)
def test_cli_deleted_modes_are_usage_errors(argv, capsys):
    # Neither mode exists: the cross-backend check is two --parts records
    # and `compare`, and a partitioned run is `smoke --parts k`.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"invalid choice: '{argv[0]}'" in capsys.readouterr().err


def test_cli_backends_is_an_unrecognized_argument(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["smoke", "--parts", "2", "--backends", "numpy,distributed"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --backends" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["smoke", "--backend", "distributed"],
        ["smoke", "--backend", "numpy"],
    ],
    ids=["backend-distributed", "backend-numpy"],
)
def test_cli_takes_a_backend_only_for_a_partitioned_run(argv, capsys):
    # A backend picks only where a partitioned call's parts run: on a flat
    # run every backend runs the same code, so choosing one is an error.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "partitioned run" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fig2", "--trials", "0"], "--trials must be >= 1"),
        (["table1", "--scale", "0"], "--scale must be > 0"),
        (["table1", "--seed", "-1"], "--seed must be >= 0"),
        (["table1", "--seed", str(2**64)], "--seed must be >= 0 and < 2**64"),
    ],
    ids=["trials", "scale", "seed", "seed-2**64"],
)
def test_cli_rejects_malformed_numbers_with_a_usage_error(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--matrices", "ecology2"])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_cli_rejects_stray_target():
    with pytest.raises(SystemExit):
        main(["table1", "table2"])


def test_cli_parts_flag_on_plain_run(capsys):
    code = main(["smoke", "--parts", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "parts: 2" in out and "smoke check: OK" in out


def test_cli_cross_backend_records_pass_compare_gate(capsys, tmp_path, monkeypatch):
    # CI's logical-accounting gate: a partitioned run's record on the socket
    # ranks carries exactly the in-process run's deterministic counts,
    # shipped bytes included, so `bench compare` passes it.
    monkeypatch.setenv("REPRO_BENCH_RESULTS", str(tmp_path))
    assert main(["smoke", "--parts", "2", "--json"]) == 0
    assert main(["smoke", "--parts", "2", "--backend", "distributed", "--json"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "BENCH_smoke_p2_distributed.json",
        "BENCH_smoke_p2_numpy.json",
    ]
    baseline = tmp_path / "BENCH_smoke_p2_numpy.json"
    record = tmp_path / "BENCH_smoke_p2_distributed.json"
    counts = json.loads(record.read_text())["counts"]
    assert any(key.endswith("/total_shipped_bytes") for key in counts)
    capsys.readouterr()
    assert main(["compare", str(baseline), str(record)]) == 0
    assert "deterministic counts: identical" in capsys.readouterr().out


def test_cli_rejects_bad_parts():
    with pytest.raises(SystemExit):
        main(["smoke", "--parts", "0"])


def test_cli_resident_records_byte_fields(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_RESULTS", str(tmp_path))
    assert main(["smoke", "--parts", "2", "--json"]) == 0
    record = json.loads((tmp_path / "BENCH_smoke_p2_numpy.json").read_text())
    for row in record["rows"]:
        assert row["resident_bytes"] > 0
        # The acceptance gate: after the one-time CSR shipment, a superstep
        # ships O(halo), far below the one-time payload.
        assert row["max_superstep_bytes"] < row["resident_bytes"]
        assert row["total_shipped_bytes"] == row["resident_bytes"] + row["superstep_bytes"]
    counts = record["counts"]
    assert any(key.endswith("/total_shipped_bytes") for key in counts)


def test_cli_rejects_parts_on_unaware_experiment():
    # table1's task ignores config.parts; accepting --parts would stamp
    # parts=k on a record of an unpartitioned run.
    with pytest.raises(SystemExit):
        main(["table1", "--parts", "4", "--scale", "0.002", "--matrices", "ecology2"])


def test_run_rejects_parts_on_unaware_experiment():
    import dataclasses

    from repro.bench import BenchConfig, run_experiment

    config = dataclasses.replace(
        BenchConfig(scale=0.002, trials=1, warmup=0, matrices=("ecology2",)), parts=2
    )
    with pytest.raises(ValueError, match="does not support partition-parallel"):
        run_experiment("table1", config)


def _write_record(tmp_path, monkeypatch, name="a"):
    monkeypatch.setenv("REPRO_BENCH_RESULTS", str(tmp_path))
    assert main(["smoke", "--json"]) == 0
    path = tmp_path / "BENCH_smoke_numpy.json"
    renamed = tmp_path / f"BENCH_{name}.json"
    path.rename(renamed)
    return renamed


def test_cli_compare_identical_records(capsys, tmp_path, monkeypatch):
    a = _write_record(tmp_path, monkeypatch, "a")
    b = _write_record(tmp_path, monkeypatch, "b")
    assert main(["compare", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "deterministic counts: identical" in out


def test_cli_compare_fails_on_count_drift(capsys, tmp_path, monkeypatch):
    a = _write_record(tmp_path, monkeypatch, "a")
    b = tmp_path / "BENCH_drift.json"
    record = json.loads(a.read_text())
    key = sorted(record["counts"])[0]
    record["counts"][key] = -12345
    b.write_text(json.dumps(record))
    assert main(["compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "DRIFT" in out and key in out


def test_cli_compare_ignores_wall_clock(capsys, tmp_path, monkeypatch):
    # The gated pairs differ in pool width or backend, so their times differ
    # by design: a slower candidate with equal counts passes without comment.
    a = _write_record(tmp_path, monkeypatch, "a")
    b = tmp_path / "BENCH_slow.json"
    record = json.loads(a.read_text())
    record["elapsed_seconds"] = record["elapsed_seconds"] * 10 + 1.0
    b.write_text(json.dumps(record))
    capsys.readouterr()
    assert main(["compare", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "deterministic counts: identical" in out
    assert "wall-clock" not in out and "WARNING" not in out


@pytest.mark.parametrize(
    "flags", [["--tolerance", "0.1"], ["--strict-elapsed"]], ids=["tolerance", "strict-elapsed"]
)
def test_cli_compare_takes_no_wall_clock_flags(flags, capsys, tmp_path, monkeypatch):
    a = _write_record(tmp_path, monkeypatch, "a")
    with pytest.raises(SystemExit) as exc:
        main(["compare", str(a), str(a)] + flags)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flags[0]}" in capsys.readouterr().err


def test_cli_compare_requires_two_paths():
    with pytest.raises(SystemExit):
        main(["compare"])
    with pytest.raises(SystemExit):
        main(["compare", "only-one.json"])


def test_cli_compare_clean_errors_on_bad_records(capsys, tmp_path, monkeypatch):
    a = _write_record(tmp_path, monkeypatch, "a")
    with pytest.raises(SystemExit, match="cannot read"):
        main(["compare", str(a), str(tmp_path / "missing.json")])
    truncated = tmp_path / "truncated.json"
    truncated.write_text(a.read_text()[:40])
    with pytest.raises(SystemExit, match="not valid JSON"):
        main(["compare", str(a), str(truncated)])
    not_a_record = tmp_path / "other.json"
    not_a_record.write_text('{"hello": 1}')
    with pytest.raises(SystemExit, match="not an ExperimentResult record"):
        main(["compare", str(a), str(not_a_record)])


def test_cli_compare_reports_backend_mismatch(capsys, tmp_path, monkeypatch):
    # Regression: comparing records from different backends/parts used to gate
    # silently; the mismatch must be visible in the rendered output.
    a = _write_record(tmp_path, monkeypatch, "a")
    b = tmp_path / "BENCH_other_backend.json"
    record = json.loads(a.read_text())
    record["backend"] = "distributed"
    b.write_text(json.dumps(record))
    assert main(["compare", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "note: backends differ: 'numpy' vs 'distributed'" in out
    assert "deterministic counts: identical" in out


def test_cli_compare_reports_parts_mismatch(capsys, tmp_path, monkeypatch):
    a = _write_record(tmp_path, monkeypatch, "a")
    b = tmp_path / "BENCH_other_parts.json"
    record = json.loads(a.read_text())
    record["parts"] = 4
    b.write_text(json.dumps(record))
    assert main(["compare", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "note: partition counts differ: None vs 4" in out
    header = next(line for line in out.splitlines() if line.startswith("bench compare:"))
    assert "4 parts" in header  # candidate label carries the part count


def test_cli_compare_reports_pool_width_mismatch(capsys, tmp_path, monkeypatch):
    # The flat gates pair a serial record with a --jobs 2 record of the same
    # backend; without the note the pair renders like a file against itself.
    a = _write_record(tmp_path, monkeypatch, "a")
    b = tmp_path / "BENCH_pooled.json"
    record = json.loads(a.read_text())
    record["jobs"] = 2
    b.write_text(json.dumps(record))
    assert main(["compare", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "note: pool widths differ: 1 vs 2" in out
    assert "deterministic counts: identical" in out


def test_cli_compare_fewer_bytes_across_part_counts_is_drift(capsys, tmp_path, monkeypatch):
    # Byte counts are gated like every other count, whatever the part
    # counts: a record of another part count that ships less is drift.
    monkeypatch.setenv("REPRO_BENCH_RESULTS", str(tmp_path))
    assert main(["smoke", "--parts", "2", "--json"]) == 0
    baseline = tmp_path / "BENCH_smoke_p2_numpy.json"
    record = json.loads(baseline.read_text())
    record["parts"] = 4
    byte_keys = [k for k in record["counts"] if k.endswith("_bytes")]
    assert byte_keys
    for key in byte_keys:
        record["counts"][key] -= 1
    candidate = tmp_path / "BENCH_fewer_bytes.json"
    candidate.write_text(json.dumps(record))
    capsys.readouterr()
    assert main(["compare", str(baseline), str(candidate)]) == 1
    out = capsys.readouterr().out
    assert "note: partition counts differ: 2 vs 4" in out
    assert f"DRIFT ({len(byte_keys)} difference(s))" in out


def test_cli_compare_reports_missing_count_keys_explicitly(capsys, tmp_path, monkeypatch):
    # Regression: a key absent from one record rendered as "5 != None",
    # indistinguishable from a recorded null value.
    a = _write_record(tmp_path, monkeypatch, "a")
    record = json.loads(a.read_text())
    dropped = sorted(record["counts"])[0]
    value = record["counts"].pop(dropped)
    extra_value = 42
    record["counts"]["zzz/new_metric"] = extra_value
    b = tmp_path / "BENCH_missing.json"
    b.write_text(json.dumps(record))
    capsys.readouterr()
    assert main(["compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert f"counts[{dropped}]: missing from candidate (baseline has {value!r})" in out
    assert (
        f"counts[zzz/new_metric]: missing from baseline (candidate has {extra_value!r})"
        in out
    )
    assert "!= None" not in out and "None !=" not in out


def test_cli_compare_missing_key_vs_recorded_null_is_drift(capsys, tmp_path, monkeypatch):
    # A recorded null on one side must not mask a structurally missing key on
    # the other (counts.get() returns None for both, so a naive equality
    # short-circuit would pass the gate).
    a = _write_record(tmp_path, monkeypatch, "a")
    base = json.loads(a.read_text())
    key = sorted(base["counts"])[0]
    base["counts"][key] = None
    null_baseline = tmp_path / "BENCH_null.json"
    null_baseline.write_text(json.dumps(base))
    cand = json.loads(a.read_text())
    del cand["counts"][key]
    missing_candidate = tmp_path / "BENCH_missing2.json"
    missing_candidate.write_text(json.dumps(cand))
    capsys.readouterr()
    assert main(["compare", str(null_baseline), str(missing_candidate)]) == 1
    out = capsys.readouterr().out
    assert f"counts[{key}]: missing from candidate (baseline has None)" in out


def test_cli_compare_same_config_bytes_undercount_is_drift(capsys, tmp_path, monkeypatch):
    # Between records of the *same* execution configuration the byte counts
    # must be bit-identical: a smaller candidate value is under-accounting
    # (e.g. a backend skipping the shipped-bytes bookkeeping), not a win.
    monkeypatch.setenv("REPRO_BENCH_RESULTS", str(tmp_path))
    assert main(["smoke", "--parts", "2", "--json"]) == 0
    a = tmp_path / "BENCH_smoke_p2_numpy.json"
    b = tmp_path / "BENCH_undercount.json"
    record = json.loads(a.read_text())
    key = next(k for k in record["counts"] if k.endswith("total_shipped_bytes"))
    record["counts"][key] = record["counts"][key] - 1
    b.write_text(json.dumps(record))
    capsys.readouterr()
    assert main(["compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "DRIFT" in out and "shipped bytes: improved" not in out


def test_cli_rejects_candidate_without_compare(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["smoke", "base.json", "extra.json"])
    assert exc.value.code == 2
    assert "only valid with 'compare'" in capsys.readouterr().err
