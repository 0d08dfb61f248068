"""Tests for the `python -m repro.analysis` command-line interface."""

import json

import pytest

from repro.analysis.__main__ import main

from .helpers import REPO_SRC

BAD_SOURCE = """\
import threading


class Store:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0  # guarded-by: _lock

    def bump(self):
        self.count += 1
"""

CLEAN_SOURCE = """\
import threading


class Store:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0  # guarded-by: _lock

    def bump(self):
        with self._lock:
            self.count += 1
"""


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "store.py"
    path.write_text(BAD_SOURCE)
    return path


def test_cli_clean_tree_exits_zero(tmp_path, capsys):
    path = tmp_path / "store.py"
    path.write_text(CLEAN_SOURCE)
    code = main([str(path)])
    assert code == 0
    assert "analysis clean" in capsys.readouterr().out


def test_cli_findings_exit_one_with_readable_report(bad_file, capsys):
    code = main([str(bad_file)])
    assert code == 1
    out = capsys.readouterr().out
    # file:line, rule id, message, suppression hint
    assert f"{bad_file}:10: [lock-guard]" in out
    assert "guarded by '_lock'" in out
    assert "# analysis-ok: lock-guard" in out
    assert "1 finding(s)" in out


def test_cli_json_report(bad_file, capsys):
    code = main(["--json", str(bad_file)])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["modules_checked"] == 1
    [finding] = payload["findings"]
    assert finding["rule"] == "lock-guard" and finding["line"] == 10


def test_cli_baseline_round_trip(bad_file, tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    assert main(["--write-baseline", str(baseline), str(bad_file)]) == 0
    assert "wrote 1 finding(s)" in capsys.readouterr().out

    code = main(["--baseline", str(baseline), str(bad_file)])
    assert code == 0
    out = capsys.readouterr().out
    assert "analysis clean" in out and "1 baselined" in out


def test_cli_bad_baseline_exits_two(bad_file, tmp_path, capsys):
    baseline = tmp_path / "broken.json"
    baseline.write_text("{}")
    assert main(["--baseline", str(baseline), str(bad_file)]) == 2
    assert "cannot load baseline" in capsys.readouterr().err


def test_cli_missing_path_exits_two(tmp_path, capsys):
    assert main([str(tmp_path / "nope")]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in (
        "det-wallclock", "det-set-iter", "lock-guard", "bytes-socket",
        "bytes-pickle", "pickle-callable", "backend-concrete",
        "race-unguarded-write", "race-inconsistent-lockset",
        "race-annotation-mismatch", "race-missing-annotation",
        "dtype-size-dependent",
    ):
        assert rule_id in out
    assert "dtype-seam-divergence" not in out


def test_cli_explain_by_family_name(capsys):
    assert main(["--explain", "races"]) == 0
    out = capsys.readouterr().out
    assert "race-unguarded-write" in out
    assert "Lockset-inference race detection" in out
    assert "Example:" in out


def test_cli_explain_by_finding_id(capsys):
    assert main(["--explain", "dtype-size-dependent"]) == 0
    out = capsys.readouterr().out
    assert "dtype-flow" in out
    assert "platform" in out
    assert "Example:" in out


def test_cli_explain_every_shipped_family(capsys):
    from repro.analysis.engine import all_rules

    for rule in all_rules():
        assert main(["--explain", rule.name]) == 0
        out = capsys.readouterr().out
        assert rule.name in out and "Example:" in out


def test_cli_explain_unknown_rule_exits_two(capsys):
    assert main(["--explain", "no-such-rule"]) == 2
    err = capsys.readouterr().err
    assert "unknown rule" in err and "races" in err


def test_cli_jobs_is_a_usage_error(bad_file, capsys):
    # The analyzer checks modules in this process; there is no worker pool.
    with pytest.raises(SystemExit) as exc:
        main(["--jobs", "2", str(bad_file)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs" in capsys.readouterr().err


def test_cli_sarif_writes_valid_log(bad_file, tmp_path, capsys):
    out_file = tmp_path / "report.sarif"
    code = main(["--sarif", str(out_file), str(bad_file)])
    assert code == 1  # findings still gate the exit status
    payload = json.loads(out_file.read_text())
    assert payload["version"] == "2.1.0"
    results = payload["runs"][0]["results"]
    assert [r["ruleId"] for r in results] == ["lock-guard"]


def test_cli_rejects_unknown_flag():
    with pytest.raises(SystemExit):
        main(["--frobnicate"])


def test_repro_tree_is_clean_for_the_cli(capsys):
    """The committed tree must stay at zero unsuppressed findings — this is
    the same invariant the lint-analysis CI job gates."""
    code = main([str(REPO_SRC)])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "analysis clean" in out
