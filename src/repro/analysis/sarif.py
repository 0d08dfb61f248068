"""SARIF 2.1.0 emission for analyzer reports.

`SARIF <https://docs.oasis-open.org/sarif/sarif/v2.1.0/sarif-v2.1.0.html>`_ is
the interchange format GitHub code scanning ingests; CI uploads the file via
``github/codeql-action/upload-sarif`` so findings render as inline review
annotations instead of a log to grep.  The emitter maps:

* one analyzer run → one ``run`` with the full rule catalogue in
  ``tool.driver.rules`` (id, short description from the owning family);
* one :class:`~repro.analysis.findings.Finding` → one ``result`` with
  ``ruleId``, ``level: error``, the message text, and a single physical
  location (repo-relative URI + start line);
* suppressed/baselined findings → ``results`` with a ``suppressions`` entry
  (kind ``inSource`` / ``external``) so reviewers can still see them without
  the run failing.

Only stable, deterministic fields are emitted — no timestamps, GUIDs, or
absolute paths — so two runs over the same tree produce byte-identical files.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from .engine import AnalysisReport, Rule, all_rules
from .findings import BAD_SUPPRESSION_RULE, Finding

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

TOOL_NAME = "repro-analysis"
TOOL_URI = "https://example.invalid/repro/src/repro/analysis"


def _rule_catalogue(rules: Sequence[Rule]) -> List[Dict[str, object]]:
    out: List[Dict[str, object]] = []
    seen = set()
    for rule in rules:
        for rule_id in rule.ids:
            if rule_id in seen:
                continue
            seen.add(rule_id)
            out.append(
                {
                    "id": rule_id,
                    "name": rule_id.replace("-", " ").title().replace(" ", ""),
                    "shortDescription": {
                        "text": f"{rule.name} family: {rule_id}",
                    },
                }
            )
    out.append(
        {
            "id": BAD_SUPPRESSION_RULE,
            "name": "BadSuppression",
            "shortDescription": {
                "text": "engine: suppression comment without a justification",
            },
        }
    )
    out.sort(key=lambda r: str(r["id"]))
    return out


def _result(finding: Finding, suppression_kind: str = "") -> Dict[str, object]:
    result: Dict[str, object] = {
        "ruleId": finding.rule,
        "level": "error",
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.path.replace("\\", "/"),
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {"startLine": max(finding.line, 1)},
                }
            }
        ],
    }
    if suppression_kind:
        result["suppressions"] = [{"kind": suppression_kind}]
    return result


def report_to_sarif(report: AnalysisReport) -> Dict[str, object]:
    """Render ``report`` as a SARIF 2.1.0 log dict (stable field order)."""
    results: List[Dict[str, object]] = []
    for finding in report.findings:
        results.append(_result(finding))
    for finding in report.suppressed:
        results.append(_result(finding, suppression_kind="inSource"))
    for finding in report.baselined:
        results.append(_result(finding, suppression_kind="external"))
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": TOOL_NAME,
                        "informationUri": TOOL_URI,
                        "rules": _rule_catalogue(all_rules()),
                    }
                },
                "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
                "results": results,
                "columnKind": "utf16CodeUnits",
            }
        ],
    }


def write_sarif(path: str, report: AnalysisReport) -> None:
    """Write ``report`` to ``path`` as deterministic, sorted-key JSON."""
    payload = report_to_sarif(report)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
