"""CLI for the contract checker: ``python -m repro.analysis [paths...]``.

Exit status: 0 when the tree is clean (after suppressions and the baseline),
1 when unsuppressed findings remain, 2 on usage/IO errors.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import textwrap
from typing import List, Optional, Sequence

from .engine import all_rules, run_analysis
from .findings import load_baseline, write_baseline


def _default_paths() -> List[str]:
    for candidate in ("src/repro", "repro"):
        if os.path.isdir(candidate):
            return [candidate]
    return []


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="AST-based contract checker for the repro stack "
        "(determinism, lock discipline, byte-meter coverage, picklability).",
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--baseline", metavar="FILE", default=None,
        help="committed baseline of accepted findings to subtract",
    )
    parser.add_argument(
        "--write-baseline", metavar="FILE", default=None,
        help="write current unsuppressed findings to FILE and exit 0",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the full report as JSON on stdout",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list rule families and their finding ids",
    )
    parser.add_argument(
        "--explain", metavar="RULE", default=None,
        help="print a rule family's documentation and an example, then exit "
        "(accepts a family name like 'races' or a finding id like "
        "'race-unguarded-write')",
    )
    parser.add_argument(
        "--sarif", metavar="FILE", default=None,
        help="also write the report as a SARIF 2.1.0 log for code-scanning "
        "upload",
    )
    return parser


def explain_rule(query: str) -> Optional[str]:
    """Documentation text for a rule family (by name or finding id)."""
    for rule in all_rules():
        if query != rule.name and query not in rule.ids:
            continue
        module = importlib.import_module(type(rule).__module__)
        parts = [
            f"{rule.name}: {', '.join(rule.ids)}",
            "",
            (module.__doc__ or "(no documentation)").strip(),
        ]
        if rule.example:
            parts += ["", "Example:", textwrap.indent(rule.example.strip("\n"), "    ")]
        return "\n".join(parts)
    return None


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:
        # stdout reader (e.g. ``| head``) went away; not our error.  Detach
        # stdout so the interpreter's shutdown flush cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


def _main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.name}: {', '.join(rule.ids)}")
        return 0

    if args.explain is not None:
        text = explain_rule(args.explain)
        if text is None:
            known = ", ".join(sorted(r.name for r in all_rules()))
            print(
                f"error: unknown rule {args.explain!r} (families: {known}; "
                "see --list-rules for finding ids)",
                file=sys.stderr,
            )
            return 2
        print(text)
        return 0

    paths = list(args.paths) or _default_paths()
    if not paths:
        print("error: no paths given and no src/repro directory found", file=sys.stderr)
        return 2

    baseline = None
    if args.baseline is not None:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot load baseline: {exc}", file=sys.stderr)
            return 2

    try:
        report = run_analysis(paths=paths, baseline=baseline)
    except (OSError, SyntaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.sarif is not None:
        from .sarif import write_sarif

        write_sarif(args.sarif, report)

    if args.write_baseline is not None:
        write_baseline(args.write_baseline, report.findings)
        print(
            f"wrote {len(report.findings)} finding(s) to {args.write_baseline}"
        )
        return 0

    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
        return 0 if report.clean else 1

    for finding in report.findings:
        print(finding.format())
        print(f"    suppress with: {finding.suppression_hint()}")
    tail = (
        f"{report.modules_checked} module(s) checked, "
        f"{len(report.findings)} finding(s), "
        f"{len(report.suppressed)} suppressed, "
        f"{len(report.baselined)} baselined"
    )
    if report.clean:
        print(f"analysis clean: {tail}")
        return 0
    print(tail)
    return 1


if __name__ == "__main__":
    sys.exit(main())
