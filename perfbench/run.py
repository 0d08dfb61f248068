"""Run one benchmark workload against the library in this checkout's ``src/``.

    python3 perfbench/run.py --workload amg --seed 1 --seconds 20 --trace 0

Prints a report, then, as the last line of standard output, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The full record (and, traced, every span) is written to
``perfbench/out/``. Exits 2 without a result when the library source is
missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library source at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # One BLAS thread: on a host of two cores a second one spins beside the
    # rank processes and the service's threads.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from report import execute
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    result, record, spans, report = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    record["spans"] = [span.to_dict() for span in spans]
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    print(report)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
