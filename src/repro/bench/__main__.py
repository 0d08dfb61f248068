"""Command-line entry point for the experiment drivers.

Regenerate any of the paper's tables/figures without pytest::

    python -m repro.bench table1 --scale 0.01
    python -m repro.bench fig2 --matrices ecology2 thermal2
    python -m repro.bench all --scale 0.005
    python -m repro.bench smoke                        # fast CI sanity check
    python -m repro.bench table1 --jobs 4              # map the units over 4 processes
    python -m repro.bench table2 --json                # persist the JSON record

Every experiment is a registered :class:`repro.bench.experiment.Experiment`
(plan / map / reduce); ``Experiment.run`` maps the units itself, in order or,
with ``--jobs``, over its own process pool.

Flags
-----
``--jobs``
    Worker processes the experiment's units are mapped over (default 1: in
    order in this process). Caveat: in a pooled run the per-matrix *Python
    wall-clock* columns are measured while sibling matrices run
    concurrently, so pool contention inflates them; the modelled
    (traffic-derived) columns and all deterministic counts are unaffected,
    and the record's wall-clock measures the whole run, which is exactly
    what the pool accelerates. Fork-started workers keep the parent's BLAS
    thread count: run BLAS-heavy experiments (Table VI) pooled with
    ``OPENBLAS_NUM_THREADS=1``.
``--backend``
    With ``--parts`` only: the execution backend the partitioned kernels run
    their sessions on (default: ``numpy``, the reference). A flat run takes
    no backend. The backend is printed with the results and names the JSON
    record.
``--json``
    Additionally persist each run as a structured
    ``benchmarks/results/BENCH_<experiment>[_p<k>]_<backend>.json`` record
    (:class:`~repro.bench.experiment.ExperimentResult`), the perf-trajectory
    feed; ``REPRO_BENCH_RESULTS`` names another directory.

Partition-parallel runs (intra-graph sharding)::

    python -m repro.bench smoke --parts 4
    python -m repro.bench smoke --parts 4 --backend distributed

``--parts k`` splits every graph of a parts-aware experiment into ``k``
parts, runs the MIS / coloring / aggregation kernels through the
partition-parallel drivers, and *verifies bit-identicality against the
unpartitioned reference*; boundary and ghost-exchange stats land in the rows
and deterministic counts, and records persist under a ``_p<k>`` infix.
``--backend distributed`` runs the partitioned drivers over the registered
backend's two localhost rank processes through the socket transport (each
``--jobs`` worker over its own two ranks); results stay bit-identical and the
logical byte counts unchanged, while the cluster additionally meters actual
on-the-wire bytes (:meth:`repro.parallel.DistributedBackend.measured_stats`).

Regression gate over persisted records::

    python -m repro.bench smoke --json
    REPRO_BENCH_RESULTS=benchmarks/results/jobs2 python -m repro.bench smoke --jobs 2 --json
    python -m repro.bench compare benchmarks/results/BENCH_smoke_numpy.json \
        benchmarks/results/jobs2/BENCH_smoke_numpy.json

Cross-backend gate of a partitioned run (the paper's portability claim: the
same counts on every execution backend)::

    python -m repro.bench smoke --parts 4 --json
    python -m repro.bench smoke --parts 4 --backend distributed --json
    python -m repro.bench compare benchmarks/results/BENCH_smoke_p4_numpy.json \
        benchmarks/results/BENCH_smoke_p4_distributed.json

``compare`` fails (exit 1) on any deterministic-count drift between the two
records and on nothing else; it notes differing backends, partition counts
and pool widths.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from ..parallel.backends import available_backends

# Importing the package registers every experiment.
from . import BenchConfig, experiment_names, get_experiment
from .experiment import Experiment

__all__ = ["main", "EXPERIMENTS"]

#: Experiment name -> registered Experiment (populated by the bench module imports).
EXPERIMENTS: Dict[str, Experiment] = {name: get_experiment(name) for name in experiment_names()}


def main(argv: Optional[List[str]] = None) -> int:
    """Parse arguments, run the selected experiment(s) or comparison, print the tables."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all", "compare"],
        help="which table/figure to regenerate ('all' runs every experiment; "
             "'compare' diffs two BENCH_*.json records)",
    )
    parser.add_argument(
        "target",
        nargs="?",
        default=None,
        help="with 'compare': the baseline BENCH_*.json path",
    )
    parser.add_argument(
        "candidate",
        nargs="?",
        default=None,
        help="with 'compare': the candidate BENCH_*.json path",
    )
    parser.add_argument("--scale", type=float, default=BenchConfig().scale,
                        help="fraction of the paper's problem sizes for the stand-ins "
                             "(> 0)")
    parser.add_argument("--trials", type=int, default=1,
                        help="timed trials per measurement (>= 1)")
    parser.add_argument("--seed", type=int, default=0,
                        help="deterministic seed (>= 0, < 2**64)")
    parser.add_argument("--mtx-dir", default=None,
                        help="directory with real SuiteSparse .mtx files (optional)")
    parser.add_argument("--matrices", nargs="*", default=None,
                        help="subset of suite matrices to run")
    parser.add_argument("--backend", choices=available_backends(), default=None,
                        help="with --parts: the backend the partitioned sessions "
                             "run on (default: numpy)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes the units are mapped over "
                             "(default 1: in order in this process)")
    parser.add_argument("--parts", type=int, default=None,
                        help="intra-graph partition count for parts-aware experiments "
                             "(partition-parallel runs are verified bit-identical to "
                             "the unpartitioned reference)")
    parser.add_argument("--json", action="store_true",
                        help="persist each run as benchmarks/results/BENCH_*.json")
    args = parser.parse_args(argv)

    if args.jobs is not None and args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.parts is not None and args.parts < 1:
        parser.error("--parts must be >= 1")
    if args.trials < 1:
        parser.error("--trials must be >= 1")
    if not args.scale > 0:
        parser.error("--scale must be > 0")
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be >= 0 and < 2**64")

    if args.experiment == "compare":
        if args.target is None or args.candidate is None:
            parser.error(
                "compare requires two BENCH_*.json paths, e.g. "
                "'compare benchmarks/results/BENCH_smoke_numpy.json "
                "benchmarks/results/jobs2/BENCH_smoke_numpy.json'"
            )
        from .compare import compare_files

        return compare_files(args.target, args.candidate)

    if args.target is not None:
        parser.error("record paths are only valid with 'compare'")
    if args.parts is None and args.backend is not None:
        # A backend picks only where a partitioned call's parts run; on a
        # flat run every backend would run the same code.
        parser.error("--backend is only valid for a partitioned run (--parts)")

    # 'all' regenerates the paper's tables/figures; the smoke check is CI-only.
    names = (
        [n for n in sorted(EXPERIMENTS) if n != "smoke"]
        if args.experiment == "all"
        else [args.experiment]
    )
    if args.parts is not None:
        # Anything not parts-aware would run unpartitioned while its record
        # says parts=k.
        unaware = [n for n in names if not EXPERIMENTS[n].parts_aware]
        if unaware:
            aware = sorted(n for n, e in EXPERIMENTS.items() if e.parts_aware)
            parser.error(
                f"experiment {unaware[0]!r} does not support --parts "
                f"(parts-aware experiments: {aware})"
            )

    config = BenchConfig(
        scale=args.scale,
        trials=args.trials,
        seed=args.seed,
        mtx_dir=args.mtx_dir,
        matrices=tuple(args.matrices) if args.matrices else None,
        backend=args.backend,
        parts=args.parts,
    )
    if config.parts is not None:
        print(f"backend: {config.backend or 'numpy'}")
        print(f"parts: {config.parts} (partition-parallel, verified vs reference)")
        print()
    for name in names:
        result, text = EXPERIMENTS[name].run_and_render(config, jobs=args.jobs)
        print(text)
        if args.json:
            print(f"wrote {result.save()}")
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the CLI test
    sys.exit(main())
