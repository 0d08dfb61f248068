"""Benchmark / experiment drivers.

One module per table or figure of the paper's evaluation section (Section VI); each
expresses its sweep declaratively through the :mod:`~repro.bench.experiment`
framework — a *plan* stage producing picklable work units, a module-level *task*
function that ``Experiment.run`` maps over the units (in order, or over its own
process pool with ``jobs >= 2``), and a *render* stage printing
the same rows the paper reports (plus the published reference numbers). Each paper
module still exposes the classic ``run_*`` function returning structured rows and the
``*_table`` formatter; ``Experiment.run`` additionally returns a JSON-persistable
:class:`~repro.bench.experiment.ExperimentResult`, and
:func:`~repro.bench.compare.compare_files` gates two such records on their
deterministic counts. The ``benchmarks/`` directory at the repository root wraps
these drivers with pytest-benchmark targets.
"""

from __future__ import annotations

from .config import (
    BenchConfig,
    cached_suite_graph,
    cached_suite_matrix,
    clear_suite_cache,
    suite_cache_stats,
)
from .experiment import (
    Experiment,
    ExperimentResult,
    default_results_dir,
    experiment_names,
    get_experiment,
    register_experiment,
    run_experiment,
)
from .compare import ComparisonReport, compare_files, compare_results
from .table1 import Table1Row, run_table1, table1_table
from .table2 import Table2Row, run_table2, table2_table
from .table3 import Table3Row, run_table3, table3_table, PAPER_TABLE3
from .table4 import Table4Row, run_table4, table4_table
from .table5 import Table5Row, run_table5, table5_table, PAPER_TABLE5, AGGREGATION_SCHEMES
from .table6 import Table6Row, run_table6, table6_table, PAPER_TABLE6, TABLE6_MATRICES
from .fig2 import Fig2Row, run_fig2, fig2_table, fig2_geometric_means, PAPER_FIG2_MEANS
from .fig3 import Fig3Row, run_fig3, fig3_table
from .fig45 import ScalingRow, run_scaling, scaling_table, DEFAULT_THREAD_COUNTS
from .fig67 import SpeedupRow, run_fig6, run_fig7, speedup_table
from .smoke import SmokeRow, smoke_table

__all__ = [
    "BenchConfig",
    "cached_suite_graph",
    "cached_suite_matrix",
    "clear_suite_cache",
    "suite_cache_stats",
    "Experiment",
    "ExperimentResult",
    "default_results_dir",
    "experiment_names",
    "get_experiment",
    "register_experiment",
    "run_experiment",
    "ComparisonReport", "compare_files", "compare_results",
    "Table1Row", "run_table1", "table1_table",
    "Table2Row", "run_table2", "table2_table",
    "Table3Row", "run_table3", "table3_table", "PAPER_TABLE3",
    "Table4Row", "run_table4", "table4_table",
    "Table5Row", "run_table5", "table5_table", "PAPER_TABLE5", "AGGREGATION_SCHEMES",
    "Table6Row", "run_table6", "table6_table", "PAPER_TABLE6", "TABLE6_MATRICES",
    "Fig2Row", "run_fig2", "fig2_table", "fig2_geometric_means", "PAPER_FIG2_MEANS",
    "Fig3Row", "run_fig3", "fig3_table",
    "ScalingRow", "run_scaling", "scaling_table", "DEFAULT_THREAD_COUNTS",
    "SpeedupRow", "run_fig6", "run_fig7", "speedup_table",
    "SmokeRow", "smoke_table",
]
