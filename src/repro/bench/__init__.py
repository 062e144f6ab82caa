"""Benchmark harness helpers shared by the ``benchmarks/`` suite.

Each paper figure/table has one bench module that builds its workload
here, runs the experiment once under pytest-benchmark, and prints the
same rows/series the paper reports (see EXPERIMENTS.md for the
paper-vs-measured record).
"""

from repro.bench.parallel import (
    GridTask,
    ParallelRunner,
    make_grid,
    run_grid,
)
from repro.bench.workloads import (
    STANDARD_DURATION,
    run_baseline,
    run_baselines,
)
from repro.bench.tables import fmt_ms, fmt_pct, print_series, print_table

__all__ = [
    "STANDARD_DURATION",
    "GridTask",
    "ParallelRunner",
    "make_grid",
    "run_grid",
    "run_baseline",
    "run_baselines",
    "print_table",
    "print_series",
    "fmt_ms",
    "fmt_pct",
]
