"""Evaluation harness: every table and figure of the paper's §3.

* :mod:`repro.experiments.config` — sweep definitions (latency 0-20 ms,
  the four 802.11b rates) and run configuration.
* :mod:`repro.experiments.runner` — run one (workload x policy x link)
  cell and return its :class:`~repro.core.telemetry.RunResult` row.
* :mod:`repro.experiments.parallel` — run a matrix of cells, in-process
  or on a supervised process pool; every figure, the fault panel,
  ``flexfetch run`` and the seed-sensitivity report sweep through it.
* :mod:`repro.experiments.figures` — builders for Figures 1-5 and the
  fault panel.
* :mod:`repro.experiments.cache` — content-addressed run cache.
* :mod:`repro.experiments.tables` — Tables 1-3.
* :mod:`repro.experiments.report` — ASCII rendering and CSV export.
"""

from repro.experiments.cache import CODE_VERSION_SALT, RunCache, run_key
from repro.experiments.config import (
    BANDWIDTH_SWEEP_BPS,
    LATENCY_SWEEP,
    ExperimentConfig,
)
from repro.experiments.figures import (
    FIGURES,
    FigureResult,
    FlexFetchFactory,
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
)
from repro.experiments.parallel import ParallelSweepExecutor, SweepCellError
from repro.experiments.runner import (
    PolicyFactory,
    ProgramSet,
    SweepPoint,
    progress_line,
    run_point,
)
from repro.experiments.report import render_figure, render_table, sweep_to_csv
from repro.experiments.tables import table1, table2, table3

__all__ = [
    "BANDWIDTH_SWEEP_BPS",
    "CODE_VERSION_SALT",
    "LATENCY_SWEEP",
    "ExperimentConfig",
    "FIGURES",
    "FigureResult",
    "FlexFetchFactory",
    "ParallelSweepExecutor",
    "ProgramSet",
    "RunCache",
    "SweepCellError",
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "PolicyFactory",
    "SweepPoint",
    "progress_line",
    "run_key",
    "run_point",
    "render_figure",
    "render_table",
    "sweep_to_csv",
    "table1",
    "table2",
    "table3",
]
