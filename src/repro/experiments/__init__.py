"""Experiment harness: lun1-lun6 workload presets, the scheme-comparison
runner with result memoisation, and one function per paper figure/table."""

from .charts import render_report_html
from .endurance import (
    EnduranceCell,
    EnduranceResult,
    endurance_specs,
    run_endurance,
)
from .parallel import (
    ResultStore,
    RunSpec,
    SweepOutcome,
    WorkerPool,
    execute_runs,
    run_key,
)
from .runner import ExperimentContext, compare_schemes, run_trace
from .summary import render_experiments_md
from .sweeps import SweepResult, sweep_config, sweep_sim, sweep_workload
from .workloads import TABLE2_SPECS, lun_specs, lun_traces

__all__ = [
    "EnduranceCell",
    "EnduranceResult",
    "ExperimentContext",
    "endurance_specs",
    "run_endurance",
    "run_trace",
    "compare_schemes",
    "TABLE2_SPECS",
    "lun_specs",
    "lun_traces",
    "SweepResult",
    "sweep_config",
    "sweep_sim",
    "sweep_workload",
    "render_report_html",
    "render_experiments_md",
    "ResultStore",
    "RunSpec",
    "SweepOutcome",
    "WorkerPool",
    "execute_runs",
    "run_key",
]
