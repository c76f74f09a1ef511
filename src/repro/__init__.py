"""Across-FTL: re-aligning across-page requests for flash-based SSDs.

A full reproduction of Cai et al., ICPP 2023.  The package contains:

* the SSD simulator substrate (:mod:`repro.flash`, :mod:`repro.sim`) —
  geometry, NAND protocol, chip timing, GC, DRAM caches;
* three FTL schemes (:mod:`repro.ftl`, :mod:`repro.core`) — the
  baseline page-map FTL, the MRSM comparator and the paper's
  Across-FTL;
* trace infrastructure (:mod:`repro.traces`) — SYSTOR'17/MSR parsers
  and the calibrated synthetic VDI workloads;
* the experiment harness (:mod:`repro.experiments`) regenerating every
  table and figure of the paper's evaluation.

Quickstart::

    from repro import SSDConfig, run_trace, generate_trace, SyntheticSpec

    cfg = SSDConfig.bench_default()
    spec = SyntheticSpec("demo", 5_000, 0.6, 0.25, 9.0,
                         footprint_sectors=cfg.logical_sectors // 2)
    trace = generate_trace(spec)
    report = run_trace("across", trace, cfg)
    print(report.mean_write_ms, report.erase_count)
"""

from .check import (
    DifferentialResult,
    FuzzOutcome,
    InvariantChecker,
    ReplayFailure,
    checked_sim_cfg,
    differential_replay,
    dump_counterexample,
    load_counterexample,
    random_spec,
    replay_counterexample,
    run_fuzz,
    shrink_trace,
)
from .config import (
    BatchConfig,
    CheckConfig,
    FaultConfig,
    FrontendConfig,
    SCHEMES,
    SimConfig,
    SSDConfig,
    TimingConfig,
)
from .core.across import AcrossFTL, AcrossStats
from .core.amt import AcrossMappingTable, AMTEntry
from .errors import (
    ConfigError,
    FlashProtocolError,
    GeometryError,
    InvariantViolation,
    MappingError,
    OutOfSpaceError,
    ReproError,
    SimulationError,
    SweepError,
    TraceFormatError,
)
from .faults import FaultInjector, raw_bit_error_rate, read_retry_steps
from .experiments.runner import ExperimentContext, compare_schemes, run_trace
from .experiments.workloads import TABLE2_SPECS, lun_specs, lun_traces
from .experiments.endurance import (
    EnduranceCell,
    EnduranceResult,
    endurance_specs,
    run_endurance,
)
from .fleet import (
    FleetConfig,
    FleetService,
    ShardPlan,
    TenantQos,
    aggregate_qos,
    compose_shards,
    fleet_summary,
    shard_of,
    tenant_weights,
)
from .flash.service import FlashService
from .flash.wear import WearStats, projected_lifetime_writes, wear_stats
from .ftl import MRSMFTL, PageMapFTL, make_ftl
from .ftl.gc import GC_POLICIES
from .ftl.gc_policy import GcPolicy, make_policy
from .geometry import FlashGeometry, PhysAddr
from .metrics.report import SimulationReport, normalize, render_table
from .metrics.series import CounterSeries, Snapshot
from .metrics.sketch import LogHistogram
from .metrics.timeline import RequestLog
from .obs.attribution import AttributionRecorder, PHASES, REQUEST_CLASSES
from .sim.engine import Simulator
from .sim.oracle import OracleMismatch, SectorOracle
from .traces.model import OP_READ, OP_TRIM, OP_WRITE, Trace
from .traces.blktrace import load_blktrace
from .traces.lint import Finding, lint_trace
from .traces.msr import load_msr
from .traces.stats import TraceStats, across_page_ratio, characterize
from .traces.synthetic import (
    SyntheticSpec,
    VDIWorkloadGenerator,
    generate_trace,
    spec_from_stats,
    trace_collection,
)
from .traces.systor import load_systor, save_systor
from .traces.workload_spec import (
    Phase,
    WorkloadSpec,
    compile_workload,
    validate_spec,
)
from .units import is_across_page, lpn_range, sectors_per_page, split_extent

__version__ = "1.0.0"

__all__ = [
    # configuration
    "SSDConfig",
    "SimConfig",
    "TimingConfig",
    "FaultConfig",
    "CheckConfig",
    "BatchConfig",
    "FrontendConfig",
    "SCHEMES",
    # substrate
    "FlashService",
    "FlashGeometry",
    "PhysAddr",
    "Simulator",
    "SectorOracle",
    "OracleMismatch",
    # FTL schemes
    "AcrossFTL",
    "AcrossStats",
    "AcrossMappingTable",
    "AMTEntry",
    "PageMapFTL",
    "MRSMFTL",
    "make_ftl",
    "GC_POLICIES",
    "GcPolicy",
    "make_policy",
    "WearStats",
    "wear_stats",
    "projected_lifetime_writes",
    # reliability / fault injection
    "FaultInjector",
    "raw_bit_error_rate",
    "read_retry_steps",
    # correctness harness (repro.check)
    "InvariantChecker",
    "DifferentialResult",
    "ReplayFailure",
    "checked_sim_cfg",
    "differential_replay",
    "FuzzOutcome",
    "random_spec",
    "run_fuzz",
    "shrink_trace",
    "dump_counterexample",
    "load_counterexample",
    "replay_counterexample",
    # traces
    "Trace",
    "OP_READ",
    "OP_WRITE",
    "OP_TRIM",
    "SyntheticSpec",
    "VDIWorkloadGenerator",
    "generate_trace",
    "spec_from_stats",
    "trace_collection",
    "load_systor",
    "save_systor",
    "load_msr",
    "load_blktrace",
    "Phase",
    "WorkloadSpec",
    "compile_workload",
    "validate_spec",
    "TraceStats",
    "characterize",
    "across_page_ratio",
    # experiments
    "ExperimentContext",
    "run_trace",
    "compare_schemes",
    "TABLE2_SPECS",
    "lun_specs",
    "lun_traces",
    "EnduranceCell",
    "EnduranceResult",
    "endurance_specs",
    "run_endurance",
    # fleet-scale serving
    "FleetConfig",
    "FleetService",
    "ShardPlan",
    "TenantQos",
    "aggregate_qos",
    "compose_shards",
    "fleet_summary",
    "shard_of",
    "tenant_weights",
    # metrics / attribution
    "SimulationReport",
    "normalize",
    "render_table",
    "CounterSeries",
    "Snapshot",
    "RequestLog",
    "LogHistogram",
    "AttributionRecorder",
    "PHASES",
    "REQUEST_CLASSES",
    "Finding",
    "lint_trace",
    # units
    "is_across_page",
    "sectors_per_page",
    "split_extent",
    "lpn_range",
    # errors
    "ReproError",
    "ConfigError",
    "GeometryError",
    "FlashProtocolError",
    "OutOfSpaceError",
    "MappingError",
    "InvariantViolation",
    "TraceFormatError",
    "SimulationError",
    "SweepError",
]
