"""Full-lifetime endurance scenarios: GC policy zoo × device aging.

Composes the pluggable GC policies (:mod:`repro.ftl.gc_policy`) with
the :mod:`repro.faults` RBER/wear model into endurance sweeps: the
device fills, ages under fault injection (blocks retire, OP shrinks)
and every policy is scored on the three axes the zoo exists to trade
off —

* **write amplification** (WAF: flash programs per host data program,
  the paper's Fig. 10 pressure made scalar);
* **wear variance** (erase-count std / Gini over the block population,
  the Fig. 11 endurance concern);
* **tail latency** (p99 per request class — GC interference with host
  traffic, which preemptive/partial GC is designed to bound).

The grid runs through the parallel runner (:func:`execute_runs`), so
``--jobs`` fan-out and :class:`ResultStore` memoisation apply; every
cell sets ``SimConfig.record_wear`` so the wear statistics ride the
report's ``extra`` block and survive the store round trip.  The
``repro endure`` CLI is a thin wrapper over this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from ..config import GC_POLICIES, FaultConfig, SSDConfig, SimConfig
from ..metrics.report import SimulationReport
from ..traces.model import Trace
from .parallel import ResultStore, RunSpec, execute_runs

__all__ = [
    "EnduranceCell",
    "EnduranceResult",
    "endurance_specs",
    "run_endurance",
]


@dataclass(frozen=True)
class EnduranceCell:
    """One scored grid point of an endurance sweep."""

    policy: str
    fault_level: float
    report: SimulationReport

    # -- the three scoring axes ----------------------------------------
    @property
    def waf(self) -> float:
        """Write amplification: flash programs per host data program."""
        c = self.report.counters
        host = c.data_writes
        return c.total_writes / host if host else 0.0

    @property
    def wear_std(self) -> float:
        return float(self.report.extra.get("wear_std", 0.0))

    @property
    def wear_gini(self) -> float:
        return float(self.report.extra.get("wear_gini", 0.0))

    @property
    def total_erases(self) -> int:
        return int(self.report.extra.get("wear_total_erases", 0))

    @property
    def p99_read_ms(self) -> float:
        return self.report.latency.summary("read_normal").p99_ms

    @property
    def p99_write_ms(self) -> float:
        return self.report.latency.summary("write_normal").p99_ms

    @property
    def retired_blocks(self) -> int:
        return int(self.report.extra.get("retired_blocks", 0))

    def row(self) -> list:
        """Table row for the CLI rendering (column order matches
        :data:`ROW_HEADERS`)."""
        c = self.report.counters
        return [
            round(self.waf, 3),
            self.total_erases,
            round(self.wear_std, 2),
            round(self.wear_gini, 3),
            c.gc_stalls,
            self.retired_blocks,
            round(self.p99_read_ms, 3),
            round(self.p99_write_ms, 3),
        ]


#: column headers matching :meth:`EnduranceCell.row`
ROW_HEADERS = [
    "WAF", "erases", "wear std", "gini", "stalls", "bad blk",
    "p99 rd ms", "p99 wr ms",
]


@dataclass(frozen=True)
class EnduranceResult:
    """All cells of one sweep, in (policy-major, level-minor) order."""

    scheme: str
    trace_name: str
    cells: tuple[EnduranceCell, ...]
    #: where the executed cells' aged devices came from
    #: (:attr:`~repro.experiments.parallel.SweepOutcome.images`)
    images: Mapping[str, int] = field(
        default_factory=dict, compare=False, hash=False
    )

    def rows(self) -> dict[str, list]:
        """``{label: row}`` for :func:`repro.cli.render_table`."""
        return {
            f"{c.policy} x{c.fault_level:g}": c.row() for c in self.cells
        }


def endurance_specs(
    trace: Trace,
    cfg: SSDConfig,
    sim_cfg: SimConfig,
    *,
    scheme: str = "across",
    policies: Sequence[str] = GC_POLICIES,
    fault_levels: Sequence[float] = (1.0,),
    fault_seed: int = 7,
    fault_base: FaultConfig | None = None,
) -> list[RunSpec]:
    """Build the (policy × fault level) grid of run specs.

    Level 0 disables injection entirely (the aging-free control);
    nonzero levels scale ``fault_base`` (default: the
    :meth:`FaultConfig.stress` preset seeded with ``fault_seed``).
    Every spec records wear statistics into the report extras.
    """
    for policy in policies:
        if policy not in GC_POLICIES:
            raise ValueError(
                f"unknown GC policy {policy!r}; expected one of {GC_POLICIES}"
            )
    base = fault_base if fault_base is not None else FaultConfig.stress(
        seed=fault_seed
    )
    specs = []
    for policy in policies:
        pol_cfg = cfg.replace(gc_policy=policy)
        for lvl in fault_levels:
            specs.append(RunSpec.make(
                scheme,
                trace,
                pol_cfg,
                replace(sim_cfg, faults=base.scaled(lvl), record_wear=True),
            ))
    return specs


def run_endurance(
    trace: Trace,
    cfg: SSDConfig,
    sim_cfg: SimConfig,
    *,
    scheme: str = "across",
    policies: Sequence[str] = GC_POLICIES,
    fault_levels: Sequence[float] = (1.0,),
    fault_seed: int = 7,
    fault_base: FaultConfig | None = None,
    jobs: int = 1,
    store: ResultStore | None = None,
    progress: bool = False,
) -> EnduranceResult:
    """Execute the endurance grid and score every cell."""
    specs = endurance_specs(
        trace, cfg, sim_cfg,
        scheme=scheme, policies=policies,
        fault_levels=fault_levels, fault_seed=fault_seed,
        fault_base=fault_base,
    )
    outcome = execute_runs(specs, jobs=jobs, store=store, progress=progress)
    cells = []
    it = iter(outcome.reports)
    for policy in policies:
        for lvl in fault_levels:
            cells.append(EnduranceCell(policy, float(lvl), next(it)))
    return EnduranceResult(scheme, trace.name, tuple(cells), outcome.images)
