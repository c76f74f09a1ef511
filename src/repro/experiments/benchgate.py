"""Pinned scenarios, report digests and the host calibration loop.

The pinned scenario set reproduces the paper's Fig. 9/10/11 pipeline
at tiny scale.  The **golden fixture**
(``tests/data/golden_hotpath.json``) pins the full
:class:`~repro.metrics.report.SimulationReport` of every scenario, so a
refactor can prove bit-identical simulation output
(``tests/test_golden_hotpath.py``).  Speed is judged end to end by
``benchmarks/e2e``, which runs :func:`calibrate` before and after each
pass to report the host's speed and mark drifting passes noisy.

Scenario set (never reorder or edit in place — add new entries and
regenerate the golden fixture if coverage must grow):

* ``fig09-lun1-{ftl,mrsm,across}`` — the Fig. 9/10/11 pipeline at tiny
  scale: VDI-aged bench device, lun1 replay, one run per scheme
  (latency distributions cover Fig. 9, flash-op counters Fig. 10,
  erase counts Fig. 11);
* ``faults-stress-ftl`` — the reliability stress preset on the tiny
  device (read retries, reprogram pulses, bad-block retirement);
* ``hotpath-lun1-across`` — a larger un-aged across-scheme replay that
  isolates measured-path throughput from aging throughput.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Any, Callable

from ..config import FaultConfig, SimConfig, SSDConfig
from ..metrics.report import SimulationReport

#: report keys that vary run-to-run without any behaviour change
_VOLATILE_KEYS = ("wall_seconds",)


@dataclass(frozen=True)
class Scenario:
    """One pinned (device, trace, scheme, sim-options) point."""

    name: str
    scheme: str
    #: builders keep the dataclass hashable and the configs immutable
    make_cfg: Callable[[], SSDConfig]
    make_trace: Callable[[SSDConfig], Any]
    make_sim_cfg: Callable[[], SimConfig]

    def run(self) -> SimulationReport:
        """Simulate the scenario on a fresh device."""
        from .runner import run_trace

        cfg = self.make_cfg()
        trace = self.make_trace(cfg)
        sim_cfg = self.make_sim_cfg()
        return run_trace(self.scheme, trace, cfg, sim_cfg)


def _lun1_trace(cfg: SSDConfig, scale: float):
    from ..traces.synthetic import generate_trace
    from .workloads import lun_specs

    spec = next(
        s for s in lun_specs(cfg, scale=scale, footprint_fraction=0.8)
        if s.name == "lun1"
    )
    return generate_trace(spec)


def _faults_trace(cfg: SSDConfig):
    from ..traces.synthetic import SyntheticSpec, generate_trace

    spec = SyntheticSpec(
        name="faults-stress",
        requests=2_000,
        write_ratio=0.6,
        across_ratio=0.25,
        mean_write_kb=9.0,
        footprint_sectors=int(cfg.logical_sectors * 0.6),
        seed=77,
    )
    return generate_trace(spec)


def _aged_sim_cfg() -> SimConfig:
    return SimConfig(aged_used=0.30, aged_valid=0.10, aging_style="vdi")


def scenarios() -> tuple[Scenario, ...]:
    """The pinned scenario set, in stable order."""
    points = [
        Scenario(
            name=f"fig09-lun1-{scheme}",
            scheme=scheme,
            make_cfg=SSDConfig.bench_default,
            make_trace=lambda cfg: _lun1_trace(cfg, scale=0.005),
            make_sim_cfg=_aged_sim_cfg,
        )
        for scheme in ("ftl", "mrsm", "across")
    ]
    points.append(
        Scenario(
            name="faults-stress-ftl",
            scheme="ftl",
            make_cfg=SSDConfig.tiny,
            make_trace=_faults_trace,
            make_sim_cfg=lambda: SimConfig(faults=FaultConfig.stress()),
        )
    )
    points.append(
        Scenario(
            name="hotpath-lun1-across",
            scheme="across",
            make_cfg=SSDConfig.bench_default,
            make_trace=lambda cfg: _lun1_trace(cfg, scale=0.02),
            make_sim_cfg=SimConfig,
        )
    )
    return tuple(points)


# ----------------------------------------------------------------------
# digests
# ----------------------------------------------------------------------
def strip_volatile(doc: dict) -> dict:
    """A ``SimulationReport.to_dict()`` document without its volatile
    (wall-clock) keys — the form every digest is taken over."""
    return {k: v for k, v in doc.items() if k not in _VOLATILE_KEYS}


def canonical_report_dict(report: SimulationReport) -> dict:
    """``report.to_dict()`` with volatile (wall-clock) keys removed."""
    return strip_volatile(report.to_dict())


def report_digest(report: SimulationReport) -> str:
    """Stable SHA-256 over the canonical report JSON."""
    blob = json.dumps(canonical_report_dict(report), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


# ----------------------------------------------------------------------
# calibration
# ----------------------------------------------------------------------
def calibrate(rounds: int = 5) -> float:
    """Machine-speed score from a fixed pure-Python workload.

    Returns iterations/second of a small integer/dict workload that
    exercises the same interpreter operations the simulator hot path
    does.  The best of ``rounds`` runs is used so a background blip
    cannot depress the score.
    """
    n = 200_000

    def one_round() -> float:
        table = [0] * 512
        d: dict[int, int] = {}
        t0 = time.perf_counter()
        acc = 0
        for i in range(n):
            j = i & 511
            table[j] = i
            acc += table[j] & 0xFF
            d[j] = acc
        elapsed = time.perf_counter() - t0
        if acc < 0 or len(d) != 512:  # keep the loop un-eliminable
            raise RuntimeError("calibration loop broken")
        return n / elapsed

    return max(one_round() for _ in range(rounds))
