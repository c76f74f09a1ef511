"""Benchmark-regression gate: pinned scenarios, digests and baselines.

The performance contract of the simulation core is enforced by two
artifacts built from the *same* pinned scenario set:

* the **golden fixture** (``tests/data/golden_hotpath.json``) pins the
  full :class:`~repro.metrics.report.SimulationReport` of every
  scenario, so a performance refactor can prove bit-identical
  simulation output (``tests/test_golden_hotpath.py``);
* the **bench baseline** (``BENCH_baseline.json`` at the repo root)
  pins output digests plus calibrated throughput, and
  ``scripts/bench_gate.py --check`` (or ``repro bench --check``) fails
  when output drifts *at all* or throughput regresses beyond
  ``THROUGHPUT_TOLERANCE``.

Raw requests/second is machine-dependent, so the gate normalises it by
a small pure-Python calibration loop measured in the same process
(:func:`calibrate`): the stored ``normalized_throughput`` is
``requests_per_second / calibration_score``, which is stable enough
across container generations for a 15% gate.

Scenario set (never reorder or edit in place — add new entries and
regenerate both artifacts if coverage must grow):

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
from pathlib import Path
from typing import Any, Callable

from ..config import FaultConfig, SimConfig, SSDConfig
from ..metrics.report import SimulationReport

#: allowed relative drop of normalized throughput before --check fails
THROUGHPUT_TOLERANCE = 0.15

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
    """The pinned gate scenario set, in stable order."""
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


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
#: full-suite measurement passes; each scenario's best wall is kept
#: (same best-of-rounds rationale as :func:`calibrate` — a background
#: blip on a shared host must not read as a throughput regression)
MEASURE_PASSES = 3


def measure(
    progress: Callable[[str], None] | None = None,
    *,
    passes: int = MEASURE_PASSES,
) -> dict:
    """Run every pinned scenario; returns the bench document.

    The whole suite runs ``passes`` times — each pass identical to a
    single-shot run, including a cleared trace memo and aged-device
    image cache so every pass pays the same generation and aging cost —
    and each scenario keeps its best wall.
    Simulation is deterministic, so the repeats double as a free
    determinism check: a digest that changes between passes is a bug
    and raises immediately."""
    from ..sim.image import IMAGES
    from ..traces.synthetic import _TRACE_MEMO

    calibration = calibrate()
    best: dict[str, dict] = {}
    order: list[str] = []
    for rep in range(max(1, passes)):
        _TRACE_MEMO.clear()
        IMAGES.clear()
        for sc in scenarios():
            if progress is not None:
                progress(f"running {sc.name} (pass {rep + 1}) ...")
            t0 = time.perf_counter()
            report = sc.run()
            wall = time.perf_counter() - t0
            rps = report.requests / wall if wall > 0 else 0.0
            entry = {
                "name": sc.name,
                "scheme": sc.scheme,
                "requests": report.requests,
                "wall_seconds": round(wall, 4),
                "requests_per_second": round(rps, 2),
                "normalized_throughput": rps / calibration,
                "digest": report_digest(report),
                "total_flash_reads": report.counters.total_reads,
                "total_flash_writes": report.counters.total_writes,
                "erases": report.counters.erases,
            }
            prev = best.get(sc.name)
            if prev is None:
                best[sc.name] = entry
                order.append(sc.name)
                continue
            if prev["digest"] != entry["digest"]:
                raise RuntimeError(
                    f"{sc.name}: non-deterministic report digest across "
                    f"measurement passes — {prev['digest'][:12]} vs "
                    f"{entry['digest'][:12]}"
                )
            if entry["wall_seconds"] < prev["wall_seconds"]:
                best[sc.name] = entry
    return {
        "format": 1,
        "calibration_score": round(calibration, 2),
        "tolerance": THROUGHPUT_TOLERANCE,
        "scenarios": [best[name] for name in order],
    }


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------
def compare(baseline: dict, current: dict) -> list[str]:
    """Problems in ``current`` vs ``baseline`` (empty = gate passes).

    Simulation-output drift (digest or flash-op-count mismatch) always
    fails; normalized throughput may drop by at most
    ``THROUGHPUT_TOLERANCE`` relative to the baseline.
    """
    problems: list[str] = []
    base_by_name = {e["name"]: e for e in baseline.get("scenarios", [])}
    tolerance = float(baseline.get("tolerance", THROUGHPUT_TOLERANCE))
    for entry in current.get("scenarios", []):
        name = entry["name"]
        base = base_by_name.pop(name, None)
        if base is None:
            problems.append(f"{name}: not present in baseline")
            continue
        for key in (
            "digest", "requests", "total_flash_reads",
            "total_flash_writes", "erases",
        ):
            if entry[key] != base[key]:
                problems.append(
                    f"{name}: simulation output drift — {key} "
                    f"{base[key]!r} -> {entry[key]!r}"
                )
        b = float(base["normalized_throughput"])
        c = float(entry["normalized_throughput"])
        if b > 0 and c < b * (1.0 - tolerance):
            problems.append(
                f"{name}: throughput regression — normalized "
                f"{c:.4f} vs baseline {b:.4f} "
                f"({100 * (1 - c / b):.1f}% drop > {100 * tolerance:.0f}%)"
            )
    for name in base_by_name:
        problems.append(f"{name}: scenario missing from current run")
    return problems


# ----------------------------------------------------------------------
# CLI entry point (shared by scripts/bench_gate.py and `repro bench`)
# ----------------------------------------------------------------------
def default_output_name() -> str:
    """``BENCH_<rev>.json`` from the git revision, or a fixed fallback."""
    import subprocess

    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except Exception:
        rev = "worktree"
    return f"BENCH_{rev or 'worktree'}.json"


def main(argv: list[str] | None = None) -> int:
    """Run the gate; returns a process exit code."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="bench_gate",
        description="Run the pinned bench scenarios and optionally "
        "compare against a committed baseline.",
    )
    parser.add_argument(
        "--baseline", default="BENCH_baseline.json",
        help="baseline JSON to compare against (default: %(default)s)",
    )
    parser.add_argument(
        "--out", default=None,
        help="output JSON path (default: BENCH_<git rev>.json)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="fail (exit 1) on output drift or throughput regression "
        "against the baseline",
    )
    args = parser.parse_args(argv)

    doc = measure(progress=lambda msg: print(f"[bench] {msg}", flush=True))
    out_path = Path(args.out or default_output_name())
    out_path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"[bench] wrote {out_path}")
    for entry in doc["scenarios"]:
        print(
            f"[bench] {entry['name']}: "
            f"{entry['requests_per_second']:.0f} req/s "
            f"(normalized {entry['normalized_throughput']:.4f}), "
            f"digest {entry['digest'][:12]}"
        )

    if not args.check:
        return 0
    baseline_path = Path(args.baseline)
    if not baseline_path.exists():
        print(f"[bench] FAIL: baseline {baseline_path} not found")
        return 1
    baseline = json.loads(baseline_path.read_text())
    problems = compare(baseline, doc)
    if problems:
        for p in problems:
            print(f"[bench] FAIL: {p}")
        return 1
    print(f"[bench] OK: all scenarios within gate vs {baseline_path}")
    return 0
