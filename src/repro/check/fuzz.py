"""Randomised differential fuzzing over synthetic workloads.

Each case draws a random :class:`~repro.traces.synthetic.SyntheticSpec`
(knobs sampled inside their validated ranges), optionally flips a slice
of its writes to TRIMs (the trim paths are where bookkeeping bugs like
the dropped ``RequestLog`` rows hid), generates the trace on a tiny
geometry, and feeds it to
:func:`~repro.check.differential.differential_replay`.  Failures are
shrunk (:func:`~repro.check.shrink.shrink_trace`) and dumped as JSON
counterexamples that ``repro check --replay`` re-runs.

Everything is seed-driven: ``run_fuzz(n, seed=s)`` explores the same
``n`` cases every time, which is what lets CI run a bounded budget and
a developer reproduce case ``i`` locally with the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from ..config import SCHEMES, SimConfig, SSDConfig
from ..traces.model import OP_TRIM, OP_WRITE, Trace
from ..traces.synthetic import SyntheticSpec, VDIWorkloadGenerator
from ..units import MIB
from .differential import DifferentialResult, differential_replay
from .shrink import dump_counterexample, shrink_trace


def random_spec(
    rng: np.random.Generator,
    *,
    footprint_sectors: int,
    requests: int = 400,
    name: str = "fuzz",
) -> SyntheticSpec:
    """A random workload spec with every knob inside its valid range."""
    p_overwrite = 0.35 + 0.45 * rng.random()
    p_extend = (1.0 - p_overwrite) * 0.5 * rng.random()
    spec = SyntheticSpec(
        name=name,
        requests=requests,
        write_ratio=0.35 + 0.55 * rng.random(),
        across_ratio=0.05 + 0.35 * rng.random(),
        mean_write_kb=4.0 + 8.0 * rng.random(),
        footprint_sectors=footprint_sectors,
        seed=int(rng.integers(1, 1 << 30)),
        interarrival_ms=float(2.0 + 8.0 * rng.random()),
        site_reuse=0.2 + 0.7 * rng.random(),
        p_overwrite=p_overwrite,
        p_extend=p_extend,
        small_unaligned=0.1 + 0.5 * rng.random(),
        p_read_beyond=0.02 * rng.random(),
    )
    spec.validate()
    return spec


def with_trims(
    trace: Trace, ratio: float, rng: np.random.Generator
) -> Trace:
    """Flip ``ratio`` of the trace's writes to TRIMs (same extents)."""
    if ratio <= 0:
        return trace
    ops = trace.ops.copy()
    writes = np.nonzero(ops == OP_WRITE)[0]
    flip = writes[rng.random(writes.size) < ratio]
    ops[flip] = OP_TRIM
    return Trace(trace.name, trace.times, ops, trace.offsets, trace.sizes)


@dataclass
class FuzzOutcome:
    """Result of one :func:`run_fuzz` campaign."""

    cases: int = 0
    #: (case index, result) for every failing case
    failures: list[tuple[int, DifferentialResult]] = field(
        default_factory=list
    )
    #: counterexample files written (one per failing case, when an
    #: output directory was given)
    artifacts: list[Path] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def run_fuzz(
    n: int,
    *,
    seed: int = 2023,
    cfg: SSDConfig | None = None,
    schemes=SCHEMES,
    every: int = 256,
    requests: int = 400,
    trim_ratio: float = 0.04,
    out_dir=None,
    shrink_budget: int = 64,
    compare_jobs_case: int | None = 0,
    attribution: bool = False,
    frontend: bool = False,
    policies: tuple = (),
    log: Optional[Callable[[str], None]] = None,
) -> FuzzOutcome:
    """Run ``n`` seeded differential fuzz cases on a small geometry.

    Case ``i`` derives its RNG from ``seed + 1000 * i``; odd cases run
    on a pre-aged (GC-pressured) device.  The expensive process-pool
    comparison runs only for ``compare_jobs_case`` (None disables it).
    ``attribution`` turns on latency attribution in every leg, arming
    the per-request phase-conservation invariant.  ``frontend`` adds a
    per-scheme replay through the event-driven frontend and compares
    its oracle read digest against the sequential leg; ``policies``
    adds one leg per listed GC policy, comparing each oracle read
    digest against the default-policy leg.  Failing cases are shrunk
    within ``shrink_budget`` replays and, when ``out_dir`` is given,
    dumped there as JSON reproducers.
    """
    if cfg is None:
        # tiny geometry with the write buffer on, so the cache-off leg
        # is a real comparison; GC triggers within a few hundred writes
        cfg = SSDConfig.tiny().replace(write_buffer_bytes=2 * MIB)
    footprint = int(cfg.logical_sectors * 0.8)
    outcome = FuzzOutcome()
    emit = log if log is not None else (lambda _msg: None)
    for i in range(n):
        rng = np.random.default_rng(seed + 1000 * i)
        spec = random_spec(
            rng,
            footprint_sectors=footprint,
            requests=requests,
            name=f"fuzz-{seed}-{i}",
        )
        trace = with_trims(
            VDIWorkloadGenerator(spec).generate(), trim_ratio, rng
        )
        aged = i % 2 == 1
        sim_cfg = SimConfig(
            aged_used=0.55 if aged else 0.0,
            aged_valid=0.30 if aged else 0.0,
            seed=seed + i,
        )
        result = differential_replay(
            trace,
            cfg,
            sim_cfg,
            schemes=schemes,
            every=every,
            compare_jobs=(compare_jobs_case == i),
            attribution=attribution,
            frontend=frontend,
            policies=policies,
        )
        outcome.cases += 1
        if result.ok:
            emit(f"case {i}: ok ({trace.name}, {len(trace)} requests)")
            continue
        emit(f"case {i}: FAIL\n{result.summary()}")
        outcome.failures.append((i, result))

        def probe(candidate: Trace) -> bool:
            try:
                res = differential_replay(
                    candidate,
                    cfg,
                    sim_cfg,
                    schemes=schemes,
                    every=every,
                    compare_jobs=False,
                    attribution=attribution,
                    frontend=frontend,
                    policies=policies,
                )
            except Exception:
                return True
            return not res.ok

        shrunk = shrink_trace(trace, probe, max_probes=shrink_budget)
        final = result if len(shrunk) == len(trace) else differential_replay(
            shrunk, cfg, sim_cfg, schemes=schemes, every=every,
            compare_jobs=False, attribution=attribution, frontend=frontend,
            policies=policies,
        )
        if out_dir is not None:
            path = dump_counterexample(
                Path(out_dir) / f"counterexample-{seed}-{i}.json",
                trace=shrunk,
                cfg=cfg,
                sim_cfg=sim_cfg,
                failures=final.failures or result.failures,
                schemes=schemes,
                spec=spec,
                seed=seed + i,
            )
            outcome.artifacts.append(path)
            emit(
                f"case {i}: shrunk to {len(shrunk)} requests -> {path}"
            )
    return outcome
