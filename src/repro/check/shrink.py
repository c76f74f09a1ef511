"""Greedy trace shrinking and counterexample persistence.

When the differential harness finds a failure, replaying the whole
fuzz trace is a terrible reproducer — :func:`shrink_trace` runs a
budgeted ddmin-style reduction (drop chunks, keep the subset while the
failure persists, halve the chunk size) to a near-1-minimal request
slice, and :func:`dump_counterexample` persists everything needed to
re-run it — the (shrunk) trace arrays, the device and sim configs, the
generating :class:`~repro.traces.synthetic.SyntheticSpec`/seed, and
the recorded failures — as one JSON file that
``repro check --replay <file>`` (:func:`replay_counterexample`)
re-executes.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ..config import (
    BatchConfig,
    CheckConfig,
    FaultConfig,
    FrontendConfig,
    ObservabilityConfig,
    SimConfig,
    SSDConfig,
    TimingConfig,
)
from ..traces.model import Trace

#: counterexample file-format version (bumped on incompatible changes)
FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# trace subsetting & ddmin
# ----------------------------------------------------------------------
def trace_subset(trace: Trace, indices: Sequence[int]) -> Trace:
    """The sub-trace keeping ``indices`` (ascending) of ``trace``."""
    idx = np.asarray(indices, dtype=np.int64)
    return Trace(
        trace.name,
        trace.times[idx],
        trace.ops[idx],
        trace.offsets[idx],
        trace.sizes[idx],
    )


def shrink_trace(
    trace: Trace,
    still_fails: Callable[[Trace], bool],
    *,
    max_probes: int = 96,
) -> Trace:
    """Greedy delta-debugging reduction of a failing trace.

    ``still_fails`` re-runs the failing check on a candidate sub-trace
    and returns True while the failure reproduces (it should swallow
    its own exceptions — any error during a probe counts as "fails").
    At most ``max_probes`` candidate replays are spent; the best
    reproducer found within the budget is returned.
    """
    if len(trace) < 2:
        return trace
    idx = list(range(len(trace)))
    granularity = 2
    probes = 0
    while len(idx) >= 2 and probes < max_probes:
        chunk = max(1, (len(idx) + granularity - 1) // granularity)
        reduced = False
        for start in range(0, len(idx), chunk):
            candidate = idx[:start] + idx[start + chunk :]
            if not candidate:
                continue
            probes += 1
            if still_fails(trace_subset(trace, candidate)):
                idx = candidate
                granularity = max(2, granularity - 1)
                reduced = True
                break
            if probes >= max_probes:
                break
        if not reduced:
            if chunk == 1:
                break
            granularity = min(len(idx), granularity * 2)
    return trace_subset(trace, idx)


# ----------------------------------------------------------------------
# config (de)serialisation — nested frozen dataclasses over JSON
# ----------------------------------------------------------------------
def cfg_from_dict(doc: dict) -> SSDConfig:
    """Rebuild an :class:`SSDConfig` from ``dataclasses.asdict`` output."""
    doc = dict(doc)
    doc["timing"] = TimingConfig(**doc["timing"])
    cfg = SSDConfig(**doc)
    cfg.validate()
    return cfg


def sim_cfg_from_dict(doc: dict) -> SimConfig:
    """Rebuild a :class:`SimConfig` from ``dataclasses.asdict`` output."""
    doc = dict(doc)
    doc["observability"] = ObservabilityConfig(**doc["observability"])
    doc["faults"] = FaultConfig(**doc["faults"])
    doc["check"] = CheckConfig(**doc.get("check") or {})
    # dumps from before the frontend/batch blocks existed rebuild as
    # defaults; older dumps' batch block carries since-removed keys
    doc["frontend"] = FrontendConfig(**doc.get("frontend") or {})
    known = {f.name for f in dataclasses.fields(BatchConfig)}
    doc["batch"] = BatchConfig(
        **{k: v for k, v in (doc.get("batch") or {}).items() if k in known}
    )
    cfg = SimConfig(**doc)
    cfg.validate()
    return cfg


def _trace_to_doc(trace: Trace) -> dict:
    return {
        "name": trace.name,
        "ops": trace.ops.tolist(),
        "offsets": trace.offsets.tolist(),
        "sizes": trace.sizes.tolist(),
        "times": trace.times.tolist(),
    }


def _trace_from_doc(doc: dict) -> Trace:
    return Trace(
        doc.get("name", "counterexample"),
        np.asarray(doc["times"], dtype=np.float64),
        np.asarray(doc["ops"], dtype=np.uint8),
        np.asarray(doc["offsets"], dtype=np.int64),
        np.asarray(doc["sizes"], dtype=np.int64),
    )


# ----------------------------------------------------------------------
# counterexample files
# ----------------------------------------------------------------------
def dump_counterexample(
    path,
    *,
    trace: Trace,
    cfg: SSDConfig,
    sim_cfg: SimConfig,
    failures,
    schemes=None,
    spec=None,
    seed: int | None = None,
) -> Path:
    """Write a self-contained JSON reproducer; returns its path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "version": FORMAT_VERSION,
        "repro_command": f"repro check --replay {path}",
        "failures": [
            dataclasses.asdict(f) if dataclasses.is_dataclass(f) else dict(f)
            for f in failures
        ],
        "schemes": list(schemes) if schemes is not None else None,
        "seed": seed,
        "spec": dataclasses.asdict(spec) if spec is not None else None,
        "cfg": dataclasses.asdict(cfg),
        "sim_cfg": dataclasses.asdict(sim_cfg),
        "trace": _trace_to_doc(trace),
    }
    path.write_text(json.dumps(doc, indent=1))
    return path


def load_counterexample(path) -> tuple[Trace, SSDConfig, SimConfig, dict]:
    """Load a dumped reproducer: (trace, cfg, sim_cfg, full document)."""
    doc = json.loads(Path(path).read_text())
    if doc.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported counterexample version {doc.get('version')!r}"
        )
    return (
        _trace_from_doc(doc["trace"]),
        cfg_from_dict(doc["cfg"]),
        sim_cfg_from_dict(doc["sim_cfg"]),
        doc,
    )


def replay_counterexample(path):
    """Re-run a dumped counterexample through the differential harness;
    returns the fresh :class:`~repro.check.differential.DifferentialResult`."""
    from .differential import differential_replay

    trace, cfg, sim_cfg, doc = load_counterexample(path)
    schemes = doc.get("schemes")
    kwargs = {} if schemes is None else {"schemes": tuple(schemes)}
    return differential_replay(trace, cfg, sim_cfg, **kwargs)
