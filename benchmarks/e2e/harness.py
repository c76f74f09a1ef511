"""Shared plumbing of the end-to-end benchmark: spans, checks, sizes.

Nothing here imports :mod:`repro` at module level except through the
helpers that need it, so ``compare.py`` and ``selftest.py`` can reuse
the statistics without a simulator on the path.
"""

from __future__ import annotations

import json
import math
import resource
import shutil
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
#: scratch space for result stores and trace files; inside the
#: benchmark's own directory because a run may write nowhere else
WORK = HERE / ".work"

SCHEMES = ("ftl", "mrsm", "across")


def load_contract() -> dict:
    """``BENCHMARK.json`` — the one place metric names, units, directions
    and bounds are defined."""
    return json.loads((REPO / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def rel_range(values) -> float:
    """(max - min) / median: the within-run spread of one timing."""
    med = median(values)
    return (max(values) - min(values)) / med if med else 0.0


def percentile(values, p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def iqr_share(values) -> float:
    """Distance between the first and third quartile as a share of the
    median — the spread the acceptance rule is stated in."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = quantiles(values, n=4)
    med = median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process and of its reaped children
    (``ru_maxrss`` is KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class Span:
    """One bracketed call.  Always measures; is kept only while the
    tracer records, so an untraced rep pays two clock reads and no
    allocation beyond this object."""

    __slots__ = ("tracer", "name", "start", "end", "parent", "id")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "Span":
        tr = self.tracer
        self.parent = tr.stack[-1] if tr.stack else None
        self.id = tr.next_id
        tr.next_id += 1
        tr.stack.append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        tr = self.tracer
        tr.stack.pop()
        if tr.recording:
            tr.spans.append({
                "id": self.id,
                "name": self.name,
                "start": self.start,
                "end": self.end,
                "parent": self.parent,
                "workload": tr.workload,
                "rep": tr.rep,
            })

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span log, written out once when the benchmark ends."""

    def __init__(self) -> None:
        self.recording = False
        self.workload = ""
        self.rep = -1
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.next_id = 0

    def span(self, name: str) -> Span:
        return Span(self, name)

    def coverage(self, workload: str, rep: int, wall: float) -> float:
        """Share of ``wall`` the rep's top-level spans account for."""
        top = sum(
            s["end"] - s["start"]
            for s in self.spans
            if s["workload"] == workload and s["rep"] == rep
            and s["parent"] is None
        )
        return top / wall if wall > 0 else 0.0


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
class Checks:
    """Counts operations attempted and failed; every correctness check
    and every simulated run or request is one operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
            print(f"  FAIL {what}", flush=True)
        return ok

    def same(self, what: str, values) -> bool:
        """All of ``values`` equal (digests across reps, cold vs warm)."""
        values = list(values)
        return self.op(len(set(values)) <= 1, f"{what}: {sorted(set(values))}")


# ----------------------------------------------------------------------
# sizes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Sizes:
    """Everything that scales a run; two instances exist, full and smoke."""

    #: blocks per plane of the 32-chip bench device.  The committed
    #: bench preset has 32; aging it takes ~12 s per scheme set, which
    #: the per-run time cap cannot carry once per rep, so the benchmark
    #: keeps the fan-out (8 ch x 4 chips x 2 dies x 2 planes) and
    #: quarters the blocks.
    blocks_per_plane: int
    replay_scale: float
    sweep_scale: float
    warm_sweeps: int
    min_reps: int
    #: serve-fleet: per round, distinct requests and warm repeats of each
    fleet_per_round: int
    fleet_warm: int
    sweeps_per_round: int
    sweep_warm: int
    fleet_tenant_requests: int
    sweep_requests: int
    serve_min_rounds: int
    oracle_head: int
    flash_ops: int


FULL = Sizes(
    blocks_per_plane=8,
    replay_scale=0.03,
    sweep_scale=0.01,
    warm_sweeps=10,
    min_reps=3,
    fleet_per_round=2,
    fleet_warm=10,
    sweeps_per_round=1,
    sweep_warm=5,
    fleet_tenant_requests=200,
    sweep_requests=4000,
    serve_min_rounds=5,
    oracle_head=5000,
    flash_ops=4096,
)

SMOKE = Sizes(
    blocks_per_plane=4,
    replay_scale=0.012,
    sweep_scale=0.001,
    warm_sweeps=2,
    min_reps=1,
    fleet_per_round=1,
    fleet_warm=2,
    sweeps_per_round=1,
    sweep_warm=2,
    fleet_tenant_requests=20,
    sweep_requests=400,
    serve_min_rounds=1,
    oracle_head=500,
    flash_ops=256,
)


# ----------------------------------------------------------------------
# one pass of one workload
# ----------------------------------------------------------------------
@dataclass
class Pass:
    """State of one pass (untraced or traced) over one workload."""

    workload: str
    seed: int
    seconds: float
    traced: bool
    sizes: Sizes
    tracer: Tracer
    checks: Checks = field(default_factory=Checks)
    #: metric name -> value, for the names in BENCHMARK.json
    metrics: dict[str, float] = field(default_factory=dict)
    #: timing name -> per-rep samples (min and spread are printed too)
    samples: dict[str, list[float]] = field(default_factory=dict)
    #: printed, never pinned: a modelling change may move them
    digests: dict[str, str] = field(default_factory=dict)
    #: wall seconds of set-up paid once per process (imports, warm-up)
    setup_once: float = 0.0

    def begin_rep(self, rep: int) -> None:
        """Traced passes alternate untraced and traced reps so the cost
        of recording is measured against the same work."""
        self.tracer.workload = self.workload
        self.tracer.rep = rep
        self.tracer.recording = self.traced and rep % 2 == 1

    def end_reps(self) -> None:
        """What follows the reps (checks, layer probes) is recorded under
        rep -1 so it never counts as part of a rep."""
        self.tracer.rep = -1
        self.tracer.recording = self.traced

    def more_reps(self, done: int, timed: float, min_reps: int = 0) -> bool:
        """Reps repeat until ``--seconds`` of timed work and the minimum
        count are both reached; a traced pass runs them in pairs."""
        need = min_reps or self.sizes.min_reps
        if self.traced:
            need = 2
            if done % 2:
                return True
        return done < need or timed < self.seconds

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def med(self, name: str) -> float:
        return median(self.samples[name])

    def best(self, name: str) -> float:
        """The fastest rep of a fixed piece of work.  Host noise on a
        shared box only ever adds time, in bursts that last seconds and
        reach a multiple of the quiet cost, so the minimum over reps is
        the steadiest estimate of what the code itself costs; the
        median and the spread are printed beside it."""
        return min(self.samples[name])

    def overhead(self, name: str) -> float:
        """Fastest traced (odd) rep over fastest untraced (even) rep,
        minus one."""
        vals = self.samples[name]
        return min(vals[1::2]) / min(vals[0::2]) - 1.0


@contextmanager
def workdir(prefix: str):
    """A scratch directory under the benchmark's own tree, removed on
    exit whatever happened inside."""
    WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=WORK))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def stop_children() -> None:
    """End every process this one started and wait for each.

    The pool workers are joined by ``execute_runs`` itself; what is left
    is the ``multiprocessing`` resource tracker, which the first spawn
    pool starts and which otherwise notices that its parent has gone
    only after the parent has exited — outliving the benchmark.

    An interrupted run (``SIGTERM`` while a reply was awaited) can also
    leave a server worker thread inside ``execute_runs``; it is waited
    for first, so nothing starts a pool — and with it a new tracker —
    behind this function's back.
    """
    import multiprocessing
    import os
    import signal
    import threading
    from multiprocessing import resource_tracker

    signal.signal(signal.SIGTERM, signal.SIG_IGN)  # already on the way out
    deadline = time.monotonic() + 60.0
    for thread in threading.enumerate():
        if thread is not threading.current_thread():
            thread.join(max(0.0, deadline - time.monotonic()))
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    tracker = resource_tracker._resource_tracker
    pid = getattr(tracker, "_pid", None)
    fd = getattr(tracker, "_fd", None)
    if fd is not None:
        # closing the "alive" pipe is what ends the tracker's main loop
        os.close(fd)
        tracker._fd = None
    if pid is not None:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass  # already reaped
        tracker._pid = None


def bench_device(sizes: Sizes):
    """The 32-chip bench device with ``sizes.blocks_per_plane``."""
    import dataclasses

    from repro.config import SSDConfig

    cfg = dataclasses.replace(
        SSDConfig.bench_default(), blocks_per_plane=sizes.blocks_per_plane
    )
    cfg.validate()
    return cfg


def build_sim(scheme: str, cfg, sim_cfg):
    """A fresh device, FTL and engine for one scheme."""
    from repro.flash.service import FlashService
    from repro.ftl import make_ftl
    from repro.sim.engine import Simulator

    return Simulator(make_ftl(scheme, FlashService(cfg)), sim_cfg)


def aged_sim_cfg(**kw):
    """The paper's steady state: 90 % used, 39.8 % valid, VDI warm-up."""
    from repro.config import SimConfig

    return SimConfig(
        aged_used=0.90, aged_valid=0.398, aging_style="vdi", **kw
    )


def clear_trace_memo() -> None:
    """Every rep pays the same trace-generation cost."""
    from repro.traces.synthetic import _TRACE_MEMO

    _TRACE_MEMO.clear()


def mean_response_ms(report) -> float:
    lat = report.latency
    return lat.total_ms / lat.request_count if lat.request_count else 0.0


def warm_up() -> None:
    """One mini replay per scheme so lazy imports, numpy set-up and the
    interpreter's caches are paid before anything is timed."""
    from repro.config import SimConfig, SSDConfig
    from repro.experiments.runner import run_trace
    from repro.traces.synthetic import SyntheticSpec, generate_trace

    cfg = SSDConfig.tiny()
    spec = SyntheticSpec(
        name="warmup",
        requests=400,
        write_ratio=0.6,
        across_ratio=0.25,
        mean_write_kb=8.9,
        footprint_sectors=int(cfg.logical_sectors * 0.5),
        seed=1,
    )
    trace = generate_trace(spec, memo=False)
    sim_cfg = SimConfig(aged_used=0.5, aged_valid=0.2, aging_style="vdi")
    for scheme in SCHEMES:
        run_trace(scheme, trace, cfg, sim_cfg)
    both = sim_cfg.replace_frontend(enabled=True).replace_batch(enabled=True)
    run_trace("across", trace, cfg, both)
