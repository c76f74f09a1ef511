"""Parallel sweep execution and the persistent result store.

The paper's figures all come from embarrassingly parallel sweeps —
every (trace, scheme, page size) point runs on a fresh device with no
shared state — yet the runner executed them strictly serially.  This
module supplies the missing execution layer:

* :func:`run_key` — a stable content hash of everything that determines
  a run's outcome (device config, sim config, the trace bytes, scheme,
  FTL kwargs).  Two runs with equal keys produce equal reports.
* :class:`ResultStore` — an on-disk JSON store of completed
  :class:`~repro.metrics.report.SimulationReport` objects keyed by
  :func:`run_key`, shared across processes *and* sessions, so repeated
  bench invocations and figure regeneration reuse finished runs.  In
  front of the files sits a byte-bounded in-process tier of decoded
  reports, so a run asked for again in the same process is not decoded
  again.
* :class:`WorkerPool` — the owner of one lazily spawned ``spawn``-context
  :class:`concurrent.futures.ProcessPoolExecutor`.  A sweep builds one
  for its own duration; the serve layer keeps one for its lifetime so a
  cold request does not pay a pool spawn.
* :func:`execute_runs` — fans a batch of :class:`RunSpec` out across
  cores through a :class:`WorkerPool`.  Workers are plain fresh-device
  replays (same seeds, no shared mutable state), so their reports are
  identical to in-process runs; a determinism test enforces this.
  Workers run with ``progress`` forced off and the parent renders a
  single sweep-level progress line instead.

Filename helpers (:func:`sanitize_fragment`, :func:`run_filename`) are
shared with :meth:`ExperimentContext.save_results` so archives and the
store speak one naming scheme.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import hashlib
import json
import multiprocessing
import os
import re
import sys
import tempfile
import threading
from collections import Counter
from concurrent.futures import BrokenExecutor, Future, as_completed
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Sequence

import numpy as np

from ..config import SimConfig, SSDConfig
from ..errors import SweepError
from ..lru import ByteLRU
from ..metrics.report import SimulationReport
from ..traces.model import Trace

__all__ = [
    "RunSpec",
    "ResultStore",
    "SweepError",
    "SweepOutcome",
    "WorkerPool",
    "execute_runs",
    "images_line",
    "run_key",
    "run_filename",
    "sanitize_fragment",
    "trace_fingerprint",
]

#: byte bound of :class:`ResultStore`'s in-process tier, counted in
#: file bytes (a bench-device report file is ~130 KB, nearly all of it
#: per-request latency samples)
MEMORY_BYTES = 32 * 1024 * 1024


# ----------------------------------------------------------------------
# naming
# ----------------------------------------------------------------------
_FRAGMENT_RE = re.compile(r"[^A-Za-z0-9._-]+")


def sanitize_fragment(value: Any) -> str:
    """File-name-safe rendering of one config/kwarg value.

    Anything outside ``[A-Za-z0-9._-]`` collapses to a single ``-`` so
    raw FTL kwargs (floats, tuples, paths...) can never produce an
    invalid or directory-escaping archive filename.
    """
    text = _FRAGMENT_RE.sub("-", str(value)).strip("-.")
    return text or "x"


def run_filename(
    trace_name: str,
    scheme: str,
    page_size_bytes: int,
    ftl_kw: Mapping[str, Any] | None = None,
) -> str:
    """The shared ``<trace>__<scheme>__<pageKiB>[__kwargs]`` stem used
    by both :class:`ResultStore` files and ``save_results`` archives."""
    stem = (
        f"{sanitize_fragment(trace_name)}__{sanitize_fragment(scheme)}"
        f"__{page_size_bytes // 1024}k"
    )
    if ftl_kw:
        stem += "__" + "_".join(
            f"{sanitize_fragment(k)}-{sanitize_fragment(v)}"
            for k, v in sorted(ftl_kw.items())
        )
    return stem


# ----------------------------------------------------------------------
# run identity
# ----------------------------------------------------------------------
def trace_fingerprint(trace: Trace) -> str:
    """Content hash of a trace (name + the four request arrays)."""
    h = hashlib.sha256()
    h.update(trace.name.encode())
    for arr in (trace.times, trace.ops, trace.offsets, trace.sizes):
        h.update(b"|")
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _sim_cfg_doc(sim_cfg: SimConfig | None) -> dict | None:
    """Canonical dict of a SimConfig, minus output-only knobs.

    ``progress`` is cosmetic (a stderr line) and ``batch`` is inert
    (:class:`~repro.config.BatchConfig`): neither may split the cache
    key.  Everything else — aging, seed, queue depth, oracle,
    observability — can change the report and stays in.
    """
    if sim_cfg is None:
        return None
    doc = dataclasses.asdict(sim_cfg)
    doc.pop("progress", None)
    doc.pop("batch", None)
    return doc


def run_key(
    scheme: str,
    trace: Trace,
    cfg: SSDConfig,
    sim_cfg: SimConfig | None = None,
    ftl_kw: Mapping[str, Any] | None = None,
) -> str:
    """Stable hash of everything that determines a run's outcome."""
    doc = {
        "scheme": scheme,
        "trace": trace_fingerprint(trace),
        "cfg": dataclasses.asdict(cfg),
        "sim_cfg": _sim_cfg_doc(sim_cfg),
        "ftl_kw": {str(k): repr(v) for k, v in (ftl_kw or {}).items()},
    }
    blob = json.dumps(doc, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


# ----------------------------------------------------------------------
# run specification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunSpec:
    """One independent (trace, scheme, config) simulation to execute.

    ``ftl_kw`` is a sorted tuple of (name, value) pairs so the spec is
    hashable and pickles compactly to worker processes.
    """

    scheme: str
    trace: Trace
    cfg: SSDConfig
    sim_cfg: SimConfig | None = None
    ftl_kw: tuple = ()

    @classmethod
    def make(
        cls,
        scheme: str,
        trace: Trace,
        cfg: SSDConfig,
        sim_cfg: SimConfig | None = None,
        **ftl_kw,
    ) -> "RunSpec":
        return cls(scheme, trace, cfg, sim_cfg, tuple(sorted(ftl_kw.items())))

    @property
    def kwargs(self) -> dict:
        return dict(self.ftl_kw)

    @property
    def label(self) -> str:
        """Human-readable stem (also the store filename prefix)."""
        return run_filename(
            self.trace.name, self.scheme, self.cfg.page_size_bytes, self.kwargs
        )

    @functools.cached_property
    def _key(self) -> str:
        # hashing the trace is the cost; one store access asks for the
        # key two or three times.  cached_property writes the instance
        # ``__dict__`` directly, which a frozen dataclass permits, and
        # the fields the key is made of cannot change afterwards
        return run_key(
            self.scheme, self.trace, self.cfg, self.sim_cfg, self.kwargs
        )

    def key(self) -> str:
        """The run's :func:`run_key` (the store / dedup identity),
        computed once per spec."""
        return self._key


def _execute_spec(spec: RunSpec, image_dir=None) -> SimulationReport:
    """Run one spec on a fresh device (the worker entry point).

    Workers force ``progress`` off: with N processes interleaving on one
    stderr the per-run line would be garbage — the parent renders a
    single sweep-level progress bar instead.  ``image_dir`` is the
    store's aged-device image directory, if there is a store.
    """
    from .runner import run_trace  # deferred: runner imports this module

    sim_cfg = spec.sim_cfg
    if sim_cfg is not None and sim_cfg.progress:
        sim_cfg = dataclasses.replace(sim_cfg, progress=False)
    return run_trace(
        spec.scheme, spec.trace, spec.cfg, sim_cfg,
        image_dir=image_dir, **spec.kwargs,
    )


# ----------------------------------------------------------------------
# the persistent result store
# ----------------------------------------------------------------------
def _signature(st: os.stat_result) -> tuple[int, int, int]:
    """What identifies one version of a store file: a writer's
    ``os.replace`` brings a new inode, a rewrite in place a new mtime
    or size."""
    return st.st_ino, st.st_mtime_ns, st.st_size


class ResultStore:
    """On-disk cache of completed runs, keyed by :func:`run_key`.

    One JSON document per run under ``root``, named
    ``<trace>__<scheme>__<pageKiB>[__kwargs]__<key12>.json`` — the same
    human-readable stem ``save_results`` archives use, suffixed with the
    key prefix so distinct configurations of the same (trace, scheme,
    page) never collide.  Writes are atomic (temp file + ``os.replace``)
    so concurrent workers and parallel bench sessions can share a store
    directory safely.

    Reports read from disk are also kept decoded in memory, by run key,
    under :data:`MEMORY_BYTES` of file bytes (least recently used out
    first).  An entry answers :meth:`get` only while its file's
    ``(st_ino, st_mtime_ns, st_size)`` is the one it was read with, so
    a file deleted, replaced or rewritten under a live store reads as it
    would with no memory tier: a miss, the new report, or a miss.
    """

    STORE_VERSION = 1
    #: hex digits of the run key carried in the filename
    KEY_DIGITS = 12

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.puts = 0
        #: hits answered by the memory tier (a subset of ``hits``)
        self.memory_hits = 0
        #: results served after waiting on another thread's in-flight
        #: simulation of the same key (single-flight dedup)
        self.coalesced = 0
        #: guards the stats counters and the in-flight registry; the
        #: store is shared by threaded callers (the serve layer fans
        #: requests out across a thread pool onto one store)
        self._lock = threading.Lock()
        #: run key -> Event set when the in-flight computation finishes
        self._inflight: dict[str, threading.Event] = {}
        #: run key -> (file signature, decoded report), filled by disk
        #: reads only; its reports are never handed out, only copies
        self._reports = ByteLRU(MEMORY_BYTES)

    # -- paths -----------------------------------------------------------
    def path_for(self, spec: RunSpec) -> Path:
        """Where ``spec``'s report lives (whether or not it exists)."""
        return self._path(spec.label, spec.key())

    def _path(self, label: str, key: str) -> Path:
        return self.root / f"{label}__{key[: self.KEY_DIGITS]}.json"

    @property
    def image_dir(self) -> Path:
        """Where runs against this store keep their aged-device images
        (:mod:`repro.sim.image`); a subdirectory, so ``len()`` and
        :meth:`index` never see it."""
        return self.root / "images"

    # -- access ----------------------------------------------------------
    def _load(self, spec: RunSpec) -> Optional[tuple[dict, os.stat_result]]:
        """The one shared disk lookup: the parsed document for ``spec``
        and the stat of the very file it was read from, or None on
        anything wrong (missing, corrupt, key or store-version
        mismatch, or valid JSON that is not an object)."""
        try:
            with open(self.path_for(spec), "rb") as fh:
                st = os.fstat(fh.fileno())
                doc = json.loads(fh.read())
        except (OSError, ValueError):
            return None
        if (
            not isinstance(doc, dict)
            or doc.get("key") != spec.key()
            or doc.get("store_version") != self.STORE_VERSION
        ):
            return None
        return doc, st

    def get(self, spec: RunSpec) -> Optional[SimulationReport]:
        """The stored report for ``spec``, or None (corrupt or
        key-mismatched files count as misses, never as errors).  Every
        report returned is the caller's own: a memory-tier hit is a deep
        copy."""
        key = spec.key()
        held = self._reports.get(key)
        if held is not None:
            try:
                fresh = _signature(os.stat(self.path_for(spec))) == held[0]
            except OSError:
                fresh = False
            if fresh:
                report = copy.deepcopy(held[1])
                with self._lock:
                    self.hits += 1
                    self.memory_hits += 1
                return report
        report = None
        loaded = self._load(spec)
        if loaded is not None:
            doc, st = loaded
            try:
                report = SimulationReport.from_dict(doc["report"])
            except (KeyError, TypeError, ValueError):
                pass
        if report is None:
            self._reports.discard(key)
        else:
            self._reports.put(
                key, (_signature(st), copy.deepcopy(report)), st.st_size
            )
        with self._lock:
            if report is None:
                self.misses += 1
            else:
                self.hits += 1
        return report

    def put(self, spec: RunSpec, report: SimulationReport) -> Path:
        """Persist one finished run (atomic, last-writer-wins)."""
        path = self.path_for(spec)
        doc = {
            "store_version": self.STORE_VERSION,
            "key": spec.key(),
            "label": spec.label,
            "scheme": spec.scheme,
            "trace": spec.trace.name,
            "page_size_bytes": spec.cfg.page_size_bytes,
            "ftl_kwargs": {k: repr(v) for k, v in spec.ftl_kw},
            "report": report.to_dict(),
        }
        fd, tmp = tempfile.mkstemp(
            dir=self.root, prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                # dumps, not dump(indent=...): only the one-shot compact
                # form goes through the C encoder
                fh.write(json.dumps(doc))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        with self._lock:
            self.puts += 1
        return path

    def __contains__(self, spec: RunSpec) -> bool:
        return self._load(spec) is not None

    # -- single-flight ---------------------------------------------------
    def _claim(self, key: str) -> Optional[threading.Event]:
        """Try to become the computing thread for ``key``.

        Returns None when the caller now owns the computation (it must
        call :meth:`_release` when done, success or not), or the Event
        of the thread already computing it (wait on it, then re-check
        the store)."""
        with self._lock:
            ev = self._inflight.get(key)
            if ev is None:
                self._inflight[key] = threading.Event()
                return None
            return ev

    def _release(self, key: str) -> None:
        """Drop the in-flight claim on ``key`` and wake every waiter."""
        with self._lock:
            ev = self._inflight.pop(key, None)
        if ev is not None:
            ev.set()

    def stats(self) -> dict[str, int]:
        """Thread-safe snapshot of the access counters and of the memory
        tier: reports held and their summed file bytes."""
        memory = self._reports.stats()
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "puts": self.puts,
                "coalesced": self.coalesced,
                "inflight": len(self._inflight),
                "memory_hits": self.memory_hits,
                "memory_entries": memory["entries"],
                "memory_bytes": memory["bytes"],
            }

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))

    def index(self) -> list[dict]:
        """Metadata of every stored run (no reports parsed)."""
        out = []
        for path in sorted(self.root.glob("*.json")):
            try:
                doc = json.loads(path.read_text())
            except (OSError, ValueError):
                continue
            out.append(
                {
                    "file": path.name,
                    "key": doc.get("key"),
                    "scheme": doc.get("scheme"),
                    "trace": doc.get("trace"),
                    "page_size_bytes": doc.get("page_size_bytes"),
                    "ftl_kwargs": doc.get("ftl_kwargs", {}),
                }
            )
        return out

    def clear(self) -> int:
        """Delete every stored run, the aged-device images and the
        orphan ``*.tmp`` files a killed writer leaves, and empty the
        memory tier; returns how many runs were removed."""
        self._reports.clear()
        n = 0
        for path in self.root.glob("*.json"):
            try:
                path.unlink()
                n += 1
            except OSError:
                pass
        leftovers = [
            *self.root.glob("*.tmp"),
            *self.image_dir.glob("*.npz"),
            *self.image_dir.glob("*.tmp"),
        ]
        for path in leftovers:
            try:
                path.unlink()
            except OSError:
                pass
        try:
            self.image_dir.rmdir()
        except OSError:
            pass  # never created, or another process is writing to it
        return n


# ----------------------------------------------------------------------
# fan-out execution
# ----------------------------------------------------------------------
@dataclass
class SweepOutcome:
    """Reports of one batch, in spec order, plus execution accounting.

    ``reports[i]`` is None when spec ``i`` failed — its ``(label,
    exception)`` pair is in ``failures``.  With the default
    ``on_error="raise"`` a failing batch raises :class:`SweepError`
    instead of returning, but only *after* every sibling finished and
    was persisted, so the outcome is only ever partially populated for
    ``on_error="continue"`` callers who asked to inspect failures.
    """

    reports: list[Optional[SimulationReport]] = field(default_factory=list)
    #: simulations actually executed in this call
    executed: int = 0
    #: results served from the :class:`ResultStore`
    cached: int = 0
    #: ``(RunSpec.label, exception)`` of every failed spec, in
    #: completion order
    failures: list[tuple[str, BaseException]] = field(default_factory=list)
    #: where the executed runs' aged devices came from
    #: (``SimulationReport.host["image"]``): built / memory / disk /
    #: bypass -> count
    images: Counter = field(default_factory=Counter)
    #: wall seconds the executed runs spent in ``age_device``, summed
    age_s: float = 0.0

    @property
    def ok(self) -> bool:
        """True when every spec produced a report."""
        return not self.failures

    def raise_if_failed(self) -> None:
        """Raise :class:`SweepError` when any spec failed."""
        if self.failures:
            err = SweepError(self.failures)
            raise err from self.failures[0][1]

    def __iter__(self):
        return iter(self.reports)

    def __len__(self) -> int:
        return len(self.reports)

    def __getitem__(self, i):
        return self.reports[i]


def images_line(images: Mapping[str, int]) -> str:
    """The one-line summary of :attr:`SweepOutcome.images` the CLI
    prints: ``images: N built, M restored[, K bypassed]``."""
    line = (
        f"images: {images.get('built', 0)} built, "
        f"{images.get('memory', 0) + images.get('disk', 0)} restored"
    )
    if images.get("bypass"):
        line += f", {images['bypass']} bypassed"
    return line


def _sweep_progress(done: int, total: int, label: str, final: bool = False):
    """One-line sweep progress bar on stderr (the parent's view while
    workers run with their own progress suppressed)."""
    width = 24
    filled = int(width * done / total) if total else width
    bar = "#" * filled + "-" * (width - filled)
    sys.stderr.write(f"\r[sweep {bar}] {done}/{total} {label:<40.40s}")
    if final:
        sys.stderr.write("\n")
    sys.stderr.flush()


class WorkerPool:
    """Owner of one lazily spawned worker-process pool.

    The executor is built on the first :meth:`submit`, never at
    construction, with the ``spawn`` start method (Linux and macOS
    replay identically and fork-under-threads never happens).
    :meth:`submit`, :meth:`map` and :meth:`close` are thread-safe, so
    the serve layer's request threads share one pool and never run more than
    ``workers`` processes between them.  A pool whose worker died
    (:class:`~concurrent.futures.process.BrokenProcessPool`) is
    discarded and rebuilt on the next submit; the futures it held fail, each to its own caller.
    ``close()`` joins the workers; a later submit spawns afresh.
    """

    def __init__(self, workers: int):
        self.workers = workers
        self._lock = threading.Lock()
        self._executor = None
        self._spawns = 0
        self._tasks = 0
        self._rebuilds = 0

    def _spawn(self):
        # imported here: process pools drag in the multiprocessing
        # queue and connection modules, which in-process runs never need
        from concurrent.futures import ProcessPoolExecutor

        self._spawns += 1
        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=multiprocessing.get_context("spawn"),
        )

    def submit(self, fn: Callable, *args) -> Future:
        """Schedule ``fn(*args)`` on a worker, spawning the pool first
        if there is none and replacing it if a worker has died."""
        with self._lock:
            self._tasks += 1
            if self._executor is None:
                self._executor = self._spawn()
            try:
                return self._executor.submit(fn, *args)
            except BrokenExecutor:
                self._executor.shutdown(wait=True)
                self._rebuilds += 1
                self._executor = self._spawn()
                return self._executor.submit(fn, *args)

    def map(self, fn: Callable, *iterables) -> list:
        """``[fn(*args) for args in zip(*iterables)]`` on the workers, all
        submitted before any is awaited; the first call to fail (in that
        order) raises here and cancels the calls not yet started."""
        futures = [self.submit(fn, *args) for args in zip(*iterables)]
        try:
            return [fut.result() for fut in futures]
        finally:
            for fut in futures:
                fut.cancel()

    def close(self) -> None:
        """Cancel what has not started, wait for what has, join the
        workers.  Idempotent."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def stats(self) -> dict[str, int]:
        """Thread-safe snapshot: executors built, worker processes of
        the current one (it starts them on demand and publishes no
        count, hence the private read), tasks submitted, executors
        replaced after a worker died."""
        with self._lock:
            executor = self._executor
            return {
                "spawns": self._spawns,
                "workers": len(executor._processes) if executor else 0,
                "tasks": self._tasks,
                "rebuilds": self._rebuilds,
            }

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def execute_runs(
    specs: Sequence[RunSpec],
    *,
    jobs: int = 1,
    store: ResultStore | None = None,
    progress: bool = False,
    fresh: bool = False,
    on_error: str = "raise",
    pool: WorkerPool | None = None,
) -> SweepOutcome:
    """Execute a batch of independent runs, reusing and filling ``store``.

    ``jobs`` > 1 fans the cache-missing specs out across a
    :class:`WorkerPool` — the caller's long-lived ``pool`` when one is
    passed (it stays open), otherwise one built for this call and
    closed before it returns; ``jobs`` <= 1 runs them in-process
    (identical results either way — each run is a fresh seeded
    device).  ``fresh=True`` skips store lookups (but still persists
    results), for forced re-measurement.  Reports come back in spec
    order.

    Worker exceptions are caught per-future and recorded as
    ``(spec.label, exception)`` in :attr:`SweepOutcome.failures`;
    completed sibling results are always stored first.  With the
    default ``on_error="raise"`` a failing batch then raises
    :class:`~repro.errors.SweepError`; ``on_error="continue"`` returns
    the partial outcome (failed slots hold None) for callers — like the
    fleet serve loop — that must survive poisoned specs.

    When ``store`` is set, in-flight keys are deduplicated against
    concurrent callers of the same store (single-flight): a spec
    another thread is already simulating is awaited and then served
    from the store instead of being simulated twice.
    """
    if on_error not in ("raise", "continue"):
        raise ValueError(
            f"on_error must be 'raise' or 'continue', got {on_error!r}"
        )
    specs = list(specs)
    out = SweepOutcome(reports=[None] * len(specs))
    image_dir = store.image_dir if store is not None else None
    pending: list[int] = []
    for i, spec in enumerate(specs):
        report = None
        if store is not None and not fresh:
            report = store.get(spec)
        if report is not None:
            out.reports[i] = report
            out.cached += 1
        else:
            pending.append(i)
    total = len(specs)
    done = total - len(pending)
    if progress and total:
        _sweep_progress(done, total, "cached" if done else "starting")

    #: index -> exception, so same-batch duplicates of a failed leader
    #: can mirror its failure
    failed: dict[int, BaseException] = {}

    def _finish(i: int, report: SimulationReport) -> None:
        out.reports[i] = report
        out.executed += 1
        out.images[report.host.get("image", "bypass")] += 1
        out.age_s += report.host.get("age_s", 0.0)
        if store is not None:
            store.put(specs[i], report)

    def _fail(i: int, exc: BaseException) -> None:
        failed[i] = exc
        out.failures.append((specs[i].label, exc))

    # -- split pending into leaders (we simulate), waiters (another
    #    thread on this store is already simulating the key) and
    #    same-batch duplicates (resolved from their leader's slot)
    leaders: list[int] = []
    waiters: list[tuple[int, str, threading.Event]] = []
    dup_of: dict[int, int] = {}
    if store is not None and not fresh:
        first_for_key: dict[str, int] = {}
        for i in pending:
            key = specs[i].key()
            if key in first_for_key:
                dup_of[i] = first_for_key[key]
                continue
            ev = store._claim(key)
            if ev is None and store._load(specs[i]) is not None:
                # stored by another caller after the lookup above
                store._release(key)
                ev = threading.Event()
                ev.set()
            if ev is None:
                first_for_key[key] = i
                leaders.append(i)
            else:
                waiters.append((i, key, ev))
    else:
        leaders = pending

    def _release(i: int) -> None:
        if store is not None and not fresh:
            store._release(specs[i].key())

    def _run_leader_inprocess(i: int) -> None:
        try:
            report = _execute_spec(specs[i], image_dir)
        except Exception as exc:
            _fail(i, exc)
        else:
            _finish(i, report)
        finally:
            _release(i)

    if jobs > 1 and len(leaders) > 1:
        with (
            WorkerPool(min(jobs, len(leaders)))
            if pool is None
            else nullcontext(pool)
        ) as workers:
            futures = {
                workers.submit(_execute_spec, specs[i], image_dir): i
                for i in leaders
            }
            for fut in as_completed(futures):
                i = futures[fut]
                try:
                    report = fut.result()
                except Exception as exc:
                    _fail(i, exc)
                else:
                    _finish(i, report)
                finally:
                    _release(i)
                done += 1
                if progress:
                    _sweep_progress(done, total, specs[i].label)
    else:
        for i in leaders:
            _run_leader_inprocess(i)
            done += 1
            if progress:
                _sweep_progress(done, total, specs[i].label)

    # -- waiters: the other thread finished (or died); read its result
    #    from the store, taking over the computation if it failed
    for i, key, ev in waiters:
        while True:
            ev.wait()
            report = store.get(specs[i])
            if report is not None:
                out.reports[i] = report
                out.cached += 1
                with store._lock:
                    store.coalesced += 1
                break
            next_ev = store._claim(key)
            if next_ev is not None:
                ev = next_ev
                continue
            _run_leader_inprocess(i)
            break
        done += 1
        if progress:
            _sweep_progress(done, total, specs[i].label)

    # -- same-batch duplicates mirror their leader's outcome
    for i, leader in dup_of.items():
        if leader in failed:
            _fail(i, failed[leader])
        else:
            out.reports[i] = out.reports[leader]
            out.cached += 1
        done += 1
        if progress:
            _sweep_progress(done, total, specs[i].label)

    if progress and total:
        _sweep_progress(total, total, "done", final=True)
    if on_error == "raise":
        out.raise_if_failed()
    return out
