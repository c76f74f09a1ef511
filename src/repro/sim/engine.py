"""The trace-driven simulation engine.

Drives a block trace through (data cache ->) FTL -> flash array and
produces a :class:`~repro.metrics.report.SimulationReport`.  Latency of
a request is the completion time of its slowest page-level sub-request
minus its arrival time (paper §2.1: a request completes iff all its
sub-requests do).

The engine also implements device *aging* (paper §4.1: the device is
pre-conditioned so 90% of capacity has been programmed with 39.8%
still valid) and the per-request-class accounting behind the
motivation study of Fig. 4 (across-page vs normal latency and flush
counts per sector).
"""

from __future__ import annotations

import hashlib
import heapq
import sys
import time as _time
import weakref
from collections import deque
from contextlib import contextmanager
from typing import Optional

import numpy as np

from ..cache.buffer import DataCache
from ..config import SimConfig
from ..errors import SimulationError
from ..ftl.base import BaseFTL
from ..metrics.counters import FlashOpCounters, OpKind
from ..metrics.latency import LatencyRecorder
from ..metrics.report import SimulationReport
from ..metrics.sketch import LogHistogram
from ..metrics.series import CounterSeries, Snapshot
from ..metrics.timeline import RequestLog
from ..obs import Observability
from ..obs.events import (
    BufferLookup,
    HazardStall,
    RequestArrive,
    RequestComplete,
    RequestPhases,
)
from ..traces.model import OP_READ, OP_TRIM, OP_WRITE, Trace
from ..traces.synthetic import SyntheticSpec, generate_trace
from .frontend import FrontendScheduler, Request
from .image import IMAGES, DeviceImage, device_geometry, image_key
from .nand_sched import NandScheduler
from .oracle import SectorOracle


#: progress-line refresh interval in wall-clock seconds
_PROGRESS_EVERY_S = 0.5

#: most requests the sequential loop converts to python objects at once
#: (bounds the ``tolist()`` footprint of the request columns)
_SEGMENT_REQUESTS = 512


def _print_progress(
    name: str,
    done: int,
    total: int,
    elapsed: float,
    *,
    final: bool = False,
    prev_width: int = 0,
) -> int:
    """Throttled replay progress on stderr (stdout stays machine-
    readable): requests/s, % of trace, and an ETA from the current rate.

    Returns the width of the line just written; callers thread it back
    as ``prev_width`` so a shrinking line (rate/ETA losing digits) is
    padded with spaces instead of leaving stale characters after the
    carriage return.  A mid-run ``rate == 0`` (clock granularity, or a
    first request still aging the device) renders the ETA as ``?``
    rather than dividing by zero or claiming completion.
    """
    rate = done / elapsed if elapsed > 0 else 0.0
    pct = 100.0 * done / total if total else 100.0
    if rate > 0:
        eta = f"{(total - done) / rate:6.1f}s"
    elif done >= total:
        eta = f"{0.0:6.1f}s"
    else:
        eta = "     ?s"
    line = (
        f"[{name}] {done}/{total} ({pct:5.1f}%) "
        f"{rate:8.0f} req/s  ETA {eta}"
    )
    pad = prev_width - len(line)
    sys.stderr.write("\r" + line + (" " * pad if pad > 0 else ""))
    if final:
        sys.stderr.write("\n")
    sys.stderr.flush()
    return len(line)


class Simulator:
    """Runs block traces against one FTL instance."""

    def __init__(
        self,
        ftl: BaseFTL,
        sim_cfg: SimConfig | None = None,
        *,
        image_dir=None,
    ):
        self.ftl = ftl
        #: directory of on-disk aged-device images (beside a
        #: ResultStore); None keeps :meth:`age_device` to the
        #: in-process image tier
        self.image_dir = image_dir
        #: host-side facts about this run, outside every digest:
        #: ``age_s`` and where the aged device came from (``image``:
        #: built / memory / disk / bypass)
        self.host: dict = {}
        self.cfg = ftl.cfg
        self.sim_cfg = sim_cfg if sim_cfg is not None else SimConfig()
        self.sim_cfg.validate()
        self.spp = self.cfg.sectors_per_page
        # per-request constant, hoisted out of _issue()
        self._cache_ms = self.cfg.timing.cache_access_ms
        cache_pages = self.cfg.write_buffer_bytes // self.cfg.page_size_bytes
        self.cache: Optional[DataCache] = (
            DataCache(cache_pages, self.spp) if cache_pages > 0 else None
        )
        self.oracle: Optional[SectorOracle] = (
            SectorOracle() if self.sim_cfg.check_oracle else None
        )
        if self.oracle is not None:
            # the oracle needs stamps stored in page metadata
            ftl.track_payload = True
        self.recorder = LatencyRecorder(enabled=self.sim_cfg.record_latencies)
        #: Fig. 4(c): flash writes induced per request class
        self.flush_writes = {"across": 0, "normal": 0}
        self.flush_sectors = {"across": 0, "normal": 0}
        self.trim_count = 0
        #: completion times of recently serviced requests; only the
        #: in-flight gauge needs them, so the window is bounded instead
        #: of growing with the trace.  The window must cover the host
        #: queue depth, otherwise the gauge undercounts whenever more
        #: than 128 requests overlap.
        qd = self.sim_cfg.queue_depth
        self._completions: deque[float] = deque(
            maxlen=128 if qd is None else max(128, qd)
        )
        # qos_streams needs the per-request rows even when the caller
        # did not ask for the full log explicitly
        self.request_log: Optional[RequestLog] = (
            RequestLog()
            if self.sim_cfg.record_requests or self.sim_cfg.qos_streams
            else None
        )
        #: metric-over-time snapshots (SimConfig.snapshot_every)
        self.series: Optional[CounterSeries] = (
            CounterSeries() if self.sim_cfg.snapshot_every > 0 else None
        )
        self._aged = False
        #: observability facade (SimConfig.observability); None when
        #: disabled, so every hot-path hook is a single `is None` branch
        self.obs: Optional[Observability] = None
        self._bus = None
        #: latency-attribution recorder (observability.attribution);
        #: None on the fast path like the bus
        self._attr = None
        self._next_rid = 0
        self._now = 0.0
        #: the event-driven frontend's in-flight list (SimConfig.frontend)
        #: and its tallies for the report; the scheduler itself is not
        #: kept: its hooks are bound to this simulator
        self._fe_inflight: Optional[list] = None
        self._fe_extra: dict[str, int] = {}
        #: reads numbered at arrival, and the completed ones waiting
        #: until every earlier-arrived read has folded into the digest
        self._read_count = 0
        self._pending_reads: dict[int, tuple] = {}
        self._next_read = 0
        if self.sim_cfg.observability.enabled:
            self.obs = Observability(self.sim_cfg.observability)
            self._bus = self.obs.bus
            self._attr = self.obs.attribution
            # a weak reference: the facade must not keep its simulator
            sim = weakref.ref(self)
            self.obs.bind(
                timeline=ftl.service.timeline,
                array=ftl.service.array,
                ftl=ftl,
                inflight_fn=lambda: sim()._inflight(),
            )
            self._attach_obs()
        #: fault injector (SimConfig.faults); installed on the flash
        #: service so every timed op consults it — stays None (the
        #: fault-free fast path) unless the config block enables it
        self.faults = None
        if self.sim_cfg.faults.enabled:
            from ..faults import FaultInjector

            self.faults = FaultInjector(
                self.cfg, self.sim_cfg.faults, ftl.service.array
            )
            ftl.service.faults = self.faults
        #: runtime invariant checker (SimConfig.check); stays None — the
        #: fast path — unless the config block enables it
        self.checker = None
        #: running digest of oracle-verified read contents, fed into the
        #: differential-replay comparison (repro.check); needs both the
        #: checker and the oracle
        self._read_digest = None
        if self.sim_cfg.check.enabled:
            from ..check.invariants import InvariantChecker

            self.checker = InvariantChecker(ftl, self.sim_cfg.check)
            if self.oracle is not None:
                self._read_digest = hashlib.sha256()

    # ------------------------------------------------------------------
    # observability plumbing
    # ------------------------------------------------------------------
    def _attach_obs(self) -> None:
        """Install the event bus on every instrumented component."""
        self.ftl.service.obs = self._bus
        self.ftl.service.attr = self._attr
        if self.cache is not None:
            self.cache.obs = self._bus

    def _detach_obs(self) -> None:
        """Silence the bus (device aging must not flood the trace)."""
        self.ftl.service.obs = None
        self.ftl.service.attr = None
        if self.cache is not None:
            self.cache.obs = None

    def _update_read_digest(self, offset: int, size: int, found) -> None:
        """Fold one oracle-verified read into the running content
        digest: (extent, then each found sector's version stamp in
        sector order).  Any two runs replaying the same trace — across
        schemes, with or without the write buffer — must produce the
        same digest, because the oracle pins every returned stamp."""
        h = self._read_digest
        h.update(b"r%d:%d" % (offset, size))
        if found:
            for sec in sorted(found):
                h.update(b"|%d=%d" % (sec, found[sec]))

    def _inflight(self) -> int:
        """Requests issued but not yet complete at the current sim time
        (bounded scan: good enough for a sampled gauge).

        ``self._now`` is advanced to the sampling timestamp before
        every ``obs.maybe_sample`` call — sampling happens at request
        *completion* time, so comparing against the service start time
        would count the just-finished request (and any other request
        completing inside its service window) as still outstanding.
        In frontend mode the scheduler tracks the in-flight set
        exactly.
        """
        if self._fe_inflight is not None:
            return len(self._fe_inflight)
        now = self._now
        return sum(1 for c in self._completions if c > now)

    # ------------------------------------------------------------------
    # device aging (paper §4.1)
    # ------------------------------------------------------------------
    @contextmanager
    def _aging_mode(self):
        """Untimed, AGING-counted flash ops with the bus silenced."""
        self.ftl.aging = True
        if self._bus is not None:
            self._detach_obs()
        try:
            yield
        finally:
            self.ftl.aging = False
            if self._bus is not None:
                self._attach_obs()

    def _write_columns(self, trace: Trace) -> tuple[list[int], list[int]]:
        """``(offsets, sizes)`` of the trace's writes, clamped to the
        logical space and with empty extents dropped — the run format
        :meth:`_write_until` takes."""
        limit = self.ftl.logical_pages * self.spp
        w = trace.ops == OP_WRITE
        offs = trace.offsets[w]
        ends = np.minimum(offs + trace.sizes[w], limit)
        keep = (ends > offs) & (offs >= 0)
        return offs[keep].tolist(), (ends - offs)[keep].tolist()

    def age_device(self) -> None:
        """Pre-condition the flash (paper §4.1: the device is aged so
        90% of capacity has been used, 39.8% valid after warming up).

        ``aging_style="aligned"``: random full-page writes hit the
        ``aged_valid``/``aged_used`` fractions exactly.
        ``aging_style="vdi"``: replay a synthetic VDI write stream (like
        the paper's warm-up trace), which also pre-fragments sub-page
        mapping tables and seeds across-page areas.  Either way the
        writes reach the scheme through :meth:`_write_until`.
        """
        if self._aged:
            return
        aged = self.sim_cfg.aged_used > 0.0
        t0 = _time.perf_counter()
        source = self._restore_or_age() if aged else "bypass"
        self._aged = True
        self.host = {"age_s": _time.perf_counter() - t0, "image": source}

    def _restore_or_age(self) -> str:
        """Fill the device from its cached image, or age it and cache
        the image; returns where the aged device came from."""
        if not self._imageable():
            self._age()
            return "bypass"
        key = image_key(self.ftl, self.sim_cfg)
        hit = IMAGES.fetch(key, device_geometry(self.ftl), self.image_dir)
        if hit is not None:
            image, tier = hit
            image.restore(self.ftl)
            return tier
        self._age()
        # captured before replay mutates the device
        IMAGES.store(DeviceImage.capture(self.ftl, key), self.image_dir)
        return "built"

    def _age(self) -> None:
        with self._aging_mode():
            if self.sim_cfg.aging_style == "vdi":
                self._age_vdi(self.sim_cfg.aged_used)
            else:
                self._age_aligned(
                    self.sim_cfg.aged_used, self.sim_cfg.aged_valid
                )

    def _imageable(self) -> bool:
        """The one predicate deciding whether :meth:`age_device` may go
        through the image cache: a scheme built by
        :func:`~repro.ftl.make_ftl` (its kwargs key the image),
        a device nothing has touched yet, and none of the modes that
        keep state the seam does not describe (fault injector, sector
        oracle / payload stamps, runtime checker)."""
        ftl = self.ftl
        return (
            ftl.ftl_kw is not None
            and not ftl.track_payload
            and self.faults is None
            and self.oracle is None
            and self.checker is None
            and ftl.service.array.total_programs == 0
            and ftl.counters == FlashOpCounters()
        )

    def _age_aligned(self, used: float, valid: float) -> None:
        rng = np.random.default_rng(self.sim_cfg.seed)
        total_pages = self.ftl.geom.num_pages
        logical_pages = self.ftl.logical_pages
        n_valid = min(int(valid * total_pages), logical_pages)
        n_total = int(used * total_pages)
        lpns = rng.permutation(logical_pages)[:n_valid]
        n_over = max(0, n_total - n_valid)
        if n_over and n_valid:
            lpns = np.concatenate(
                [lpns, rng.choice(lpns, size=n_over, replace=True)]
            )
        spp = self.spp
        self._write_until((lpns * spp).tolist(), [spp] * len(lpns), sys.maxsize)

    def age_with_trace(self, trace: Trace) -> None:
        """Pre-condition by replaying a user-supplied trace's writes
        untimed — the paper's §4.1 warm-up with the actual
        additional-02...LUN6 file, for users who have it."""
        if self._aged:
            return
        t0 = _time.perf_counter()
        with self._aging_mode():
            self._write_until(*self._write_columns(trace), sys.maxsize)
        self._aged = True
        self.host = {"age_s": _time.perf_counter() - t0, "image": "bypass"}

    def _age_vdi(self, used: float) -> None:
        """Replay synthetic VDI writes until ``used`` of the physical
        pages have been programmed (GC may run; erased space counts as
        used work done, mirroring a real warm-up replay)."""
        target = int(used * self.ftl.geom.num_pages)
        counters = self.ftl.counters
        chunk = max(2_000, target // 8)
        seed = self.sim_cfg.seed
        footprint = int(self.ftl.logical_pages * self.spp * 0.85)
        # The warm-up stream is LUN6-like in write sizes and alignment
        # (sub-page writes fragment region tables, like the paper's
        # warm-up replay), but its across-page component is scaled down
        # so the density of leftover areas matches the paper's full-size
        # device (~100k areas over 16.7M pages, i.e. <1% of pages —
        # naively replaying the full ratio on a 64x smaller device would
        # leave every third page shadowed by a stale area and flood the
        # measured run with one-time collision rollbacks).
        while counters.writes[OpKind.AGING] < target:
            spec = SyntheticSpec(
                name="aging",
                requests=chunk,
                write_ratio=1.0,
                across_ratio=0.003,
                site_reuse=0.8,
                small_unaligned=0.45,
                mean_write_kb=7.6,
                footprint_sectors=footprint,
                seed=seed,
            )
            seed += 1
            self._write_until(*self._write_columns(generate_trace(spec)), target)

    def _write_until(self, offsets, sizes, target: int) -> None:
        """Aging's one write loop: each ``(offset, size)`` through the
        scheme's own :meth:`~repro.ftl.base.BaseFTL.write` — the path
        replay takes — until the AGING write counter reaches ``target``
        (checked after each request)."""
        write = self.ftl.write
        writes = self.ftl.counters.writes
        aging = OpKind.AGING
        for offset, size in zip(offsets, sizes):
            write(offset, size, 0.0, None)
            if writes[aging] >= target:
                return

    # ------------------------------------------------------------------
    # the request lifecycle: arrive -> probe (reads) -> issue -> complete
    # ------------------------------------------------------------------
    def process(
        self,
        op: int,
        offset: int,
        size: int,
        arrival: float,
        start: float | None = None,
    ) -> float:
        """Service one request; returns its latency in ms.

        ``start`` (>= ``arrival``) is when the device begins servicing —
        later than arrival when a host queue-depth limit applies; the
        latency always counts from ``arrival``.
        """
        if size <= 0:
            raise SimulationError(f"request size must be positive, got {size}")
        if offset < 0 or offset + size > self.ftl.logical_pages * self.spp:
            raise SimulationError(
                f"request [{offset}, {offset + size}) outside logical space"
            )
        if start is None or start < arrival:
            start = arrival
        req = self._arrive(op, offset, size, arrival)
        if op == OP_READ:
            req.cache_hit = self._probe_cache(req, start)
        self._issue(req, start)
        self._complete(req)
        return req.finish - arrival

    def _arrive(self, op: int, offset: int, size: int, ts: float) -> Request:
        """Build the per-request state at its arrival: classify it
        (paper §2.1: at most one page of data spanning a page
        boundary), assign the oracle version (writes), forget trimmed
        stamps (TRIMs) or snapshot expected versions (reads) in
        arrival order, and announce it on the bus.  Callers checked
        the extent."""
        spp = self.spp
        across = (
            size <= spp and (offset + size - 1) // spp == offset // spp + 1
        )
        rid = self._next_rid
        self._next_rid += 1
        req = Request(rid, op, offset, size, ts, across)
        oracle = self.oracle
        if oracle is not None:
            if op == OP_WRITE:
                req.version = oracle.stamp_write(offset, size)
            elif op == OP_TRIM:
                oracle.trim(offset, size)
            else:
                req.expect = oracle.snapshot(offset, size)
                req.read_index = self._read_count
                self._read_count += 1
        if self._bus is not None:
            self._bus.emit(
                RequestArrive(ts, rid, op, offset, size, across)
            )
        return req

    def _probe_cache(self, req: Request, now: float) -> bool:
        """One-time DRAM-cache lookup for a hazard-clear read.

        Probe-once is sound for hits (a hit is served immediately) and
        a deliberate simplification for misses: a WAR hazard prevents
        any overlapping *write* from issuing before this read, so the
        only way the extent could become cached before issue is via a
        concurrent overlapping read's fill — that read then goes to
        flash anyway, which is timing-pessimistic but never stale.
        """
        cache = self.cache
        if cache is None:
            return False
        hit = cache.full_hit(req.offset, req.size)
        if hit:
            self.ftl.counters.cache_hits += 1
        if self._bus is not None:
            self._bus.emit(BufferLookup(now, req.rid, hit))
        return hit

    def _issue(self, req: Request, now: float) -> None:
        """Service a request from ``now`` through the (synchronous) FTL
        timing model and the data cache; record its completion time in
        ``req.finish``, with what it read, the flash programs it
        induced and its latency phases.

        The attribution ledger opens and closes inside this one call —
        every gating flash operation of the request resolves
        synchronously here — so the single-request frontier recorder
        keeps working with many requests in flight.
        """
        op = req.op
        bus = self._bus
        if bus is not None:
            self._now = bus.now = now
            bus.current_request = req.rid
        attr = self._attr
        if attr is not None:
            attr.begin(req.arrival, now)
        counters = self.ftl.counters
        writes_before = counters._measured_writes
        cache = self.cache
        if op == OP_TRIM:
            if attr is not None:
                # flash work a trim triggers (across-area rollback) is
                # non-gating: the trim completes at DRAM speed
                attr.suspend()
                try:
                    finish = self.ftl.trim(req.offset, req.size, now)
                finally:
                    attr.resume()
            else:
                finish = self.ftl.trim(req.offset, req.size, now)
            if cache is not None:
                cache.discard(req.offset, req.size)
            if attr is not None:
                attr.advance("cache", finish)
        elif op == OP_WRITE:
            finish = self.ftl.write(req.offset, req.size, now, req.version)
            if cache is not None:
                cache.put(req.offset, req.size, req.version)
                t = now + self._cache_ms
                if t > finish:
                    finish = t
                if attr is not None:
                    attr.advance("cache", t)
        elif req.cache_hit:
            finish = now + self._cache_ms
            if attr is not None:
                attr.advance("cache", finish)
            if self.oracle is not None:
                req.found = cache.get_stamps(req.offset, req.size)
        else:
            finish, req.found = self.ftl.read(req.offset, req.size, now)
            if cache is not None:
                cache.put_found(req.offset, req.size, req.found)
        req.induced = counters._measured_writes - writes_before
        req.finish = finish
        if attr is not None:
            latency = finish - req.arrival
            if op == OP_TRIM:
                cls = "trim"
            else:
                cls = ("write_" if op == OP_WRITE else "read_") + (
                    "across" if req.across else "normal"
                )
            req.phases = attr.complete(cls, latency)
            if self.checker is not None:
                self.checker.check_attribution(req.phases, latency, req.rid)

    def _complete(self, req: Request) -> None:
        """Account a completed request: oracle verification against
        the arrival snapshot and arrival-order digest folding (reads),
        latency buckets, flush/TRIM counters, the request log, and the
        completion on the bus, sampled at the completion time."""
        op = req.op
        finish = req.finish
        latency = finish - req.arrival
        self._completions.append(finish)
        if op == OP_TRIM:
            # metadata-only: outside the four latency buckets, and a
            # trim never counts as inducing flash programs
            self.trim_count += 1
            induced = 0
        else:
            induced = req.induced
            self.recorder.record(op == OP_WRITE, req.across, latency, req.size)
            if op == OP_WRITE:
                cls = "across" if req.across else "normal"
                self.flush_writes[cls] += induced
                self.flush_sectors[cls] += req.size
            elif self.oracle is not None:
                self.oracle.verify_expected(
                    req.offset, req.size, req.found, req.expect
                )
                if self._read_digest is not None:
                    # completions may run out of arrival order; the
                    # digest must not, or it would differ across queue
                    # depths — buffer and fold in read-arrival order
                    pend = self._pending_reads
                    pend[req.read_index] = (req.offset, req.size, req.found)
                    nxt = self._next_read
                    while nxt in pend:
                        self._update_read_digest(*pend.pop(nxt))
                        nxt += 1
                    self._next_read = nxt
        if self.request_log is not None:
            self.request_log.append(
                req.arrival, op, req.across, latency, induced, req.offset
            )
        bus = self._bus
        if bus is not None:
            self._now = bus.now = finish
            if req.phases:
                bus.emit(RequestPhases(
                    finish, req.rid, tuple(sorted(req.phases.items()))
                ))
            bus.emit(RequestComplete(finish, req.rid, latency))
            self.obs.maybe_sample(finish)

    def _cadence(self, trace: Trace):
        """The per-request bookkeeping both replay loops share: the
        checker's periodic sweep, a counter snapshot every
        ``snapshot_every`` requests and the throttled progress line.
        Returns ``(tick, end)``: a loop calls ``tick(done, t)`` after
        each request with its own count and timestamp, and ``end()``
        once it has drained."""
        checker = self.checker
        series = self.series
        snap_every = self.sim_cfg.snapshot_every
        progress = self.sim_cfg.progress
        name, n = trace.name, len(trace)
        t0 = _time.perf_counter()
        next_prog = t0 + _PROGRESS_EVERY_S
        width = 0

        def tick(done: int, t: float) -> None:
            nonlocal next_prog, width
            if checker is not None:
                checker.maybe_check(done)
            if series is not None and done % snap_every == 0:
                series.append(Snapshot.capture(done, t, self.ftl.counters))
            if progress:
                wall = _time.perf_counter()
                if wall >= next_prog:
                    width = _print_progress(
                        name, done, n, wall - t0, prev_width=width
                    )
                    next_prog = wall + _PROGRESS_EVERY_S

        def end() -> None:
            if progress:
                _print_progress(
                    name, n, n, _time.perf_counter() - t0,
                    final=True, prev_width=width,
                )

        return tick, end

    # ------------------------------------------------------------------
    # sequential replay loop
    # ------------------------------------------------------------------
    def _run_sequential(self, trace: Trace) -> float:
        """Service the trace one request at a time in trace order (the
        pinned-digest replay model); returns the last arrival timestamp.

        Each request runs its whole lifecycle — arrive, probe (reads),
        issue at its start time, complete — before the next one
        arrives, as in :meth:`process`; :meth:`run` checked every
        extent.  The trace columns are read in segments only to bound
        the ``tolist()`` footprint.
        """
        arrive, probe = self._arrive, self._probe_cache
        issue, complete = self._issue, self._complete
        qd = self.sim_cfg.queue_depth
        #: completion times of the at-most-qd outstanding requests; a
        #: slot frees when the *earliest-finishing* one completes (NCQ
        #: semantics), not the oldest-submitted (FIFO would mis-time
        #: every replay where a later short request finishes first).
        #: Metadata-only TRIMs bypass the queue entirely: they complete
        #: at DRAM speed without holding a NAND slot, so they neither
        #: wait for a slot nor gate the admission of later requests.
        outstanding: list[float] = []
        tick, end = self._cadence(trace)
        last = 0.0
        i = 0
        for lo in range(0, len(trace), _SEGMENT_REQUESTS):
            hi = lo + _SEGMENT_REQUESTS
            for op, offset, size, ts in zip(
                trace.ops[lo:hi].tolist(),
                trace.offsets[lo:hi].tolist(),
                trace.sizes[lo:hi].tolist(),
                trace.times[lo:hi].tolist(),
            ):
                start = ts
                takes_slot = qd is not None and op != OP_TRIM
                if takes_slot and len(outstanding) >= qd:
                    # the device accepts this request only once the
                    # earliest-finishing outstanding one has completed
                    start = max(ts, heapq.heappop(outstanding))
                req = arrive(op, offset, size, ts)
                if op == OP_READ:
                    req.cache_hit = probe(req, start)
                issue(req, start)
                complete(req)
                if takes_slot:
                    heapq.heappush(outstanding, req.finish)
                last = ts
                i += 1
                tick(i, ts)
        end()
        return last

    # ------------------------------------------------------------------
    # discrete-event frontend replay loop (SimConfig.frontend)
    # ------------------------------------------------------------------
    def _run_frontend(self, trace: Trace) -> float:
        """Replay through the event frontend: requests arrive, wait out
        LBA-overlap hazards in the frontend scheduler, issue through
        per-chip command queues and complete when the timing model
        says so.  Returns the last arrival timestamp.

        Three event sources, merged by time: arrivals stream from the
        (time-sorted) trace columns, issues are released at the current
        instant into a FIFO, and completions wait in a heap of
        ``(finish, seq, req)``.  At equal timestamps completions run
        before arrivals (a freed NCQ slot is visible to a request
        arriving at the same instant) and arrivals before issues (an
        issue decided at time ``t`` happens after every external event
        at ``t``); issues leave in release order and completions with
        equal finish times in issue order, so replays are reproducible
        across runs and worker processes.

        Ordering contract: oracle versions/snapshots are taken at
        *arrival* (trace order) and reads fold into the content digest
        in arrival order, so the digest is invariant across queue
        depths and schemes — the frontend's hazard rules must reproduce
        arrival semantics, and the oracle proves it.
        """
        fe_cfg = self.sim_cfg.frontend
        #: requests released at the current instant, in release order
        issues: deque = deque()

        def push_issue(req, now: float) -> None:
            issues.append(req)

        nand = NandScheduler(
            self.cfg.num_chips,
            read_priority=fe_cfg.read_priority,
            issue=push_issue,
        )
        fe = FrontendScheduler(
            queue_depth=self.sim_cfg.queue_depth,
            window=fe_cfg.window,
            nand=nand,
            predict_chip=self._fe_predict_chip,
            probe_cache=self._probe_cache,
            issue=push_issue,
            on_stall=self._fe_stall if self._bus is not None else None,
            checker=self.checker,
        )
        waiting = fe.waiting
        self._fe_inflight = fe.inflight

        times = trace.times.tolist()
        ops = trace.ops.tolist()
        offsets = trace.offsets.tolist()
        sizes = trace.sizes.tolist()
        n = len(times)
        #: completion heap; ``seq`` breaks finish-time ties in issue order
        done: list = []
        heappush, heappop = heapq.heappush, heapq.heappop
        seq = 0
        i = 0
        t_next = times[0] if n else float("inf")
        t = last = 0.0
        #: the last dispatch pass stopped at its window after releasing
        #: requests: scan again after the next issue (see dispatch)
        rescan = False
        completed = 0
        tick, end = self._cadence(trace)
        while True:
            # issues wait at the current instant ``t``: a completion or
            # an arrival at ``t`` runs before them
            if done and done[0][0] <= t_next and (
                not issues or done[0][0] <= t
            ):
                t, _, req = heappop(done)
                self._complete(req)
                fe.on_complete(req, t)
                completed += 1
                tick(completed, t)
                rescan = fe.dispatch(t) if waiting else False
            elif i < n and (not issues or t_next <= t):
                t = last = t_next
                fe.add(self._arrive(ops[i], offsets[i], sizes[i], t))
                i += 1
                t_next = times[i] if i < n else float("inf")
                rescan = fe.dispatch(t)
            elif issues:
                req = issues.popleft()
                self._issue(req, t)
                seq += 1
                heappush(done, (req.finish, seq, req))
                if rescan:
                    rescan = fe.dispatch(t)
            else:
                break
        if waiting or fe.inflight or self._pending_reads:
            raise SimulationError(
                f"frontend drained with {len(waiting)} waiting / "
                f"{len(fe.inflight)} in-flight request(s) and "
                f"{len(self._pending_reads)} unfolded read(s)"
            )
        end()
        self._fe_extra = {
            "frontend_hazard_stalls": fe.hazard_stalls,
            "frontend_cache_bypass": fe.cache_bypass,
            "frontend_reordered": fe.nand.reordered,
        }
        return last

    def _fe_predict_chip(self, req) -> int:
        """Predict which chip a NAND-bound request touches first (the
        chip-queue assignment; a heuristic, see
        :mod:`repro.sim.nand_sched`): mapped reads go to their first
        LPN's current chip, everything else hashes the LPN across
        chips."""
        lpn = req.offset // self.spp
        if req.op == OP_READ:
            ppn = self.ftl._pmt[lpn]
            if ppn >= 0:
                return self.ftl.geom.chip_of_ppn(ppn)
        return lpn % self.cfg.num_chips

    def _fe_stall(self, req, blocker, now: float) -> None:
        """Publish the first hazard stall of a request on the bus."""
        if req.op == OP_READ:
            kind = "raw"
        elif blocker.op == OP_READ:
            kind = "war"
        else:
            kind = "waw"
        self._bus.emit(HazardStall(now, req.rid, blocker.rid, kind))

    # ------------------------------------------------------------------
    def _streams_summary(self) -> Optional[dict]:
        """Per-stream QoS rollup of the request log
        (``SimConfig.qos_streams``).

        Streams partition the LBA space at the configured sector
        boundaries; every logged request lands in exactly one stream by
        its start offset.  Only occupied streams appear, keyed by their
        index as a string (JSON round-trip safe).
        """
        boundaries = self.sim_cfg.qos_streams
        if not boundaries or self.request_log is None:
            return None
        log = self.request_log
        streams: dict[str, dict] = {}
        out = {"boundaries": [int(b) for b in boundaries], "streams": streams}
        if len(log) == 0:
            return out
        idx = np.searchsorted(
            np.asarray(boundaries, dtype=np.int64), log.offset, side="right"
        )
        ops = log.op
        lat = log.latency
        for i in np.unique(idx):
            mask = idx == i
            hist = LogHistogram()
            hist.extend(float(v) for v in lat[mask])
            streams[str(int(i))] = {
                "requests": int(mask.sum()),
                "reads": int((ops[mask] == OP_READ).sum()),
                "writes": int((ops[mask] == OP_WRITE).sum()),
                "trims": int((ops[mask] == OP_TRIM).sum()),
                "hist": hist.to_dict(),
            }
        return out

    # ------------------------------------------------------------------
    # full trace
    # ------------------------------------------------------------------
    def _check_extents(self, trace: Trace) -> None:
        """Raise :class:`SimulationError` naming the first request whose
        extent is empty or leaves ``[0, logical sectors)`` — the check
        :meth:`process` makes for one request, over the whole trace at
        once; neither replay loop checks again."""
        limit = self.ftl.logical_pages * self.spp
        offsets, sizes = trace.offsets, trace.sizes
        bad = (sizes <= 0) | (offsets < 0) | (offsets > limit - sizes)
        if bad.any():
            i = int(bad.argmax())
            raise SimulationError(
                f"request {i}: extent [{offsets[i]}, {offsets[i] + sizes[i]})"
                f" is not inside the logical space [0, {limit})"
            )

    def run(self, trace: Trace) -> SimulationReport:
        """Age (if configured), replay the whole trace, flush metadata,
        and assemble the report.

        Two replay loops share everything else: the sequential loop
        (default; one request at a time in trace order — the model all
        pinned golden/bench digests were taken on) and the
        discrete-event frontend (``SimConfig.frontend.enabled``) that
        overlaps in-flight requests under hazard ordering
        (:mod:`repro.sim.frontend`).  A bad extent fails before aging.
        """
        t0 = _time.perf_counter()
        self._check_extents(trace)
        self.age_device()
        if self.sim_cfg.frontend.enabled:
            last = self._run_frontend(trace)
        else:
            last = self._run_sequential(trace)
        self.ftl.flush_metadata(last)
        if self.checker is not None:
            # unconditional end-of-run sweep (after the metadata flush,
            # so dirty translation pages are accounted on flash too)
            self.checker.check_now()
        if self.obs is not None:
            self.obs.finish(last)

        extra = dict(self.ftl.stats())
        extra["flush_writes_across"] = self.flush_writes["across"]
        extra["flush_writes_normal"] = self.flush_writes["normal"]
        extra["flush_sectors_across"] = self.flush_sectors["across"]
        extra["flush_sectors_normal"] = self.flush_sectors["normal"]
        extra["trim_count"] = self.trim_count
        if self.series is not None:
            self.series.append(
                Snapshot.capture(len(trace), last, self.ftl.counters)
            )
            extra.update(
                {f"series_{k}": v for k, v in self.series.summary().items()}
            )
        if self.cache is not None:
            extra["cache_entries"] = len(self.cache)
        if self.oracle is not None:
            extra["oracle_reads_verified"] = self.oracle.reads_verified
        if self.obs is not None:
            extra["obs_events"] = self._bus.events_emitted
            if self.obs.recorder is not None:
                extra["obs_spans"] = len(self.obs.recorder)
        if self.faults is not None:
            extra["fault_draws"] = self.faults.draws
            extra["retired_blocks"] = self.ftl.service.array.total_bad_blocks
        if self.checker is not None:
            extra["check_sweeps"] = self.checker.sweeps
            if self._read_digest is not None:
                extra["check_read_digest"] = self._read_digest.hexdigest()
        extra.update(self._fe_extra)
        if self.sim_cfg.record_wear:
            from ..flash.wear import wear_stats

            ws = wear_stats(self.ftl.service.array)
            extra["wear_total_erases"] = ws.total_erases
            extra["wear_mean"] = ws.mean
            extra["wear_std"] = ws.std
            extra["wear_max"] = ws.max
            extra["wear_gini"] = ws.gini
            extra["wear_imbalance"] = ws.imbalance
        return SimulationReport(
            scheme=self.ftl.name,
            trace_name=trace.name,
            requests=len(trace),
            counters=self.ftl.counters,
            latency=self.recorder,
            extra=extra,
            mapping_table_bytes=self.ftl.mapping_table_bytes(),
            wall_seconds=_time.perf_counter() - t0,
            host=dict(self.host),
            attribution=(
                self._attr.summary() if self._attr is not None else None
            ),
            streams=self._streams_summary(),
        )
