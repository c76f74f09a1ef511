"""Vectorised per-segment hot paths for the sequential replay loop.

:class:`BatchReadKernel` absorbs runs of *eligible* reads from the
columnar request stream (:mod:`repro.traces.columnar`) and services
them without entering :meth:`Simulator.process`: segment-level vector
screens decide eligibility, the per-request DRAM work (buffer lookup,
mapping-cache touch, sector-mask math, oracle folding) runs fused, and
the flash pass advances each chip's timeline in one tight loop at
``flush()``.

Bit-identical by construction, not by tolerance:

* every counter bump, LRU movement, protocol check and digest fold
  happens with the same values — and in the same request order — as
  the scalar path produces;
* the chip-timeline advance replays ``ChipTimeline._occupy`` exactly
  (``finish = max(busy, now) + read_ms`` per operation).  The closed
  form ``(k+1)*d + cummax(t_k - k*d)`` is algebraically equal but not
  floating-point equal (repeated addition is not multiplication in
  IEEE arithmetic), and finish times feed latency histograms and hence
  report digests — so the advance stays a fused scalar recurrence;
* any request the screens cannot prove equivalent (mapping-cache miss,
  across-area overlap, write, TRIM, invalid extent) flushes the run
  and falls back to the scalar path, which remains the single source
  of truth.

Eligibility is two-level.  Globally (``BatchReadKernel.build`` returns
``None`` otherwise): no observability bus, no latency attribution
(only installed with the bus), no fault injection, no host queue-depth
limit, and no bus-transfer timing.  Per request: the extent is valid,
every translation page it needs is already cached (or the cache is
unlimited) — which on MRSM also rules out the miss-path evictions that
would be flash traffic — and, for Across-FTL, no touched logical page
overlaps a live across area (probed per request against the flat
``aidx`` mirror — live, because a scalar-path write earlier in the
same segment may have created an area).  The page-mapped schemes share
one absorb path; MRSM gets its own (:meth:`_try_read_mrsm`, over the
scheme's region columns with tree-touch DRAM accounting) bound as
``try_read`` at construction."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import FlashProtocolError
from ..flash.array import PAGE_VALID
from ..metrics.counters import OpKind
from ..traces.model import OP_READ

#: minimum length of a consecutive-read run before the kernel starts
#: absorbing it.  Below this, the scalar path is cheaper: a run that a
#: write flushes after one or two requests pays the accumulator and
#: flush machinery without amortising it (write-heavy interleaved
#: workloads like the hotpath gate scenario would regress).  The
#: segment decode makes the lookahead free — one vectorised
#: suffix-scan per segment.
MIN_READ_RUN = 4


class BatchReadKernel:
    """Fused read-run executor bound to one :class:`Simulator`."""

    @classmethod
    def build(cls, sim) -> Optional["BatchReadKernel"]:
        """Return a kernel for ``sim``, or ``None`` when any global
        precondition fails (the loop then runs fully scalar)."""
        if sim.sim_cfg.queue_depth is not None:
            return None
        if sim.obs is not None or sim.faults is not None:
            return None
        ftl = sim.ftl
        if ftl.name not in ("ftl", "across", "mrsm"):
            return None
        if ftl.service.timeline._transfer_ms > 0:
            return None
        return cls(sim)

    def __init__(self, sim):
        self.sim = sim
        ftl = sim.ftl
        self.spp = sim.spp
        self.limit = ftl.logical_pages * sim.spp
        self.cache = sim.cache
        self.cache_ms = sim._cache_ms
        self.oracle = sim.oracle
        self.counters = ftl.counters
        self.reads = ftl.counters.reads
        self.mrsm = ftl.name == "mrsm"
        pcache = ftl._cache if self.mrsm else ftl._pmt_cache
        self.pcache = pcache
        self.unlimited = pcache.unlimited
        self.epp = pcache.entries_per_page
        self.cached = pcache._cached
        if self.mrsm:
            self.pmt = None
            self.pmt_mask = None
            # the scheme's own column walks: one definition of how a
            # sector extent maps to region keys, masks and flash pages
            self.span = ftl._span
            self.wanted_pages = ftl._wanted_pages
            self.aidx = None
            # instance attribute shadows the class method: zero-cost
            # per-request dispatch to the region-granular absorb path
            self.try_read = self._try_read_mrsm
        else:
            self.pmt = ftl._pmt
            self.pmt_mask = ftl._pmt_mask
            # Across-FTL: flat area-index mirror (-1 = no area) for the
            # area screen; None on the plain page-mapping scheme.  The
            # screen probes it live per request — a write earlier in
            # the *same* segment can create an area, so a per-segment
            # gather would go stale.
            self.aidx = ftl._aidx if ftl.name == "across" else None
        arr = ftl.service.array
        self.arr = arr
        self.state = arr._state
        self.meta = arr._meta
        tl = ftl.service.timeline
        self.tl = tl
        self.read_ms = tl._read_ms
        self.pages_per_chip = ftl.service._pages_per_chip
        self.recorder = sim.recorder
        self.completions = sim._completions
        self.request_log = sim.request_log
        self.checker = sim.checker
        #: accumulated requests: (index, arrival, across, size,
        #: resolved-finish-or-None, first-op, one-past-last-op)
        self._reqs: list[tuple] = []
        #: flash-read PPNs of the run, in issue order
        self._ppns: list[int] = []
        #: matching issue times (the request's service start)
        self._op_ts: list[float] = []
        # segment-local screen columns (begin_segment)
        self._k_lo: list[int] = []
        self._k_hi: list[int] = []
        self._k_across: list[bool] = []
        self._k_runlen: list[int] = []
        #: lifetime statistics (Simulator attributes only — the report
        #: dict feeds pinned digests and must not change shape)
        self.runs_flushed = 0
        self.requests_vectorised = 0
        self.flash_reads_vectorised = 0

    # ------------------------------------------------------------------
    def pending(self) -> int:
        """Requests absorbed but not yet flushed (progress accounting
        counts *completed* requests, so the replay loop subtracts
        this)."""
        return len(self._reqs)

    # ------------------------------------------------------------------
    def begin_segment(self, seg) -> None:
        """Precompute the segment-level screen columns: the decoded
        page geometry and the forward read-run lengths.  Only columns
        derived from the (immutable) trace may be precomputed — device
        state screens, the Across-FTL area probe included, must run
        live in :meth:`try_read` because a scalar-path write earlier in
        the same segment can change them."""
        self._k_lo = seg.lpn_lo.tolist()
        self._k_hi = seg.lpn_hi.tolist()
        self._k_across = seg.across.tolist()
        # forward run length of consecutive reads starting at each row:
        # suffix-min of the next non-read position, minus the row index
        ops = seg.ops
        idx = np.arange(len(ops))
        nxt = np.where(ops != OP_READ, idx, len(ops))
        sufmin = np.minimum.accumulate(nxt[::-1])[::-1]
        self._k_runlen = (sufmin - idx).tolist()

    # ------------------------------------------------------------------
    def try_read(
        self, k: int, offset: int, size: int, ts: float, index: int
    ) -> bool:
        """Absorb read ``k`` of the current segment (global request
        ``index``) into the run; ``False`` leaves all state untouched
        and sends the request down the scalar path."""
        # too-short read run and not already mid-run: scalar is cheaper
        if not self._reqs and self._k_runlen[k] < MIN_READ_RUN:
            return False
        end = offset + size
        if size <= 0 or offset < 0 or end > self.limit:
            return False  # scalar path raises the canonical error
        lpn_lo = self._k_lo[k]
        lpn_hi = self._k_hi[k]
        # --- screens: pure reads only, no mutation before commitment
        aidx = self.aidx
        if aidx is not None:
            for lpn in range(lpn_lo, lpn_hi + 1):
                if aidx[lpn] != -1:
                    return False
        if not self.unlimited:
            cached = self.cached
            epp = self.epp
            for tvpn in range(lpn_lo // epp, lpn_hi // epp + 1):
                if tvpn not in cached:
                    return False
        # --- committed: replay the scalar read's mutations fused
        counters = self.counters
        cache = self.cache
        oracle = self.oracle
        across = self._k_across[k]
        if cache is not None and cache.full_hit(offset, size):
            counters.cache_hits += 1
            found = (
                cache.get_stamps(offset, size) if oracle is not None else None
            )
            if oracle is not None:
                oracle.verify(offset, size, found)
                if self.sim._read_digest is not None:
                    self.sim._update_read_digest(offset, size, found)
            self._reqs.append(
                (index, ts, across, size, ts + self.cache_ms, 0, 0, offset)
            )
            return True
        # buffer miss (already counted by full_hit): flash read path
        spp = self.spp
        pmt = self.pmt
        pmt_mask = self.pmt_mask
        state = self.state
        meta_of = self.meta
        unlimited = self.unlimited
        cached = self.cached
        epp = self.epp
        pcache = self.pcache
        ppns = self._ppns
        op_ts = self._op_ts
        p_lo = len(ppns)
        found = {} if oracle is not None else None
        for lpn in range(lpn_lo, lpn_hi + 1):
            page_lo = lpn * spp
            rel_lo = offset - page_lo if offset > page_lo else 0
            rel_hi = end - page_lo if end < page_lo + spp else spp
            # mapping-cache touch (read hit, inlined untimed-equivalent)
            counters.dram_accesses += 1
            pcache.hits += 1
            if not unlimited:
                cached.move_to_end(lpn // epp)
            present = pmt_mask[lpn] & (
                ((1 << (rel_hi - rel_lo)) - 1) << rel_lo
            )
            if not present:
                continue  # nothing of this piece was ever written
            ppn = pmt[lpn]
            if state[ppn] != PAGE_VALID:
                raise FlashProtocolError(f"read of non-valid PPN {ppn}")
            ppns.append(ppn)
            op_ts.append(ts)
            if found is not None:
                m = meta_of[ppn]
                if m.payload:
                    payload = m.payload
                    mask = present
                    while mask:
                        low = mask & -mask
                        sec = page_lo + low.bit_length() - 1
                        mask ^= low
                        if sec in payload:
                            found[sec] = payload[sec]
        n_flash = len(ppns) - p_lo
        if n_flash:
            self.reads[OpKind.DATA] += n_flash
            counters._measured_reads += n_flash
            self.arr.total_page_reads += n_flash
        if cache is not None:
            cache.put_found(offset, size, found)
        if oracle is not None:
            oracle.verify(offset, size, found)
            if self.sim._read_digest is not None:
                self.sim._update_read_digest(offset, size, found)
        self._reqs.append(
            (index, ts, across, size, None, p_lo, len(ppns), offset)
        )
        return True

    # ------------------------------------------------------------------
    def _try_read_mrsm(
        self, k: int, offset: int, size: int, ts: float, index: int
    ) -> bool:
        """MRSM absorb path: region-granular split, tree-touch DRAM
        accounting, one deduplicated flash read per distinct region
        page — the exact shape of :meth:`MRSMFTL.read` with every
        touched translation page pre-screened as cached (so the miss /
        eviction flash traffic the scalar path would order can never
        occur inside the run)."""
        # too-short read run and not already mid-run: scalar is cheaper
        if not self._reqs and self._k_runlen[k] < MIN_READ_RUN:
            return False
        end = offset + size
        if size <= 0 or offset < 0 or end > self.limit:
            return False  # scalar path raises the canonical error
        first, last, head, tail = self.span(offset, size)
        if not self.unlimited:
            cached = self.cached
            epp = self.epp
            for tvpn in range(first // epp, last // epp + 1):
                if tvpn not in cached:
                    return False
        # --- committed: replay the scalar read's mutations fused
        counters = self.counters
        cache = self.cache
        oracle = self.oracle
        across = self._k_across[k]
        if cache is not None and cache.full_hit(offset, size):
            counters.cache_hits += 1
            found = (
                cache.get_stamps(offset, size) if oracle is not None else None
            )
            if oracle is not None:
                oracle.verify(offset, size, found)
                if self.sim._read_digest is not None:
                    self.sim._update_read_digest(offset, size, found)
            self._reqs.append(
                (index, ts, across, size, ts + self.cache_ms, 0, 0, offset)
            )
            return True
        # buffer miss (already counted by full_hit): flash read path.
        # Every translation page was screened as cached, so the range
        # touch is all hits: tallies and LRU movement, no flash traffic
        self.pcache.access_range(first, last, ts, dirty=False)
        state = self.state
        meta_of = self.meta
        ppns = self._ppns
        op_ts = self._op_ts
        p_lo = len(ppns)
        want_payload = oracle is not None
        found = {} if want_payload else None
        req_ppns = self.wanted_pages(first, last, head, tail, want_payload)
        n_flash = 0
        for ppn, secs in req_ppns.items():
            if state[ppn] != PAGE_VALID:
                raise FlashProtocolError(f"read of non-valid PPN {ppn}")
            ppns.append(ppn)
            op_ts.append(ts)
            n_flash += 1
            if want_payload:
                m = meta_of[ppn]
                if m.payloads:
                    payloads = m.payloads
                    for s in secs:
                        if s in payloads:
                            found[s] = payloads[s]
        if n_flash:
            self.reads[OpKind.DATA] += n_flash
            counters._measured_reads += n_flash
            self.arr.total_page_reads += n_flash
        if cache is not None:
            cache.put_found(offset, size, found)
        if oracle is not None:
            oracle.verify(offset, size, found)
            if self.sim._read_digest is not None:
                self.sim._update_read_digest(offset, size, found)
        self._reqs.append(
            (index, ts, across, size, None, p_lo, len(ppns), offset)
        )
        return True

    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Complete the accumulated run: advance the chip timelines
        (exact ``_occupy`` recurrence, issue order), then account every
        request in arrival order — completion window, latency buckets,
        request log, invariant sweeps."""
        reqs = self._reqs
        if not reqs:
            return
        ppns = self._ppns
        op_ts = self._op_ts
        n_ops = len(ppns)
        d = self.read_ms
        ppc = self.pages_per_chip
        tl = self.tl
        bu = tl._busy_until
        bt = tl._busy_time
        oc = tl._op_count
        fins = [0.0] * n_ops
        for j in range(n_ops):
            chip = ppns[j] // ppc
            t = op_ts[j]
            s = bu[chip]
            if t > s:
                s = t
            f = s + d
            bu[chip] = f
            bt[chip] += d
            oc[chip] += 1
            fins[j] = f
        record = self.recorder.record
        completions = self.completions
        rlog = self.request_log
        checker = self.checker
        for index, ts, across, size, finish, p_lo, p_hi, offset in reqs:
            if finish is None:
                finish = ts
                for j in range(p_lo, p_hi):
                    if fins[j] > finish:
                        finish = fins[j]
            completions.append(finish)
            latency = finish - ts
            record(False, across, latency, size)
            if rlog is not None:
                rlog.append(ts, OP_READ, across, latency, 0, offset)
            if checker is not None:
                checker.maybe_check(index + 1)
        self.runs_flushed += 1
        self.requests_vectorised += len(reqs)
        self.flash_reads_vectorised += n_ops
        self._reqs = []
        self._ppns = []
        self._op_ts = []
