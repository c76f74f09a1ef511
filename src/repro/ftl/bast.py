"""BAST: block-associative hybrid log-block FTL (library extension).

A classic pre-page-mapping design, included as an additional baseline:
it shows *why* fine-grained mapping won — and how badly across-page
and unaligned traffic age a block-mapped device.

Model
-----
* Logical blocks (``pages_per_block`` consecutive LPNs) map to whole
  physical *data blocks*; a page's position inside its data block is
  fixed (block-level mapping: one entry per block, tiny table).
* All host writes append to the logical block's dedicated *log block*
  (page-mapped internally).  NAND's sequential-program rule is always
  honoured: data blocks are only ever *constructed* by merges, which
  write pages 0..N-1 in order.
* When a log block fills, or the log pool runs dry, the victim logical
  block is **merged**: the newest copy of every page (log first, then
  the old data block) is copied into a freshly allocated block, and
  the old data and log blocks are erased.  A *switch merge* — the log
  block containing exactly pages 0..N-1 in order — promotes the log
  block to data block with a single erase.
* Merges are this scheme's garbage collection; the generic greedy GC
  never runs for it.

Partial-page writes do read-modify-write against the newest copy, so
the oracle holds.  Reads check the log block's page map first, then
the data block.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

import numpy as np

from ..errors import ConfigError, MappingError, OutOfSpaceError
from ..metrics.counters import OpKind
from ..units import split_extent
from .base import BaseFTL, iter_bits, mask_range
from .meta import KIND_DATA


class _LogBlock:
    """Per-logical-block log state."""

    __slots__ = ("block", "write_ptr", "page_of_offset", "sequential")

    def __init__(self, block: int):
        self.block = block
        self.write_ptr = 0
        #: page-offset-in-lbn -> page-index-in-log-block (newest copy)
        self.page_of_offset: dict[int, int] = {}
        #: stays True while appended offsets are exactly 0,1,2,...
        self.sequential = True


class BASTFTL(BaseFTL):
    """Hybrid log-block FTL with block-level mapping."""

    name = "bast"
    uses_generic_gc = False
    BLOCK_ENTRY_BYTES = 4

    def __init__(self, service, *, log_blocks: int = 32, **kw):
        super().__init__(service, **kw)
        if log_blocks < 2:
            raise ConfigError("need at least 2 log blocks")
        self.ppb = self.geom.pages_per_block
        self.num_lbns = -(-self.logical_pages // self.ppb)
        #: logical block -> physical data block (-1 = none yet)
        self.block_map = np.full(self.num_lbns, -1, dtype=np.int64)
        #: logical block -> live log block (LRU order = merge victims)
        self.logs: OrderedDict[int, _LogBlock] = OrderedDict()
        self.max_logs = log_blocks
        self._plane_cursor = 0
        # statistics
        self.full_merges = 0
        self.switch_merges = 0

    # ------------------------------------------------------------------
    # whole-block allocation (BAST works in block units)
    # ------------------------------------------------------------------
    def _alloc_block(self) -> int:
        arr = self.service.array
        n = self.geom.num_planes
        for i in range(n):
            plane = (self._plane_cursor + i) % n
            if arr.free_block_count(plane) > 0:
                self._plane_cursor = (plane + 1) % n
                return arr.pop_free_block(plane)
        raise OutOfSpaceError("no free block for BAST")

    def _erase(self, block: int, now: float) -> None:
        self.service.erase_block(block, now, aging=self.aging)

    # ------------------------------------------------------------------
    # newest-copy lookup
    # ------------------------------------------------------------------
    def _ppn_of(self, lpn: int) -> int | None:
        """PPN holding the newest copy of ``lpn``, or None."""
        lbn, off = divmod(lpn, self.ppb)
        log = self.logs.get(lbn)
        if log is not None and off in log.page_of_offset:
            return log.block * self.ppb + log.page_of_offset[off]
        pbn = int(self.block_map[lbn])
        if pbn >= 0:
            ppn = pbn * self.ppb + off
            if self.service.array.is_valid(ppn):
                return ppn
        return None

    # ------------------------------------------------------------------
    # merges
    # ------------------------------------------------------------------
    def _merge(self, lbn: int, now: float) -> None:
        """Fold a logical block's log into a fresh data block."""
        attr = self.service.attr
        if attr is not None:
            # a merge is reclamation, not request service: background
            # for latency attribution like generic GC
            attr.suspend()
            try:
                self._merge_inner(lbn, now)
            finally:
                attr.resume()
        else:
            self._merge_inner(lbn, now)

    def _merge_inner(self, lbn: int, now: float) -> None:
        log = self.logs.pop(lbn)
        old_pbn = int(self.block_map[lbn])
        arr = self.service.array

        # switch merge: the log IS the new data block
        if (
            log.sequential
            and log.write_ptr == self.ppb
            and len(log.page_of_offset) == self.ppb
        ):
            self.block_map[lbn] = log.block
            if old_pbn >= 0:
                self._invalidate_block(old_pbn)
                self._erase(old_pbn, now)
            self.switch_merges += 1
            return
        # full merge: copy newest pages in offset order
        new_pbn = self._alloc_block()
        kind = self._kind(OpKind.GC)
        for off in range(self.ppb):
            src = None
            if off in log.page_of_offset:
                src = log.block * self.ppb + log.page_of_offset[off]
            elif old_pbn >= 0:
                cand = old_pbn * self.ppb + off
                if arr.is_valid(cand):
                    src = cand
            if src is None:
                # hole: nothing ever written at this offset — but NAND
                # programs sequentially, so pad with an empty page only
                # when later offsets still hold data
                if any(
                    o > off
                    for o in log.page_of_offset
                ) or (
                    old_pbn >= 0
                    and any(
                        arr.is_valid(old_pbn * self.ppb + o)
                        for o in range(off + 1, self.ppb)
                    )
                ):
                    pad = (KIND_DATA, lbn * self.ppb + off, 0, 0)
                    self.service.program_page(
                        new_pbn * self.ppb + off, pad, now, kind,
                        timed=self.timed,
                    )
                    self.service.invalidate(new_pbn * self.ppb + off)
                continue
            self.service.read_page(src, now, kind, timed=self.timed)
            self.service.program_page(
                new_pbn * self.ppb + off, arr.record(src), now, kind,
                timed=self.timed, payload=arr.payloads.get(src),
            )
            arr.invalidate(src)
        self.full_merges += 1
        self._invalidate_block(old_pbn)
        self._invalidate_block(log.block)
        if old_pbn >= 0:
            self._erase(old_pbn, now)
        self._erase(log.block, now)
        self.block_map[lbn] = new_pbn

    def _invalidate_block(self, block: int) -> None:
        if block < 0:
            return
        arr = self.service.array
        for ppn in arr.valid_ppns(block).tolist():
            arr.invalidate(ppn)

    def _log_for(self, lbn: int, now: float) -> _LogBlock:
        log = self.logs.get(lbn)
        if log is not None:
            if log.write_ptr < self.ppb:
                self.logs.move_to_end(lbn)
                return log
            self._merge(lbn, now)  # full log: fold it first
        while len(self.logs) >= self.max_logs:
            victim = next(iter(self.logs))  # least recently used
            self._merge(victim, now)
        log = _LogBlock(self._alloc_block())
        self.logs[lbn] = log
        return log

    # ------------------------------------------------------------------
    # host API
    # ------------------------------------------------------------------
    def write(
        self, offset: int, size: int, now: float, stamps: Optional[dict] = None
    ) -> float:
        """Append every touched page's newest image to its log block."""
        finish = now
        for lpn, rel_lo, count in split_extent(offset, size, self.spp):
            t = self._write_page(lpn, rel_lo, rel_lo + count, now, stamps)
            finish = max(finish, t)
        return finish

    def _write_page(
        self, lpn: int, rel_lo: int, rel_hi: int, now: float, stamps
    ) -> float:
        self.counters.count_dram()
        lbn, off = divmod(lpn, self.ppb)
        new_mask = mask_range(rel_lo, rel_hi)
        old_mask = self._pmt_mask[lpn]
        retained = old_mask & ~new_mask
        finish = now
        payload: Optional[dict] = {} if self.track_payload else None
        # resolve the log FIRST: acquiring it may trigger a merge, which
        # relocates this LPN's newest copy — look it up afterwards
        log = self._log_for(lbn, now)
        old_ppn = self._ppn_of(lpn)
        if retained and old_ppn is not None:
            attr = self.service.attr
            if attr is not None:
                attr.read_label = "update_read"
            finish = self.service.read_page(
                old_ppn, now, self._kind(OpKind.DATA), timed=self.timed
            )
            if attr is not None:
                attr.read_label = None
            if not self.aging:
                self.counters.update_reads += 1
            if payload is not None:
                old_payload = self.service.array.payloads.get(old_ppn)
                if old_payload:
                    base = lpn * self.spp
                    for bit in iter_bits(retained):
                        sec = base + bit
                        if sec in old_payload:
                            payload[sec] = old_payload[sec]
        if payload is not None and stamps:
            base = lpn * self.spp
            for bit in iter_bits(new_mask):
                sec = base + bit
                if sec in stamps:
                    payload[sec] = stamps[sec]

        page_idx = log.write_ptr
        ppn = log.block * self.ppb + page_idx
        t = self.service.program_page(
            ppn, (KIND_DATA, lpn, old_mask | new_mask, 0), finish,
            self._kind(OpKind.DATA), timed=self.timed, payload=payload,
        )
        finish = max(finish, t)
        # supersede the previous copy
        prev = log.page_of_offset.get(off)
        if prev is not None:
            self.service.invalidate(log.block * self.ppb + prev)
        elif old_ppn is not None:
            self.service.invalidate(old_ppn)
        if log.sequential and page_idx != off:
            log.sequential = False
        log.page_of_offset[off] = page_idx
        log.write_ptr += 1
        self._pmt_mask[lpn] = old_mask | new_mask
        return finish

    # ------------------------------------------------------------------
    def read(
        self, offset: int, size: int, now: float
    ) -> tuple[float, Optional[dict]]:
        """Read each page's newest copy (log first, then data block)."""
        finish = now
        found: Optional[dict] = {} if self.track_payload else None
        for lpn, rel_lo, count in split_extent(offset, size, self.spp):
            self.counters.count_dram()
            present = self._pmt_mask[lpn] & mask_range(
                rel_lo, rel_lo + count
            )
            if not present:
                continue
            ppn = self._ppn_of(lpn)
            if ppn is None:
                continue
            t = self.service.read_page(
                ppn, now, self._kind(OpKind.DATA), timed=self.timed
            )
            finish = max(finish, t)
            if found is not None:
                base = lpn * self.spp
                self._read_stamps_from(
                    ppn, [base + bit for bit in iter_bits(present)], found
                )
        return finish, found

    # ------------------------------------------------------------------
    def trim(self, offset: int, size: int, now: float) -> float:
        """Drop data; whole-block reclamation happens lazily at merges."""
        for lpn, rel_lo, count in split_extent(offset, size, self.spp):
            mask = mask_range(rel_lo, rel_lo + count)
            remaining = self._pmt_mask[lpn] & ~mask
            self._pmt_mask[lpn] = remaining
            if remaining == 0:
                ppn = self._ppn_of(lpn)
                if ppn is not None:
                    self.service.invalidate(ppn)
                    lbn, off = divmod(lpn, self.ppb)
                    log = self.logs.get(lbn)
                    if log is not None:
                        log.page_of_offset.pop(off, None)
                        log.sequential = False
        self.counters.count_dram()
        return now + self.cfg.timing.cache_access_ms

    # ------------------------------------------------------------------
    def mapping_table_bytes(self) -> int:
        """Block-level table plus per-log page maps — BAST's selling
        point was exactly this tiny footprint."""
        mapped = int((self.block_map >= 0).sum())
        log_entries = sum(len(l.page_of_offset) + 1 for l in self.logs.values())
        return mapped * self.BLOCK_ENTRY_BYTES + log_entries * 4

    def rebuild_from_flash(self) -> int:
        """Not supported: BAST's OOB records do not distinguish data
        blocks from log blocks in this model (a real device tags them);
        use the page-mapping schemes for recovery studies."""
        raise MappingError("rebuild_from_flash is not supported for bast")

    def stats(self) -> dict:
        """Merge and log-pool statistics for the report."""
        s = super().stats()
        s.update(
            bast_full_merges=self.full_merges,
            bast_switch_merges=self.switch_merges,
            bast_live_logs=len(self.logs),
        )
        return s

    def check_invariants(self) -> None:
        """BAST-specific consistency (the base PMT is unused here)."""
        for lbn, log in self.logs.items():
            for off, page_idx in log.page_of_offset.items():
                ppn = log.block * self.ppb + page_idx
                if not self.service.array.is_valid(ppn):
                    raise MappingError(
                        f"log of lbn {lbn}: offset {off} -> invalid PPN {ppn}"
                    )
                meta = self.service.array.meta(ppn)
                if meta.lpn != lbn * self.ppb + off:
                    raise MappingError(f"log page {ppn} holds foreign LPN")
