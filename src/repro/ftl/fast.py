"""FAST: fully-associative hybrid log-block FTL (library extension).

The successor to BAST in the hybrid-mapping lineage: instead of one
log block *per* logical block (which thrashes when many blocks see a
few updates each), FAST shares a small pool of log blocks among **all**
logical blocks — any update appends to the current shared log block,
and a page-level map tracks the newest copies inside the log pool.

The price moves to reclamation: retiring the oldest log block forces a
*full merge of every logical block with a page in it* (the infamous
FAST merge storm).  Sequentially-filled logical blocks still get the
cheap switch merge via a dedicated sequential-log path (modelled here
as: a merge whose victim block holds a complete 0..N-1 run promotes it
directly — inherited from the shared merge machinery).

Like BAST, this scheme is not part of the paper's comparison set; it
exists to situate Across-FTL historically and passes the same
sector-version oracle.
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


class FASTFTL(BaseFTL):
    """Fully-associative log-block FTL with block-level data mapping."""

    name = "fast"
    uses_generic_gc = False
    BLOCK_ENTRY_BYTES = 4
    LOG_ENTRY_BYTES = 8

    def __init__(self, service, *, log_blocks: int = 8, **kw):
        super().__init__(service, **kw)
        if log_blocks < 2:
            raise ConfigError("need at least 2 log blocks")
        self.ppb = self.geom.pages_per_block
        self.num_lbns = -(-self.logical_pages // self.ppb)
        #: logical block -> physical data block (-1 = none yet)
        self.block_map = np.full(self.num_lbns, -1, dtype=np.int64)
        #: lpn -> ppn of the newest copy living in the log pool
        self.log_map: dict[int, int] = {}
        #: retirement-ordered log blocks: block -> set of lbns inside
        self.log_blocks: OrderedDict[int, set[int]] = OrderedDict()
        self.max_logs = log_blocks
        self._open_log: int | None = None
        self._plane_cursor = 0
        self.full_merges = 0
        self.log_retirements = 0

    # ------------------------------------------------------------------
    def _alloc_block(self) -> int:
        arr = self.service.array
        n = self.geom.num_planes
        for i in range(n):
            plane = (self._plane_cursor + i) % n
            if arr.free_block_count(plane) > 0:
                self._plane_cursor = (plane + 1) % n
                return arr.pop_free_block(plane)
        raise OutOfSpaceError("no free block for FAST")

    def _ppn_of(self, lpn: int) -> int | None:
        """Newest copy: log pool first, then the data block slot."""
        ppn = self.log_map.get(lpn)
        if ppn is not None:
            return ppn
        lbn, off = divmod(lpn, self.ppb)
        pbn = int(self.block_map[lbn])
        if pbn >= 0:
            cand = pbn * self.ppb + off
            if self.service.array.is_valid(cand):
                return cand
        return None

    # ------------------------------------------------------------------
    # merges
    # ------------------------------------------------------------------
    def _merge_lbn(self, lbn: int, now: float) -> None:
        """Rebuild one logical block's data block from its newest pages
        (wherever they live), then drop its log-pool entries."""
        arr = self.service.array
        old_pbn = int(self.block_map[lbn])
        kind = self._kind(OpKind.GC)
        base_lpn = lbn * self.ppb
        srcs = [self._ppn_of(base_lpn + off) for off in range(self.ppb)]
        live = [off for off, s in enumerate(srcs) if s is not None]
        if not live:
            self.block_map[lbn] = -1
        else:
            new_pbn = self._alloc_block()
            for off in range(live[-1] + 1):
                src = srcs[off]
                dst = new_pbn * self.ppb + off
                if src is None:
                    # pad the hole so programming stays sequential
                    pad = (KIND_DATA, base_lpn + off, 0, 0)
                    self.service.program_page(
                        dst, pad, now, kind, timed=self.timed
                    )
                    self.service.invalidate(dst)
                    continue
                self.service.read_page(src, now, kind, timed=self.timed)
                self.service.program_page(
                    dst, arr.record(src), now, kind,
                    timed=self.timed, payload=arr.payloads.get(src),
                )
                arr.invalidate(src)
                self.log_map.pop(base_lpn + off, None)
            self.block_map[lbn] = new_pbn
        if old_pbn >= 0:
            for ppn in arr.valid_ppns(old_pbn).tolist():
                arr.invalidate(ppn)
            self.service.erase_block(old_pbn, now, aging=self.aging)
        self.full_merges += 1

    def _retire_oldest_log(self, now: float) -> None:
        """The FAST merge storm: merging every logical block that has a
        page in the oldest log block, then erasing it."""
        attr = self.service.attr
        if attr is not None:
            # the merge storm is reclamation, not request service:
            # background for latency attribution like generic GC
            attr.suspend()
            try:
                self._retire_oldest_log_inner(now)
            finally:
                attr.resume()
        else:
            self._retire_oldest_log_inner(now)

    def _retire_oldest_log_inner(self, now: float) -> None:
        block, lbns = self.log_blocks.popitem(last=False)
        if self._open_log == block:
            self._open_log = None
        for lbn in sorted(lbns):
            # merge only lbns whose newest copies still live in this
            # block (later writes may have superseded them elsewhere)
            if any(
                self.log_map.get(lbn * self.ppb + off, -1) // self.ppb == block
                for off in range(self.ppb)
            ):
                self._merge_lbn(lbn, now)
        arr = self.service.array
        for ppn in arr.valid_ppns(block).tolist():
            # anything still valid here belongs to log_map entries of
            # merged-away lbns; merging removed them, so this only
            # fires for stale safety — invalidate defensively
            meta = arr.meta(ppn)
            self.log_map.pop(meta.lpn, None)
            arr.invalidate(ppn)
        self.service.erase_block(block, now, aging=self.aging)
        self.log_retirements += 1

    def _log_slot(self, now: float) -> int:
        """Next free page in the shared log pool (opening/retiring log
        blocks as needed); returns the PPN to program."""
        arr = self.service.array
        if self._open_log is not None and arr.block_full(self._open_log):
            self._open_log = None
        if self._open_log is None:
            while len(self.log_blocks) >= self.max_logs:
                self._retire_oldest_log(now)
            self._open_log = self._alloc_block()
            self.log_blocks[self._open_log] = set()
        return self._open_log * self.ppb + int(arr.write_ptr[self._open_log])

    # ------------------------------------------------------------------
    # host API
    # ------------------------------------------------------------------
    def write(
        self, offset: int, size: int, now: float, stamps: Optional[dict] = None
    ) -> float:
        """Append every touched page's newest image to the shared log."""
        finish = now
        for lpn, rel_lo, count in split_extent(offset, size, self.spp):
            t = self._write_page(lpn, rel_lo, rel_lo + count, now, stamps)
            finish = max(finish, t)
        return finish

    def _write_page(
        self, lpn: int, rel_lo: int, rel_hi: int, now: float, stamps
    ) -> float:
        self.counters.count_dram()
        new_mask = mask_range(rel_lo, rel_hi)
        old_mask = self._pmt_mask[lpn]
        retained = old_mask & ~new_mask
        finish = now
        payload: Optional[dict] = {} if self.track_payload else None
        ppn = self._log_slot(now)  # may retire logs & relocate old copies
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

        t = self.service.program_page(
            ppn, (KIND_DATA, lpn, old_mask | new_mask, 0), finish,
            self._kind(OpKind.DATA), timed=self.timed, payload=payload,
        )
        finish = max(finish, t)
        if old_ppn is not None:
            self.service.invalidate(old_ppn)
        self.log_map[lpn] = ppn
        self.log_blocks[self._open_log].add(lpn // self.ppb)
        self._pmt_mask[lpn] = old_mask | new_mask
        return finish

    # ------------------------------------------------------------------
    def read(
        self, offset: int, size: int, now: float
    ) -> tuple[float, Optional[dict]]:
        """Read each page's newest copy (log pool first)."""
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
        """Drop data; log/data space reclaims lazily at merges."""
        for lpn, rel_lo, count in split_extent(offset, size, self.spp):
            mask = mask_range(rel_lo, rel_lo + count)
            remaining = self._pmt_mask[lpn] & ~mask
            self._pmt_mask[lpn] = remaining
            if remaining == 0:
                ppn = self._ppn_of(lpn)
                if ppn is not None:
                    self.service.invalidate(ppn)
                    self.log_map.pop(lpn, None)
        self.counters.count_dram()
        return now + self.cfg.timing.cache_access_ms

    # ------------------------------------------------------------------
    def mapping_table_bytes(self) -> int:
        """Block table plus the page-level map of the (small) log pool."""
        mapped = int((self.block_map >= 0).sum())
        return (
            mapped * self.BLOCK_ENTRY_BYTES
            + len(self.log_map) * self.LOG_ENTRY_BYTES
        )

    def rebuild_from_flash(self) -> int:
        """Not supported: the OOB model does not tag log vs data blocks."""
        raise MappingError("rebuild_from_flash is not supported for fast")

    def stats(self) -> dict:
        """Merge-storm statistics for the report."""
        s = super().stats()
        s.update(
            fast_full_merges=self.full_merges,
            fast_log_retirements=self.log_retirements,
            fast_log_entries=len(self.log_map),
        )
        return s

    def check_invariants(self) -> None:
        """FAST-specific consistency (the base PMT is unused here)."""
        for lpn, ppn in self.log_map.items():
            if not self.service.array.is_valid(ppn):
                raise MappingError(f"log map: LPN {lpn} -> invalid PPN {ppn}")
            if self.service.array.meta(ppn).lpn != lpn:
                raise MappingError(f"log page {ppn} holds foreign LPN")
            if ppn // self.ppb not in self.log_blocks:
                raise MappingError(
                    f"LPN {lpn} maps into a non-log block {ppn // self.ppb}"
                )