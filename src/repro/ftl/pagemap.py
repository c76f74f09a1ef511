"""Baseline dynamic page-level mapping FTL (the paper's "FTL").

Every logical page maps to one physical page.  A write that covers a
page only partially triggers read-modify-write: the old page is read,
merged with the new sectors, and the union is programmed to a fresh
page (the old one is invalidated).  An *across-page* request therefore
costs two flash programs — and up to two RMW reads — even though it
carries no more than one page of data.  That is precisely the overhead
Figure 4 measures and Across-FTL removes.

The full mapping table fits controller DRAM (paper §4.1), so this
scheme produces no Map flash traffic in Fig. 10.
"""

from __future__ import annotations

from typing import Optional

from ..metrics.counters import OpKind
from ..units import split_extent
from .base import BaseFTL, iter_bits


class PageMapFTL(BaseFTL):
    """Dynamic page-level mapping with read-modify-write."""

    name = "ftl"

    def __init__(self, service, *, rmw_enabled: bool = True, **kw):
        super().__init__(service, **kw)
        #: ablation knob (bench_ablation_rmw): when False, partial-page
        #: writes do not read the old page first — this breaks data
        #: retention on purpose to isolate RMW's cost.
        self.rmw_enabled = rmw_enabled
        #: PMT lookups go through a cache that, at default settings,
        #: wholly fits DRAM — modelling the paper's in-DRAM baseline.
        entries_per_page = max(1, self.cfg.page_size_bytes // self.PMT_ENTRY_BYTES)
        self._pmt_cache = self._make_cache(
            table_id=0,
            entries_per_page=entries_per_page,
            capacity_entries=self.dram_entries,
        )

    # ------------------------------------------------------------------
    def write(
        self, offset: int, size: int, now: float, version: Optional[int] = None
    ) -> float:
        """Service a write piece-by-piece with RMW on partial pages."""
        finish = now
        timed = self.timed
        access = self._pmt_cache.access
        write_page = self._write_data_page
        rmw = self.rmw_enabled
        for lpn, rel_lo, count in split_extent(offset, size, self.spp):
            t = access(self, lpn, now, True, timed)
            if not rmw:
                # ablation: pretend the page held nothing else
                self._pmt_mask[lpn] = 0
            t = write_page(
                lpn, rel_lo, rel_lo + count, t if t > now else now, version
            )
            if t > finish:
                finish = t
        return finish

    # ------------------------------------------------------------------
    def read(
        self, offset: int, size: int, now: float
    ) -> tuple[float, Optional[dict]]:
        """Service a read: one flash read per written page touched."""
        finish = now
        timed = self.timed
        kind = OpKind.DATA if timed else OpKind.AGING
        access = self._pmt_cache.access
        read_page = self.service.read_page
        found: Optional[dict] = {} if self.track_payload else None
        for lpn, rel_lo, count in split_extent(offset, size, self.spp):
            t = access(self, lpn, now, False, timed)
            if t > finish:
                finish = t
            wanted = ((1 << count) - 1) << rel_lo
            present = self._pmt_mask[lpn] & wanted
            if not present:
                continue  # nothing of this piece was ever written
            if self.service.obs is not None:
                self._emit_decision("page_read", lpn, now)
            ppn = self._pmt[lpn]
            t = read_page(ppn, now, kind, timed=timed)
            if t > finish:
                finish = t
            if found is not None:
                base = lpn * self.spp
                sectors = [base + bit for bit in iter_bits(present)]
                self._read_stamps_from(ppn, sectors, found)
        return finish, found

    # ------------------------------------------------------------------
    def mapping_table_bytes(self) -> int:
        """Fig. 12a model: entries are demand-allocated per mapped LPN
        (all three schemes use the same convention, so the paper's
        1.4x/2.4x ratios are comparable)."""
        return int((self.pmt >= 0).sum()) * self.PMT_ENTRY_BYTES

    def flush_metadata(self, now: float) -> float:
        """Write back dirty PMT translation pages (end-of-run barrier)."""
        return self._pmt_cache.flush(self, now, timed=self.timed)

    def stats(self) -> dict:
        """PMT-cache statistics for the report."""
        s = super().stats()
        s.update(
            pmt_cache_hits=self._pmt_cache.hits,
            pmt_cache_misses=self._pmt_cache.misses,
        )
        return s
