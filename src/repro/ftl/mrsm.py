"""MRSM: multiregional sub-page space management (Chen et al., TCAD'20).

The comparator scheme of the paper's evaluation.  Every page is split
into ``regions_per_page`` fixed regions (default 4, i.e. 2 KiB regions
on 8 KiB pages); the mapping is kept at region granularity, and a write
packs all its regions into as few flash pages as possible — so an
unaligned or across-page write usually costs a *single* program and no
read-modify-write (region-aligned updates overwrite "directly").

The price is exactly what the paper observes (§4.2):

* the table has up to ``regions_per_page`` times more entries than a
  page-level table, far exceeding the DRAM budget, so lookups stream
  translation pages between DRAM and flash (the large *Map* components
  of Fig. 10 and the worst erase counts of Fig. 11);
* entries are organised in a tree, so each lookup costs O(log n) DRAM
  touches (the ~32x DRAM accesses of Fig. 12b).

Mapping-table *size* (Fig. 12a) is adaptive: a logical page whose R
regions are packed, in order, in a single flash page collapses to one
entry ("adaptively adjusting mapping granularity"); fragmented pages
pay one entry per region.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Optional

import numpy as np

from ..errors import ConfigError, MappingError
from ..metrics.counters import OpKind
from .allocator import STREAM_GC
from .base import BaseFTL, iter_bits, mask_range
from .meta import MapPageMeta, RegionPageMeta

#: a region entry records offset, size, PPN and slot ("a complicated
#: mapping data structure to record the offset and size information",
#: paper §2.2) — twice the plain page entry
REGION_ENTRY_BYTES = 16
PAGE_ENTRY_BYTES = 8


class MRSMFTL(BaseFTL):
    """Sub-page (regional) mapping FTL."""

    name = "mrsm"

    def __init__(self, service, *, regions_per_page: int = 4, **kw):
        super().__init__(service, **kw)
        if regions_per_page <= 0 or self.spp % regions_per_page != 0:
            raise ConfigError(
                f"regions_per_page={regions_per_page} must divide "
                f"sectors_per_page={self.spp}"
            )
        self.R = regions_per_page
        self.region_sectors = self.spp // regions_per_page
        #: region key (= lpn * R + r) -> (ppn, slot index within page)
        self.region_map: dict[int, tuple[int, int]] = {}
        #: region key -> bitmask of written sectors within the region
        self.region_mask: dict[int, int] = {}
        #: LPNs that have ever been written at sub-page granularity;
        #: once the tree splits a page's entry it stays split (a later
        #: full-page overwrite does not re-coarsen it), which is why
        #: MRSM's table converges to ~2.4x the baseline's (Fig. 12a)
        self._ever_fragmented: set[int] = set()
        # memoised _tree_touches state: current depth and the interval
        # of table sizes it stays valid for (empty → recompute on first use)
        self._tt_val = 1
        self._tt_lo = 0
        self._tt_hi = -1
        entries_per_page = max(1, self.cfg.page_size_bytes // REGION_ENTRY_BYTES)
        self._cache = self._make_cache(
            table_id=1,
            entries_per_page=entries_per_page,
            capacity_entries=self.dram_entries,
            touches_fn=self._tree_touches,
        )

    def _tree_touches(self) -> int:
        """DRAM touches per lookup: the depth of the (4-ary) mapping
        tree MRSM keeps its region entries in (Fig. 12b: ~32x the flat
        tables' single touch, once multiplied by regions per request).

        The depth only changes when the entry count crosses a power of
        4, so the log is memoised over the interval of table sizes that
        share the current depth (this runs per region per request).
        """
        n = len(self.region_map)
        if n > self._tt_hi or n < self._tt_lo:
            v = max(1, math.ceil(math.log2(n + 2) / 2))
            self._tt_val = v
            # depth v covers 4**(v-1) < n + 2 <= 4**v
            self._tt_lo = (1 << (2 * v - 2)) - 1
            self._tt_hi = (1 << (2 * v)) - 2
        return self._tt_val

    # ------------------------------------------------------------------
    # region geometry
    # ------------------------------------------------------------------
    def _split_regions(self, offset: int, size: int) -> list[tuple[int, int, int]]:
        """(region_key, rel_lo, rel_hi) pieces of a sector extent, with
        rel_* relative to the region start.  Returns a list (not a
        generator): callers iterate it at most twice and resuming a
        generator per region is pure overhead on the write path."""
        rs = self.region_sectors
        sec = offset
        end = offset + size
        out = []
        while sec < end:
            key = sec // rs
            region_start = key * rs
            hi = region_start + rs
            if hi > end:
                hi = end
            out.append((key, sec - region_start, hi - region_start))
            sec = hi
        return out

    def _region_base_sector(self, key: int) -> int:
        return key * self.region_sectors

    # ------------------------------------------------------------------
    # slot lifecycle
    # ------------------------------------------------------------------
    def _kill_slot(self, key: int) -> None:
        """Mark a region's old slot dead; invalidate its page when the
        last live slot dies."""
        loc = self.region_map.get(key)
        if loc is None:
            return
        ppn, slot = loc
        meta = self.service.array.meta(ppn)
        skey, live = meta.slots[slot]
        if skey != key or not live:
            raise MappingError(f"slot bookkeeping broken for region {key}")
        meta.slots[slot] = (key, False)
        # any() short-circuits on the first live slot, unlike live_count()
        if not any(live for _, live in meta.slots):
            self.service.invalidate(ppn)

    # ------------------------------------------------------------------
    def write(
        self, offset: int, size: int, now: float, stamps: Optional[dict] = None
    ) -> float:
        """Service a write: split into regions, region-level RMW where a
        region is partially covered, pack into R-slot pages."""
        pieces = self._split_regions(offset, size)
        finish = now
        timed = self.timed
        kind = OpKind.DATA if timed else OpKind.AGING
        region_map = self.region_map
        region_mask = self.region_mask
        mask_get = region_mask.get
        access = self._cache.access
        spp = self.spp
        # any lpn not covered by whole aligned pages becomes (and stays)
        # region-mapped in the tree — persistent table state, so warm-up
        # (aging) writes fragment it too, like the paper's warm-up trace
        end = offset + size
        first_lpn = offset // spp
        last_lpn = (end - 1) // spp
        for lpn in range(first_lpn, last_lpn + 1):
            page_lo = lpn * spp
            if offset > page_lo or end < page_lo + spp:
                self._ever_fragmented.add(lpn)
        # phase 1: mapping lookups + region-level read-modify-write
        rmw_ppns: set[int] = set()
        for key, rel_lo, rel_hi in pieces:
            t = access(key, now, dirty=True, timed=timed)
            if t > finish:
                finish = t
            old_mask = mask_get(key, 0)
            if old_mask & ~(((1 << (rel_hi - rel_lo)) - 1) << rel_lo):
                rmw_ppns.add(region_map[key][0])
        attr = self.service.attr
        if attr is not None and rmw_ppns:
            attr.read_label = "update_read"
        for ppn in rmw_ppns:
            t = self.service.read_page(ppn, now, kind, timed=timed)
            if timed:
                self.counters.update_reads += 1
            if t > finish:
                finish = t
        if attr is not None:
            attr.read_label = None

        # phase 2: pack regions into pages, R slots per page
        start = finish
        R = self.R
        rs = self.region_sectors
        track = self.track_payload
        for i in range(0, len(pieces), R):
            group = pieces[i : i + R]
            payload: Optional[dict] = None
            slots = []
            masks = []
            for key, rel_lo, rel_hi in group:
                old_mask = mask_get(key, 0)
                new_mask = ((1 << (rel_hi - rel_lo)) - 1) << rel_lo
                if track:
                    if payload is None:
                        payload = {}
                    base = key * rs
                    # retained old sectors of this region
                    retained = old_mask & ~new_mask
                    if retained:
                        old_ppn = region_map[key][0]
                        old_meta = self.service.array.meta(old_ppn)
                        if old_meta.payloads:
                            for bit in iter_bits(retained):
                                sec = base + bit
                                if sec in old_meta.payloads:
                                    payload[sec] = old_meta.payloads[sec]
                    if stamps:
                        for bit in iter_bits(new_mask):
                            sec = base + bit
                            if sec in stamps:
                                payload[sec] = stamps[sec]
                slots.append((key, True))
                masks.append(old_mask | new_mask)
            meta = RegionPageMeta(slots, masks, payload)
            for key, _lo, _hi in group:
                self._kill_slot(key)
            ppn, t = self._program_page(meta, start, OpKind.DATA)
            if t > finish:
                finish = t
            for slot_idx, (key, _rel_lo, _rel_hi) in enumerate(group):
                region_map[key] = (ppn, slot_idx)
                region_mask[key] = masks[slot_idx]
        return finish

    # ------------------------------------------------------------------
    def write_run(self, offsets, sizes, target: int) -> int:
        """Fused aging-write kernel: region split, tree-depth-memoised
        cache touches, region RMW reads, slot kills, R-slot packing and
        GC checks inlined with the untimed / payload-free / unobserved
        branches resolved.

        Bit-identical to the generic scalar loop over :meth:`write`
        (enforced by ``tests/test_write_run.py``); delegates to
        :meth:`BaseFTL.write_run` whenever a fast-path precondition
        fails.
        """
        if self._write_run_fallback():
            return super().write_run(offsets, sizes, target)
        from ..errors import FlashProtocolError
        from ..flash.array import PAGE_FREE, PAGE_INVALID, PAGE_VALID

        c = self.counters
        writes = c.writes
        reads = c.reads
        aging = OpKind.AGING
        spp = self.spp
        R = self.R
        rs = self.region_sectors
        region_map = self.region_map
        map_get = region_map.get
        region_mask = self.region_mask
        mask_get = region_mask.get
        fragmented = self._ever_fragmented
        cache = self._cache
        epp = cache.entries_per_page
        cached = cache._cached
        move_to_end = cached.move_to_end
        popitem = cached.popitem
        access = cache.access
        on_flash = cache._on_flash
        capacity_pages = cache.capacity_pages
        unlimited = cache.unlimited
        # flash locations of table 1's translation pages (the cache's
        # read/program callbacks consult the same dict)
        map_table = self._map_ppn.setdefault(1, {})
        tree_touches = self._tree_touches
        tt_val, tt_lo, tt_hi = self._tt_val, self._tt_lo, self._tt_hi
        service = self.service
        arr = service.array
        state = arr._state
        wp = arr._write_ptr
        valid_count = arr._valid_count
        last_mod = arr._last_mod
        meta_of = arr._meta
        allocator = self.allocator
        allocate = allocator.allocate
        order = allocator._plane_order
        active = allocator._active[0]
        n_planes = len(order)
        ppb = allocator._ppb
        gc = self.gc
        maybe_collect = gc.maybe_collect
        retire_pending = gc._retire_pending
        free_blocks = gc._free_blocks
        ok_free = gc._ok_free_count
        pages_per_plane = self.geom.pages_per_plane
        new_meta = object.__new__

        full_mask = (1 << rs) - 1
        consumed = 0
        for offset, size in zip(offsets, sizes):
            end = offset + size
            # --- region split (inlined _split_regions): only the first
            # and last pieces need offset arithmetic, interior pieces
            # are whole regions
            key = offset // rs
            last_key = (end - 1) // rs
            base = key * rs
            if key == last_key:
                pieces = [(key, offset - base, end - base)]
            else:
                pieces = [(key, offset - base, rs)]
                append_piece = pieces.append
                for kk in range(key + 1, last_key):
                    append_piece((kk, 0, rs))
                append_piece((last_key, 0, end - last_key * rs))
            # --- persistent fragmentation marking: only the boundary
            # pages can be partially covered, interior pages never are
            first_lpn = offset // spp
            last_lpn = (end - 1) // spp
            if offset - first_lpn * spp:
                fragmented.add(first_lpn)
            if (last_lpn + 1) * spp - end:
                fragmented.add(last_lpn)
            # --- phase 1: cache touches + region-level RMW.  The merged
            # masks are stashed per piece: one request's region keys are
            # distinct and phase 2 is their only writer, so the values
            # phase 2 would recompute are exactly these.
            rmw_ppns: set[int] = set()
            merged = []
            tvpn = pieces[0][0] // epp
            if tvpn == pieces[-1][0] // epp:
                # all pieces touch one translation page (~99.7% of
                # aging writes): the n identical LRU touches collapse
                # to one — same final recency order, dirty flag and
                # hit/miss/DRAM totals.  tt_val is constant here
                # because phase 1 never grows region_map.
                n = len(region_map)
                if n > tt_hi or n < tt_lo:
                    tree_touches()
                    tt_val = self._tt_val
                    tt_lo = self._tt_lo
                    tt_hi = self._tt_hi
                c.dram_accesses += tt_val * len(pieces)
                if unlimited:
                    cache.hits += len(pieces)
                elif tvpn in cached:
                    cache.hits += len(pieces)
                    move_to_end(tvpn)
                    cached[tvpn] = True
                else:
                    # inlined access() miss (dirty, untimed): fetch the
                    # flash-resident copy if any, install hot, spill the
                    # LRU overflow — the request's remaining touches
                    # re-hit the fresh entry
                    cache.misses += 1
                    cache.hits += len(pieces) - 1
                    if tvpn in on_flash:
                        # untimed map fetch (read_map_page callback)
                        fppn = map_table[tvpn]
                        if state[fppn] != PAGE_VALID:
                            raise FlashProtocolError(
                                f"read of non-valid PPN {fppn}"
                            )
                        arr.total_page_reads += 1
                        reads[aging] += 1
                    cached[tvpn] = True
                    while len(cached) > capacity_pages:
                        etvpn, was_dirty = popitem(last=False)
                        cache.evictions += 1
                        if not was_dirty:
                            continue
                        # untimed translation write-back (the
                        # program_map_page callback): invalidate the
                        # stale flash copy, program the new one, GC-
                        # check the plane written
                        old = map_table.get(etvpn)
                        if old is not None:
                            if state[old] != PAGE_VALID:
                                raise FlashProtocolError(
                                    f"invalidate of non-valid PPN {old}"
                                )
                            state[old] = PAGE_INVALID
                            ob = old // ppb
                            valid_count[ob] -= 1
                            del meta_of[old]
                            seq = arr.mod_seq + 1
                            arr.mod_seq = seq
                            last_mod[ob] = seq
                            del map_table[etvpn]
                        cur = allocator._cursor
                        plane = order[cur]
                        block = active[plane]
                        mppn = -1
                        if block is not None:
                            p = wp[block]
                            if p < ppb:
                                mppn = block * ppb + p
                                allocator._cursor = (
                                    cur + 1 if cur + 1 < n_planes else 0
                                )
                        if mppn < 0:
                            mppn = allocate(0)
                        if state[mppn] != PAGE_FREE:
                            raise FlashProtocolError(
                                f"program of non-free PPN {mppn}"
                            )
                        block = mppn // ppb
                        page = mppn - block * ppb
                        if page != wp[block]:
                            raise FlashProtocolError(
                                f"out-of-order program: block {block} "
                                f"expects page {wp[block]}, got {page}"
                            )
                        state[mppn] = PAGE_VALID
                        wp[block] = page + 1
                        valid_count[block] += 1
                        arr.total_programs += 1
                        meta_of[mppn] = MapPageMeta(1, etvpn)
                        seq = arr.mod_seq + 1
                        arr.mod_seq = seq
                        last_mod[block] = seq
                        writes[aging] += 1
                        plane = mppn // pages_per_plane
                        if retire_pending or len(free_blocks[plane]) < ok_free:
                            maybe_collect(plane, 0.0, timed=False)
                        map_table[etvpn] = mppn
                        on_flash.add(etvpn)
                append_merged = merged.append
                for key, rel_lo, rel_hi in pieces:
                    if rel_lo == 0 and rel_hi == rs:
                        # whole-region overwrite: the stored mask is a
                        # subset of full, so no RMW and merged == full
                        append_merged(full_mask)
                        continue
                    old_mask = mask_get(key, 0)
                    new_mask = ((1 << (rel_hi - rel_lo)) - 1) << rel_lo
                    if old_mask & ~new_mask:
                        rmw_ppns.add(region_map[key][0])
                    append_merged(old_mask | new_mask)
            else:
                for key, rel_lo, rel_hi in pieces:
                    tvpn = key // epp
                    if tvpn in cached:
                        n = len(region_map)
                        if n > tt_hi or n < tt_lo:
                            tree_touches()
                            tt_val = self._tt_val
                            tt_lo = self._tt_lo
                            tt_hi = self._tt_hi
                        c.dram_accesses += tt_val
                        cache.hits += 1
                        move_to_end(tvpn)
                        cached[tvpn] = True
                    else:
                        access(key, 0.0, dirty=True, timed=False)
                    if rel_lo == 0 and rel_hi == rs:
                        merged.append(full_mask)
                        continue
                    old_mask = mask_get(key, 0)
                    new_mask = ((1 << (rel_hi - rel_lo)) - 1) << rel_lo
                    if old_mask & ~new_mask:
                        rmw_ppns.add(region_map[key][0])
                    merged.append(old_mask | new_mask)
            for ppn in rmw_ppns:
                # untimed aging read of the partially-overwritten page
                if state[ppn] != PAGE_VALID:
                    raise FlashProtocolError(f"read of non-valid PPN {ppn}")
                arr.total_page_reads += 1
                reads[aging] += 1
            # --- phase 2: pack regions into pages, R slots per page
            for i in range(0, len(pieces), R):
                group = pieces[i : i + R]
                # plain loop, not a listcomp: no per-group extra frame
                slots = []
                for key, _lo, _hi in group:
                    slots.append((key, True))
                masks = merged[i : i + R]
                # __new__ + direct slot stores: same object as
                # RegionPageMeta(slots, masks, None) without the
                # constructor frame (one meta per programmed page)
                meta = new_meta(RegionPageMeta)
                meta.slots = slots
                meta.masks = masks
                meta.payloads = None
                # inlined _kill_slot; a group's keys were usually packed
                # together by an earlier write, so they share one region
                # page: cache its meta and count live slots down instead
                # of rescanning after every kill (same aliveness result)
                last_ppn0 = -1
                mslots = None
                live_left = 0
                for key, _lo, _hi in group:
                    loc = map_get(key)
                    if loc is None:
                        continue
                    ppn0, slot = loc
                    if ppn0 != last_ppn0:
                        mslots = meta_of[ppn0].slots
                        last_ppn0 = ppn0
                        live_left = 0
                        for _skey, lv in mslots:
                            if lv:
                                live_left += 1
                    skey, live = mslots[slot]
                    if skey != key or not live:
                        raise MappingError(
                            f"slot bookkeeping broken for region {key}"
                        )
                    mslots[slot] = (key, False)
                    live_left -= 1
                    if not live_left:
                        if state[ppn0] != PAGE_VALID:
                            raise FlashProtocolError(
                                f"invalidate of non-valid PPN {ppn0}"
                            )
                        state[ppn0] = PAGE_INVALID
                        old_block = ppn0 // ppb
                        valid_count[old_block] -= 1
                        del meta_of[ppn0]
                        seq = arr.mod_seq + 1
                        arr.mod_seq = seq
                        last_mod[old_block] = seq
                        last_ppn0 = -1  # page gone; never reuse its meta
                # allocate (round-robin fast path, exact fallback)
                cur = allocator._cursor
                plane = order[cur]
                block = active[plane]
                ppn = -1
                if block is not None:
                    p = wp[block]
                    if p < ppb:
                        ppn = block * ppb + p
                        allocator._cursor = cur + 1 if cur + 1 < n_planes else 0
                if ppn < 0:
                    ppn = allocate(0)
                # program (untimed, AGING kind)
                if state[ppn] != PAGE_FREE:
                    raise FlashProtocolError(f"program of non-free PPN {ppn}")
                block = ppn // ppb
                page = ppn - block * ppb
                if page != wp[block]:
                    raise FlashProtocolError(
                        f"out-of-order program: block {block} expects page "
                        f"{wp[block]}, got {page}"
                    )
                state[ppn] = PAGE_VALID
                wp[block] = page + 1
                valid_count[block] += 1
                arr.total_programs += 1
                meta_of[ppn] = meta
                seq = arr.mod_seq + 1
                arr.mod_seq = seq
                last_mod[block] = seq
                writes[aging] += 1
                # GC check on the written plane
                plane = ppn // pages_per_plane
                if retire_pending or len(free_blocks[plane]) < ok_free:
                    maybe_collect(plane, 0.0, timed=False)
                for slot_idx, (key, _rel_lo, _rel_hi) in enumerate(group):
                    region_map[key] = (ppn, slot_idx)
                    region_mask[key] = masks[slot_idx]
            consumed += 1
            if writes[aging] >= target:
                break
        return consumed

    # ------------------------------------------------------------------
    def read(
        self, offset: int, size: int, now: float
    ) -> tuple[float, Optional[dict]]:
        """Service a read: one flash read per distinct page holding a
        wanted live region."""
        finish = now
        timed = self.timed
        kind = OpKind.DATA if timed else OpKind.AGING
        access = self._cache.access
        mask_get = self.region_mask.get
        rs = self.region_sectors
        found: Optional[dict] = {} if self.track_payload else None
        ppn_sectors: dict[int, list[int]] = {}
        for key, rel_lo, rel_hi in self._split_regions(offset, size):
            t = access(key, now, dirty=False, timed=timed)
            if t > finish:
                finish = t
            present = mask_get(key, 0) & (
                ((1 << (rel_hi - rel_lo)) - 1) << rel_lo
            )
            if not present:
                continue
            ppn = self.region_map[key][0]
            base = key * rs
            ppn_sectors.setdefault(ppn, []).extend(
                base + bit for bit in iter_bits(present)
            )
        for ppn, sectors in ppn_sectors.items():
            t = self.service.read_page(ppn, now, kind, timed=timed)
            if t > finish:
                finish = t
            if found is not None:
                meta = self.service.array.meta(ppn)
                if meta.payloads:
                    for sec in sectors:
                        if sec in meta.payloads:
                            found[sec] = meta.payloads[sec]
        return finish, found

    # ------------------------------------------------------------------
    def trim(self, offset: int, size: int, now: float) -> float:
        """Drop data at region granularity: a region whose last live
        sectors are trimmed gives up its slot (and its page, once every
        slot is dead)."""
        for key, rel_lo, rel_hi in self._split_regions(offset, size):
            old = self.region_mask.get(key, 0)
            if not old:
                continue
            remaining = old & ~mask_range(rel_lo, rel_hi)
            if remaining:
                self.region_mask[key] = remaining
            else:
                self._kill_slot(key)
                del self.region_map[key]
                del self.region_mask[key]
        self.counters.count_dram()
        return now + self.cfg.timing.cache_access_ms

    # ------------------------------------------------------------------
    # GC relocation of region pages
    # ------------------------------------------------------------------
    def _relocate_extra(self, old_ppn: int, meta, now: float) -> float:
        if meta.kind != "region":
            return super()._relocate_extra(old_ppn, meta, now)
        live_keys = [k for k, live in meta.slots if live]
        for k in live_keys:
            if self.region_map.get(k, (None, None))[0] != old_ppn:
                raise MappingError(f"region {k} not mapped to GC page {old_ppn}")
        payload = None
        if meta.payloads is not None:
            payload = {}
            for k in live_keys:
                base = self._region_base_sector(k)
                for bit in iter_bits(self.region_mask.get(k, 0)):
                    sec = base + bit
                    if sec in meta.payloads:
                        payload[sec] = meta.payloads[sec]
        new_meta = RegionPageMeta(
            [(k, True) for k in live_keys],
            [self.region_mask.get(k, 0) for k in live_keys],
            payload,
        )
        plane = self.geom.plane_of_ppn(old_ppn)
        new_ppn, finish = self._program_page(
            new_meta, now, OpKind.GC, plane=plane, gc_check=False,
            stream=STREAM_GC,
        )
        for slot_idx, k in enumerate(live_keys):
            self.region_map[k] = (new_ppn, slot_idx)
        self.service.invalidate(old_ppn)
        return finish

    # ------------------------------------------------------------------
    # device-state seam
    # ------------------------------------------------------------------
    def state(self) -> dict:
        """Base tables plus the region map and masks (each in dict
        order) and the ever-fragmented LPN set."""
        s = super().state()
        n = len(self.region_map)
        locs = np.array(list(self.region_map.values()), np.int64)
        s.update(
            region_map_key=np.fromiter(self.region_map, np.int64, n),
            region_map_loc=locs.reshape(-1, 2),
            region_mask_key=np.fromiter(
                self.region_mask, np.int64, len(self.region_mask)
            ),
            region_mask=np.fromiter(
                self.region_mask.values(), np.uint64, len(self.region_mask)
            ),
            ever_fragmented=np.array(sorted(self._ever_fragmented), np.int64),
        )
        return s

    def load_state(self, s: dict) -> None:
        """Base tables plus the region tables, in place."""
        super().load_state(s)
        locs = s["region_map_loc"]
        self.region_map.clear()
        self.region_map.update(
            zip(
                s["region_map_key"].tolist(),
                zip(locs[:, 0].tolist(), locs[:, 1].tolist()),
            )
        )
        self.region_mask.clear()
        self.region_mask.update(
            zip(s["region_mask_key"].tolist(), s["region_mask"].tolist())
        )
        self._ever_fragmented.clear()
        self._ever_fragmented.update(s["ever_fragmented"].tolist())
        # the memoised tree depth is valid for a table-size interval
        # only: empty it so the next lookup recomputes from the new size
        self._tt_lo, self._tt_hi = 0, -1

    # ------------------------------------------------------------------
    # power-loss recovery
    # ------------------------------------------------------------------
    def _rebuild_reset(self) -> None:
        self.region_map.clear()
        self.region_mask.clear()
        self._ever_fragmented.clear()

    def _rebuild_page(self, ppn: int, meta) -> None:
        if meta.kind != "region":
            return super()._rebuild_page(ppn, meta)
        for slot_idx, (key, live) in enumerate(meta.slots):
            if not live:
                continue
            if key in self.region_map:
                raise MappingError(f"region {key} claimed by two slots")
            self.region_map[key] = (ppn, slot_idx)
            self.region_mask[key] = meta.masks[slot_idx]

    def _rebuild_finish(self) -> None:
        # an lpn whose regions are not one packed page is fragmented
        for key in self.region_map:
            lpn = key // self.R
            if lpn in self._ever_fragmented:
                continue
            locs = [
                self.region_map.get(lpn * self.R + r) for r in range(self.R)
            ]
            if None in locs or len({p for p, _ in locs}) != 1 or [
                s for _, s in locs
            ] != list(range(self.R)):
                self._ever_fragmented.add(lpn)

    # ------------------------------------------------------------------
    def mapping_table_bytes(self) -> int:
        """Adaptive footprint: an LPN whose R regions sit packed in-order
        in one page costs one entry; otherwise one entry per region."""
        if not self.region_map:
            return 0
        R = self.R
        n = len(self.region_map)
        keys = np.fromiter(self.region_map.keys(), dtype=np.int64, count=n)
        # itemgetter over the values iterates at C speed — this runs
        # once per report over the full (possibly multi-100k) table
        ppns = np.fromiter(
            map(itemgetter(0), self.region_map.values()),
            dtype=np.int64, count=n,
        )
        slots = np.fromiter(
            map(itemgetter(1), self.region_map.values()),
            dtype=np.int64, count=n,
        )
        order = np.argsort(keys)
        keys, ppns, slots = keys[order], ppns[order], slots[order]
        lpns = keys // R
        # group the (sorted, unique) keys by LPN and test each group
        # vectorised: a group of R keys sorted under one LPN necessarily
        # holds exactly lpn*R .. lpn*R+R-1, so only the slot order and
        # single-PPN conditions need checking
        starts = np.flatnonzero(np.r_[True, lpns[1:] != lpns[:-1]])
        counts = np.diff(np.r_[starts, n])
        coarse = counts == R
        if coarse.any():
            same_ppn = np.minimum.reduceat(ppns, starts) == np.maximum.reduceat(
                ppns, starts
            )
            slots_in_order = np.logical_and.reduceat(slots == keys % R, starts)
            coarse &= same_ppn & slots_in_order
            if self._ever_fragmented:
                frag = np.fromiter(
                    self._ever_fragmented, dtype=np.int64,
                    count=len(self._ever_fragmented),
                )
                coarse &= ~np.isin(lpns[starts], frag)
        n_coarse = int(coarse.sum())
        region_entries = n - n_coarse * R
        return n_coarse * PAGE_ENTRY_BYTES + region_entries * REGION_ENTRY_BYTES

    def flush_metadata(self, now: float) -> float:
        """Write back dirty translation pages (end-of-run barrier)."""
        return self._cache.flush(now, timed=self.timed)

    def stats(self) -> dict:
        """Region-map and mapping-cache statistics for the report."""
        s = super().stats()
        s.update(
            region_entries=len(self.region_map),
            map_cache_hits=self._cache.hits,
            map_cache_misses=self._cache.misses,
            map_cache_evictions=self._cache.evictions,
            map_residency=self._cache.residency(len(self.region_map)),
        )
        return s

    def referenced_ppns(self):
        """Base tables plus region pages (each distinct PPN once, no
        matter how many region slots of it are live)."""
        yield from super().referenced_ppns()
        seen = set()
        for key, (ppn, _slot) in self.region_map.items():
            if ppn not in seen:
                seen.add(ppn)
                yield ppn, f"region_page[{ppn}]"

    def check_invariants(self) -> None:
        """Region-map consistency (tests and :mod:`repro.check`)."""
        for key, (ppn, slot) in self.region_map.items():
            if not self.service.array.is_valid(ppn):
                raise MappingError(f"region {key} -> invalid PPN {ppn}")
            meta = self.service.array.meta(ppn)
            if meta.kind != "region":
                raise MappingError(f"region {key} -> non-region page")
            skey, live = meta.slots[slot]
            if skey != key or not live:
                raise MappingError(f"region {key} slot mismatch at PPN {ppn}")
