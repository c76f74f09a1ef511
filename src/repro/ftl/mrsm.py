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

Representation
--------------
Every table is a flat column (``array.array`` with a zero-copy numpy
view, like the PMT), indexed by arithmetic on numbers the request path
already has; typecodes follow the geometry.

* DRAM side, indexed by region key ``sector // region_sectors``
  (``= lpn * R + r``): the slot location ``ppn * R + slot`` of the
  region's newest copy (``-1`` = unmapped), the mask of its written
  sectors, and a per-LPN ever-fragmented flag.  These are the mapping
  table: :meth:`MRSMFTL.state` captures them and
  :meth:`~repro.ftl.base.BaseFTL.rebuild_from_flash` wipes and rebuilds
  them.
* Flash side, registered with the array as out-of-band side columns
  (:meth:`repro.flash.array.FlashArray.oob_column`) and indexed by slot
  location: the region key a slot holds (``-1`` once the slot is dead)
  and the mask it was programmed with; per page, the slots programmed
  and the slots still live.  They model what the page's OOB area says,
  so they are captured with the array and recovery reads, never wipes,
  them.
"""

from __future__ import annotations

import math
from array import array
from typing import Optional

import numpy as np

from ..errors import ConfigError, MappingError
from ..metrics.counters import OpKind
from .base import BaseFTL, iter_bits
from .meta import KIND_REGION

#: a region entry records offset, size, PPN and slot ("a complicated
#: mapping data structure to record the offset and size information",
#: paper §2.2) — twice the plain page entry
REGION_ENTRY_BYTES = 16
PAGE_ENTRY_BYTES = 8


def _index_typecode(size: int) -> str:
    """Signed typecode holding ``-1 .. size - 1``."""
    return "i" if size <= 2**31 else "q"


def _mask_typecode(bits: int) -> str:
    """Unsigned typecode holding a ``bits``-wide mask."""
    for typecode, width in (("B", 8), ("H", 16), ("I", 32), ("Q", 64)):
        if bits <= width:
            return typecode
    raise ConfigError(f"a {bits}-sector region mask fits no machine word")


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
        R = self.R = regions_per_page
        self.region_sectors = self.spp // R
        #: mask of a wholly covered region
        self._full = (1 << self.region_sectors) - 1
        #: one past the last logical sector
        self._limit = self.logical_pages * self.spp
        n_keys = self.logical_pages * R
        n_slots = self.geom.num_pages * R
        mask_code = _mask_typecode(self.region_sectors)
        # --- DRAM side (module docstring): raw column + numpy view
        #: region key -> slot location ``ppn * R + slot`` (-1 = unmapped)
        self._rloc = array(_index_typecode(n_slots), [-1]) * n_keys
        self.region_locs = np.frombuffer(self._rloc, dtype=self._rloc.typecode)
        #: region key -> bitmask of written sectors within the region
        #: (non-zero exactly while the key is mapped)
        self._rmask = array(mask_code, [0]) * n_keys
        self.region_masks = np.frombuffer(self._rmask, dtype=mask_code)
        #: LPN -> 1 once it has ever been written at sub-page
        #: granularity; once the tree splits a page's entry it stays
        #: split (a later full-page overwrite does not re-coarsen it),
        #: which is why MRSM's table converges to ~2.4x the baseline's
        #: (Fig. 12a)
        self._frag = array("B", [0]) * self.logical_pages
        self.fragmented = np.frombuffer(self._frag, dtype="B")
        #: mapped region keys (the tree's entry count)
        self._entries = 0
        # --- flash side: the region pages' out-of-band records
        oob = service.array.oob_column
        #: slot location -> region key held (-1 = dead or never used)
        self._slot_key = oob("region_key", _index_typecode(n_keys), R, -1)
        #: slot location -> sector mask the slot was programmed with
        self._slot_mask = oob("region_mask", mask_code, R)
        #: ppn -> slots programmed / slots still live (R <= 64 sectors)
        self._page_slots = oob("region_slots", "B")
        self._page_live = oob("region_live", "B")
        # memoised tree_touches state: current depth and the interval
        # of table sizes it stays valid for (empty → recompute on first use)
        self._tt_val = 1
        self._tt_lo = 0
        self._tt_hi = -1
        entries_per_page = max(1, self.cfg.page_size_bytes // REGION_ENTRY_BYTES)
        self._cache = self._make_cache(
            table_id=1,
            entries_per_page=entries_per_page,
            capacity_entries=self.dram_entries,
            tree=True,
        )

    def tree_touches(self) -> int:
        """DRAM touches per lookup: the depth of the (4-ary) mapping
        tree MRSM keeps its region entries in (Fig. 12b: ~32x the flat
        tables' single touch, once multiplied by regions per request).

        The depth only changes when the entry count crosses a power of
        4, so the log is memoised over the interval of table sizes that
        share the current depth.
        """
        n = self._entries
        if n > self._tt_hi or n < self._tt_lo:
            v = max(1, math.ceil(math.log2(n + 2) / 2))
            self._tt_val = v
            # depth v covers 4**(v-1) < n + 2 <= 4**v
            self._tt_lo = (1 << (2 * v - 2)) - 1
            self._tt_hi = (1 << (2 * v)) - 2
        return self._tt_val

    # ------------------------------------------------------------------
    # read-only view of the table (tests, examples)
    # ------------------------------------------------------------------
    @property
    def region_count(self) -> int:
        """Mapped regions (entries of the mapping tree)."""
        return self._entries

    def region_loc(self, key: int) -> Optional[tuple[int, int]]:
        """``(ppn, slot)`` of region ``key``'s newest copy, or None."""
        loc = self._rloc[key]
        return None if loc < 0 else divmod(loc, self.R)

    # ------------------------------------------------------------------
    # region geometry
    # ------------------------------------------------------------------
    def _span(self, offset: int, size: int) -> tuple[int, int, int, int]:
        """``(first, last, head, tail)`` of a non-empty sector extent:
        the first and last region keys it touches, the region-relative
        mask of the sectors at or after its start in ``first`` and of
        those before its end in ``last``.  Regions in between are
        covered whole, so only these two can be partly covered (both
        cuts apply when ``first == last``).  The one range check of a
        request: a key outside the columns must never become an index.
        """
        end = offset + size
        if offset < 0 or end > self._limit:
            raise MappingError(
                f"extent [{offset}, {end}) outside logical space"
            )
        rs = self.region_sectors
        full = self._full
        first = offset // rs
        last = (end - 1) // rs
        return (
            first,
            last,
            (full << (offset - first * rs)) & full,
            full >> ((last + 1) * rs - end),
        )

    def _mapped_ppn(self, key: int) -> int:
        """PPN of a region that has live sectors."""
        loc = self._rloc[key]
        if loc < 0:
            raise MappingError(f"region {key} has live sectors but no slot")
        return loc // self.R

    # ------------------------------------------------------------------
    # slot lifecycle
    # ------------------------------------------------------------------
    def _kill_slot(self, key: int) -> None:
        """Mark a mapped region's slot dead; invalidate its page when
        the last live slot dies."""
        loc = self._rloc[key]
        ppn = loc // self.R
        # the sentinel first: a negative index would wrap, not raise
        live = self._page_live[ppn] if loc >= 0 else 0
        if not live or self._slot_key[loc] != key:
            raise MappingError(f"slot bookkeeping broken for region {key}")
        self._slot_key[loc] = -1
        self._page_live[ppn] = live - 1
        if live == 1:
            self.service.invalidate(ppn)

    def _program_region_page(
        self, keys, masks, payload: Optional[dict], now: float
    ) -> tuple[int, float]:
        """Program one page packing ``keys`` in slot order and record it
        in both column sets; returns (ppn, finish).

        No GC check runs in here: the caller makes it afterwards
        (:meth:`~repro.ftl.gc.GarbageCollector.maybe_collect`), so a
        relocation can never meet a valid region page whose slots are
        unwritten.
        """
        timed = self.timed
        ppn = self.allocator.allocate()
        finish = self.service.program_page(
            ppn, (KIND_REGION, 0, 0, 0), now,
            OpKind.DATA if timed else OpKind.AGING, timed, payload,
        )
        rloc = self._rloc
        rmask = self._rmask
        slot_key = self._slot_key
        slot_mask = self._slot_mask
        base = loc = ppn * self.R
        for key, mask in zip(keys, masks):
            slot_key[loc] = key
            slot_mask[loc] = mask
            rloc[key] = loc
            rmask[key] = mask
            loc += 1
        self._page_slots[ppn] = self._page_live[ppn] = loc - base
        return ppn, finish

    # ------------------------------------------------------------------
    def write(
        self, offset: int, size: int, now: float, version: Optional[int] = None
    ) -> float:
        """Service a write: region-level RMW where a region is partially
        covered, then pack the regions into R-slot pages."""
        if size <= 0:
            return now
        first, last, head, tail = self._span(offset, size)
        if first == last:
            head = tail = head & tail
        timed = self.timed
        kind = OpKind.DATA if timed else OpKind.AGING
        full = self._full
        rmask = self._rmask
        # a boundary lpn not covered whole becomes (and stays)
        # region-mapped in the tree — persistent table state, so warm-up
        # (aging) writes fragment it too, like the paper's warm-up trace
        spp = self.spp
        if offset % spp:
            self._frag[offset // spp] = 1
        if (offset + size) % spp:
            self._frag[(offset + size) // spp] = 1
        # phase 1: mapping lookups + region-level read-modify-write
        finish = self._cache.access_range(
            self, first, last, now, True, timed
        )
        rmw_ppns = None
        if head != full and rmask[first] & ~head:
            rmw_ppns = {self._mapped_ppn(first)}
        if last != first and tail != full and rmask[last] & ~tail:
            if rmw_ppns is None:
                rmw_ppns = set()
            rmw_ppns.add(self._mapped_ppn(last))
        if rmw_ppns:
            attr = self.service.attr
            if attr is not None:
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
        kill_slot = self._kill_slot
        for k0 in range(first, last + 1, R):
            keys = range(k0, min(k0 + R, last + 1))
            payload: Optional[dict] = {} if track else None
            masks = []
            for key in keys:
                new_mask = (
                    head if key == first else tail if key == last else full
                )
                old_mask = rmask[key]
                if old_mask:
                    # retained old sectors of this region: carried over
                    # while its old page is still valid, i.e. before the
                    # kill (the slot itself keeps the page alive)
                    if track and old_mask & ~new_mask:
                        old = self.service.array.payloads.get(
                            self._mapped_ppn(key)
                        )
                        if old:
                            for bit in iter_bits(old_mask & ~new_mask):
                                sec = key * rs + bit
                                if sec in old:
                                    payload[sec] = old[sec]
                    kill_slot(key)
                else:
                    self._entries += 1
                if track and version is not None:
                    for bit in iter_bits(new_mask):
                        payload[key * rs + bit] = version
                masks.append(old_mask | new_mask)
            ppn, t = self._program_region_page(keys, masks, payload, start)
            if t > finish:
                finish = t
            self.gc.maybe_collect(
                self, ppn // self.geom.pages_per_plane, start, self.timed
            )
        return finish

    # ------------------------------------------------------------------
    def read(
        self, offset: int, size: int, now: float
    ) -> tuple[float, Optional[dict]]:
        """Service a read: one flash read per distinct page holding a
        wanted live region."""
        found: Optional[dict] = {} if self.track_payload else None
        if size <= 0:
            return now, found
        first, last, head, tail = self._span(offset, size)
        timed = self.timed
        kind = OpKind.DATA if timed else OpKind.AGING
        finish = self._cache.access_range(
            self, first, last, now, False, timed
        )
        pages = self._wanted_pages(first, last, head, tail, found is not None)
        for ppn, sectors in pages.items():
            t = self.service.read_page(ppn, now, kind, timed=timed)
            if t > finish:
                finish = t
            if sectors:
                payloads = self.service.array.payloads.get(ppn)
                if payloads:
                    for sec in sectors:
                        if sec in payloads:
                            found[sec] = payloads[sec]
        return finish, found

    def _wanted_pages(
        self, first: int, last: int, head: int, tail: int, sectors: bool
    ) -> dict[int, Optional[list[int]]]:
        """The flash pages holding live sectors of a :meth:`_span`, in
        first-wanted order (one read per distinct page), each with the
        absolute sectors wanted from it when ``sectors`` (oracle runs)
        and None otherwise.  Shared with the batch read kernel."""
        rmask = self._rmask
        rs = self.region_sectors
        pages: dict[int, Optional[list[int]]] = {}
        for key in range(first, last + 1):
            present = rmask[key]
            if key == first:
                present &= head
            if key == last:
                present &= tail
            if not present:
                continue
            ppn = self._mapped_ppn(key)
            if sectors:
                base = key * rs
                pages.setdefault(ppn, []).extend(
                    base + bit for bit in iter_bits(present)
                )
            else:
                pages[ppn] = None
        return pages

    # ------------------------------------------------------------------
    def trim(self, offset: int, size: int, now: float) -> float:
        """Drop data at region granularity: a region whose last live
        sectors are trimmed gives up its slot (and its page, once every
        slot is dead)."""
        if size > 0:
            first, last, head, tail = self._span(offset, size)
            rmask = self._rmask
            for key in range(first, last + 1):
                old = rmask[key]
                if not old:
                    continue
                drop = self._full
                if key == first:
                    drop &= head
                if key == last:
                    drop &= tail
                remaining = old & ~drop
                if not remaining:
                    self._kill_slot(key)
                    self._rloc[key] = -1
                    self._entries -= 1
                rmask[key] = remaining
        self.counters.count_dram()
        return now + self.cfg.timing.cache_access_ms

    # ------------------------------------------------------------------
    # GC relocation of region pages
    # ------------------------------------------------------------------
    def _remap(self, code: int, src: np.ndarray, dst: np.ndarray) -> None:
        """Region pages: compact each moved page's live slots, in slot
        order, into the first slots of its new page (both column sets)
        and kill the old copies."""
        if code != KIND_REGION:
            return super()._remap(code, src, dst)
        R = self.R
        oob = self.service.array.oob
        slot_key = oob["region_key"]
        old_locs = src[:, None] * R + np.arange(R)
        keys = slot_key[old_locs]
        live = keys >= 0
        counts = live.sum(axis=1)
        new_locs = (dst[:, None] * R + live.cumsum(axis=1) - 1)[live]
        old_live = old_locs[live]
        keys = keys[live]
        stale = np.flatnonzero(self.region_locs[keys] != old_live)
        if stale.size:
            raise MappingError(
                f"region {int(keys[stale[0]])} not mapped to GC page "
                f"{int(old_live[stale[0]]) // R}"
            )
        self.region_locs[keys] = new_locs
        slot_key[new_locs] = keys
        oob["region_mask"][new_locs] = self.region_masks[keys]
        oob["region_slots"][dst] = oob["region_live"][dst] = counts
        # the old copies are dead: a slot key >= 0 always means "live"
        slot_key[old_live] = -1
        oob["region_live"][src] = 0

    # ------------------------------------------------------------------
    # device-state seam
    # ------------------------------------------------------------------
    def state(self) -> dict:
        """Base tables plus the DRAM-side region columns (the flash-side
        ones travel with the array)."""
        s = super().state()
        s.update(
            region_loc=self.region_locs.copy(),
            region_mask=self.region_masks.copy(),
            ever_fragmented=self.fragmented.copy(),
        )
        return s

    def load_state(self, s: dict) -> None:
        """Base tables plus the region columns, in place."""
        super().load_state(s)
        self.region_locs[:] = s["region_loc"]
        self.region_masks[:] = s["region_mask"]
        self.fragmented[:] = s["ever_fragmented"]
        self._recount()

    def _recount(self) -> None:
        """Re-derive the entry count after a bulk table change."""
        self._entries = int(np.count_nonzero(self.region_locs >= 0))
        # the memoised tree depth is valid for a table-size interval
        # only: empty it so the next lookup recomputes from the new size
        self._tt_lo, self._tt_hi = 0, -1

    # ------------------------------------------------------------------
    # power-loss recovery
    # ------------------------------------------------------------------
    def _rebuild_reset(self) -> None:
        self.region_locs.fill(-1)
        self.region_masks.fill(0)
        self.fragmented.fill(0)
        self._recount()

    def _rebuild_page(self, ppn: int, meta) -> None:
        if meta.kind != "region":
            return super()._rebuild_page(ppn, meta)
        base = ppn * self.R
        for loc in range(base, base + self._page_slots[ppn]):
            key = self._slot_key[loc]
            if key < 0:
                continue
            if self._rloc[key] >= 0:
                raise MappingError(f"region {key} claimed by two slots")
            self._rloc[key] = loc
            self._rmask[key] = self._slot_mask[loc]

    def _rebuild_finish(self) -> None:
        self._recount()
        # an lpn whose regions are not one packed page is fragmented
        locs, packed = self._packed_lpns()
        self.fragmented[(locs >= 0).any(axis=1) & ~packed] = 1

    # ------------------------------------------------------------------
    def _packed_lpns(self) -> tuple[np.ndarray, np.ndarray]:
        """The slot locations as one row per LPN, and per LPN whether its
        R regions sit, in order, in the R slots of one flash page."""
        R = self.R
        locs = self.region_locs.reshape(-1, R)
        head = locs[:, 0]
        packed = (head >= 0) & (head % R == 0)
        for r in range(1, R):
            packed &= locs[:, r] == head + r
        return locs, packed

    def mapping_table_bytes(self) -> int:
        """Adaptive footprint: an LPN whose R regions sit packed in-order
        in one page costs one entry; otherwise one entry per region."""
        _, packed = self._packed_lpns()
        n_coarse = int(np.count_nonzero(packed & (self.fragmented == 0)))
        region_entries = self._entries - n_coarse * self.R
        return n_coarse * PAGE_ENTRY_BYTES + region_entries * REGION_ENTRY_BYTES

    def flush_metadata(self, now: float) -> float:
        """Write back dirty translation pages (end-of-run barrier)."""
        return self._cache.flush(self, now, timed=self.timed)

    def stats(self) -> dict:
        """Region-map and mapping-cache statistics for the report."""
        s = super().stats()
        s.update(
            region_entries=self._entries,
            map_cache_hits=self._cache.hits,
            map_cache_misses=self._cache.misses,
            map_cache_evictions=self._cache.evictions,
            map_residency=self._cache.residency(self._entries),
        )
        return s

    def referenced_ppns(self):
        """Base tables plus region pages (each distinct PPN once, no
        matter how many region slots of it are live)."""
        yield from super().referenced_ppns()
        locs = self.region_locs
        for ppn in np.unique(locs[locs >= 0] // self.R).tolist():
            yield ppn, f"region_page[{ppn}]"

    def check_invariants(self) -> None:
        """Region-table consistency (tests and :mod:`repro.check`): the
        DRAM-side columns against the flash-side ones and the array."""
        arr = self.service.array
        R = self.R
        locs = self.region_locs
        keys = np.nonzero(locs >= 0)[0]
        if keys.size != self._entries:
            raise MappingError(
                f"entry counter {self._entries} but {keys.size} mapped regions"
            )
        orphans = np.nonzero((self.region_masks != 0) != (locs >= 0))[0]
        if orphans.size:
            raise MappingError(
                f"region {int(orphans[0])}: sector mask and slot disagree"
            )
        # region <-> slot bijection: every mapped key's slot names it,
        # and no other slot is live
        mapped = locs[keys]
        slot_keys = arr.oob["region_key"]
        wrong = np.nonzero(slot_keys[mapped] != keys)[0]
        if wrong.size:
            raise MappingError(
                f"region {int(keys[wrong[0]])} slot mismatch at PPN "
                f"{int(mapped[wrong[0]]) // R}"
            )
        live_slots = slot_keys.reshape(-1, R) >= 0
        if np.count_nonzero(live_slots) != keys.size:
            raise MappingError("a live slot holds a region the table lost")
        # per page: live count == live slots <= slots programmed, and
        # a region page is valid exactly while a slot of it is live
        live = arr.oob["region_live"]
        wrong = np.nonzero(live_slots.sum(axis=1) != live)[0]
        if wrong.size:
            raise MappingError(f"PPN {int(wrong[0])}: live-slot count is off")
        slots = arr.oob["region_slots"]
        wrong = np.nonzero(live_slots & (np.arange(R) >= slots[:, None]))
        if wrong[0].size:
            raise MappingError(
                f"PPN {int(wrong[0][0])}: live slot past the programmed ones"
            )
        wrong = np.nonzero((arr.kind == KIND_REGION) != (live > 0))[0]
        if wrong.size:
            raise MappingError(
                f"PPN {int(wrong[0])}: valid region page <=> live slots broken"
            )
