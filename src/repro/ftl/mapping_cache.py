"""DRAM mapping cache with translation-page flash traffic.

Mapping tables that do not fit the controller's DRAM live in flash as
*translation pages* of ``entries_per_page`` entries each, DFTL-style.
Accessing an entry whose translation page is not cached costs a flash
read (:attr:`OpKind.MAP`); evicting a dirty translation page costs a
flash write.  These are exactly the *Map* components of Fig. 10 and the
reason MRSM loses to the baseline on flash traffic while Across-FTL
barely registers (map share 36.9%/34.4% vs 2.6%/0.74%, §4.2.2).

DRAM accesses themselves are counted per entry *touch*; a cache built
with ``tree=True`` (MRSM's tree-structured table) charges each touch
its owner's ``tree_touches()``, O(log n) (Fig. 12b).

The cache keeps no reference to the FTL that owns it: the owner passes
itself into every call that may touch flash, and provides
``program_map_page(table_id, tvpn, now, timed)`` (allocate a page,
invalidate the previous copy of the translation page, program the new
one) and ``read_map_page(table_id, tvpn, now, timed)`` (fetch the
flash-resident copy), each returning its completion time.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..flash.service import FlashService
from ..obs.events import CMTEvent


class MappingCache:
    """LRU cache of translation pages for one mapping table."""

    def __init__(
        self,
        service: FlashService,
        *,
        entries_per_page: int,
        capacity_entries: int | None,
        tree: bool = False,
        table_id: int = 0,
    ):
        if entries_per_page <= 0:
            raise ValueError("entries_per_page must be positive")
        self.service = service
        self.table_id = table_id
        self.entries_per_page = entries_per_page
        self.unlimited = capacity_entries is None
        self.capacity_pages = (
            None
            if capacity_entries is None
            else max(1, capacity_entries // entries_per_page)
        )
        self.tree = tree
        # bound once: access() runs per mapping touch on the hot path
        self._counters = service.counters
        #: cached translation pages: tvpn -> dirty flag (LRU order)
        self._cached: OrderedDict[int, bool] = OrderedDict()
        #: translation pages that have a flash-resident copy
        self._on_flash: set[int] = set()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def access(
        self, ftl, key: int, now: float, dirty: bool, timed: bool = True
    ) -> float:
        """Touch the entry ``key`` of ``ftl``'s table; returns the time
        the access completed (``now`` unless flash I/O was needed)."""
        self._counters.dram_accesses += ftl.tree_touches() if self.tree else 1
        obs = self.service.obs
        if self.unlimited:
            self.hits += 1
            if obs is not None:
                obs.emit(CMTEvent(now, self.table_id, "hit", key))
            return now
        tvpn = key // self.entries_per_page
        cached = self._cached
        if tvpn in cached:
            self.hits += 1
            cached.move_to_end(tvpn)
            if dirty:
                cached[tvpn] = True
            if obs is not None:
                obs.emit(CMTEvent(now, self.table_id, "hit", key))
            return now
        self.misses += 1
        if obs is not None:
            obs.emit(CMTEvent(now, self.table_id, "miss", key))
        return self._fill(ftl, tvpn, now, dirty, timed)

    def access_range(
        self, ftl, lo: int, hi: int, now: float, dirty: bool,
        timed: bool = True,
    ) -> float:
        """Touch every entry of ``lo..hi`` (inclusive) in ascending
        order; returns the latest completion time.

        Same cache state, tallies and flash traffic as one
        :meth:`access` per key, at one LRU touch per *translation page*:
        a page just touched is the most recent entry, nothing a lookup
        does (eviction write-back and the GC it may trigger included)
        touches this cache or resizes the table ``tree_touches`` measures,
        so the page's remaining keys are hits that move nothing.  With
        observability on, each key goes through :meth:`access` and
        emits its own event.
        """
        if self.service.obs is not None:
            finish = now
            for key in range(lo, hi + 1):
                t = self.access(ftl, key, now, dirty, timed)
                if t > finish:
                    finish = t
            return finish
        n = hi - lo + 1
        self._counters.dram_accesses += n * ftl.tree_touches() if self.tree else n
        if self.unlimited:
            self.hits += n
            return now
        epp = self.entries_per_page
        cached = self._cached
        finish = now
        for tvpn in range(lo // epp, hi // epp + 1):
            if tvpn in cached:
                cached.move_to_end(tvpn)
                if dirty:
                    cached[tvpn] = True
            else:
                self.misses += 1
                n -= 1
                t = self._fill(ftl, tvpn, now, dirty, timed)
                if t > finish:
                    finish = t
        self.hits += n
        return finish

    def _fill(
        self, ftl, tvpn: int, now: float, dirty: bool, timed: bool
    ) -> float:
        """Miss path: fetch the flash-resident copy of ``tvpn`` (if any),
        install it most-recent and spill the overflow; returns when the
        lookup may proceed."""
        finish = now
        if tvpn in self._on_flash:
            # a read lookup blocks: the mapping must be fetched before
            # the data can be located.  A write lookup does not: the new
            # entry is installed in DRAM immediately and merged with the
            # flash copy in the background (the fetch still occupies a
            # chip) — so for attribution the dirty fetch is background
            # work, the clean fetch a gating map_read.
            if dirty:
                attr = self.service.attr
                if attr is not None:
                    attr.suspend()
                    try:
                        ftl.read_map_page(self.table_id, tvpn, now, timed)
                    finally:
                        attr.resume()
                else:
                    ftl.read_map_page(self.table_id, tvpn, now, timed)
            else:
                finish = ftl.read_map_page(self.table_id, tvpn, now, timed)
        self._cached[tvpn] = dirty
        self._evict_overflow(ftl, now, timed)
        return finish

    def _evict_overflow(self, ftl, now: float, timed: bool) -> None:
        """Write back evicted dirty translation pages.

        Evictions are *asynchronous* (DFTL-style): the flash programs
        occupy the chips — delaying later operations — but do not gate
        the completion of the request that caused the eviction.
        """
        while len(self._cached) > self.capacity_pages:
            tvpn, was_dirty = self._cached.popitem(last=False)
            self.evictions += 1
            obs = self.service.obs
            if obs is not None:
                obs.emit(CMTEvent(
                    now, self.table_id,
                    "spill" if was_dirty else "evict", tvpn,
                ))
            if was_dirty:
                ftl.program_map_page(self.table_id, tvpn, now, timed)
                self._on_flash.add(tvpn)

    # ------------------------------------------------------------------
    def flush(self, ftl, now: float, *, timed: bool = True) -> float:
        """Write back every dirty translation page (end-of-run barrier)."""
        finish = now
        for tvpn, dirty in list(self._cached.items()):
            if dirty:
                t = ftl.program_map_page(self.table_id, tvpn, now, timed)
                finish = max(finish, t)
                self._on_flash.add(tvpn)
                self._cached[tvpn] = False
        return finish

    # ------------------------------------------------------------------
    def state(self) -> dict:
        """Cached translation pages in LRU order with their dirty flags,
        the flash-resident set and the tallies — the device-state seam,
        docs/architecture.md."""
        n = len(self._cached)
        return {
            "lru_tvpn": np.fromiter(self._cached, np.int64, n),
            "lru_dirty": np.fromiter(self._cached.values(), np.bool_, n),
            "on_flash": np.array(sorted(self._on_flash), np.int64),
            "tallies": [self.hits, self.misses, self.evictions],
        }

    def load_state(self, s: dict) -> None:
        """Overwrite the cache with a :meth:`state` snapshot, in place
        (the containers keep their identity)."""
        self._cached.clear()
        self._cached.update(zip(s["lru_tvpn"].tolist(), s["lru_dirty"].tolist()))
        self._on_flash.clear()
        self._on_flash.update(s["on_flash"].tolist())
        self.hits, self.misses, self.evictions = s["tallies"]

    @property
    def cached_pages(self) -> int:
        return len(self._cached)

    def residency(self, total_entries: int) -> float:
        """Fraction of the table resident in DRAM (paper quotes 42.1%
        for MRSM under Table 1 settings)."""
        if total_entries <= 0:
            return 1.0
        if self.unlimited:
            return 1.0
        return min(1.0, self.capacity_pages * self.entries_per_page / total_entries)
