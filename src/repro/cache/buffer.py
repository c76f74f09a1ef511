"""Write-through DRAM data cache.

Models the SSD controller's data buffer (Table 1: 0.001 ms access).
Writes always continue to the FTL (write-through — the paper's write
latencies are flash-bound, so the buffer does not absorb programs), but
the written sectors stay cached and subsequent reads that are fully
covered by cached sectors complete at DRAM speed without any flash
read.  Reads allocate into the cache as well.

Granularity is the logical page: the cache tracks, per LPN, a bitmask
of cached sectors plus their per-sector oracle stamps when data
tracking is on (a write caches its one version for every sector it
wrote; a read-allocation caches the stamps the flash read found).
Eviction is LRU over LPNs and free (write-through means nothing is
dirty).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from ..obs.events import BufferEvict
from ..units import split_extent


class DataCache:
    """LRU, write-through sector cache keyed by LPN."""

    def __init__(self, capacity_pages: int, spp: int):
        if capacity_pages <= 0:
            raise ValueError("capacity_pages must be positive")
        self.capacity_pages = capacity_pages
        self.spp = spp
        #: lpn -> [sector bitmask, stamps dict | None]
        self._entries: OrderedDict[int, list] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0
        #: observability event bus, installed by the engine (the buffer
        #: has no clock, so events are stamped with the bus's ``now``)
        self.obs = None

    # ------------------------------------------------------------------
    def put(self, offset: int, size: int, version: Optional[int] = None) -> None:
        """Cache the sectors of a write; ``version`` is its oracle
        version (None when the oracle is off)."""
        spp = self.spp
        entries = self._entries
        # single-page extents dominate replays: build the piece tuple
        # inline instead of calling split_extent
        lpn = offset // spp
        rel_lo = offset - lpn * spp
        if rel_lo + size <= spp:
            pieces = ((lpn, rel_lo, size),)
        else:
            pieces = split_extent(offset, size, spp)
        for lpn, rel_lo, count in pieces:
            mask = ((1 << count) - 1) << rel_lo
            entry = entries.get(lpn)
            if entry is None:
                entries[lpn] = entry = [mask, {} if version is not None else None]
                self.insertions += 1
            else:
                entries.move_to_end(lpn)
                entry[0] |= mask
            if version is not None:
                if entry[1] is None:
                    entry[1] = {}
                lo = lpn * spp + rel_lo
                for sec in range(lo, lo + count):
                    entry[1][sec] = version
        while len(entries) > self.capacity_pages:
            evicted, _ = entries.popitem(last=False)
            self.evictions += 1
            if self.obs is not None:
                self.obs.emit(BufferEvict(self.obs.now, evicted))

    def put_found(self, offset: int, size: int, found: Optional[dict]) -> None:
        """Read-allocate: cache only the sectors the flash read actually
        returned data for.

        Marking the whole requested extent cached (the old behaviour)
        invented DRAM copies of sectors that hold no data — a later
        read of an unwritten/trimmed extent then "hit" and skipped
        flash, changing both timing and, with the oracle on, what
        ``get_stamps`` could return.  ``found`` is only populated when
        payload tracking is on (oracle runs); with ``found is None``
        the service path reports nothing about per-sector validity, so
        the legacy full-extent allocation is the only option (and keeps
        oracle-off replays — the pinned bench digests — unchanged).
        """
        if found is None:
            self.put(offset, size, None)
            return
        if not found:
            return
        # each run of contiguous sectors holding one version is cached
        # like a write of that version
        end = offset + size
        run_start = -1
        prev = -2
        run_v = None
        for sec in sorted(found):
            if sec < offset or sec >= end:
                continue
            v = found[sec]
            if sec != prev + 1 or v != run_v:
                if run_start >= 0:
                    self.put(run_start, prev - run_start + 1, run_v)
                run_start, run_v = sec, v
            prev = sec
        if run_start >= 0:
            self.put(run_start, prev - run_start + 1, run_v)

    # ------------------------------------------------------------------
    def full_hit(self, offset: int, size: int) -> bool:
        """True when every requested sector is cached (the only case we
        serve from DRAM; partial hits go to flash for simplicity)."""
        spp = self.spp
        entries = self._entries
        lpn = offset // spp
        rel_lo = offset - lpn * spp
        if rel_lo + size <= spp:
            entry = entries.get(lpn)
            if entry is None:
                self.misses += 1
                return False
            mask = ((1 << size) - 1) << rel_lo
            if entry[0] & mask != mask:
                self.misses += 1
                return False
            entries.move_to_end(lpn)
            self.hits += 1
            return True
        pieces = split_extent(offset, size, spp)
        for lpn, rel_lo, count in pieces:
            entry = entries.get(lpn)
            if entry is None:
                self.misses += 1
                return False
            mask = ((1 << count) - 1) << rel_lo
            if entry[0] & mask != mask:
                self.misses += 1
                return False
        # refresh LRU recency here, not only in get_stamps: a read
        # served from DRAM must keep its pages hot even when the oracle
        # is off (otherwise hot read-only pages are evicted as if cold)
        for lpn, _rel_lo, _count in pieces:
            entries.move_to_end(lpn)
        self.hits += 1
        return True

    def get_stamps(self, offset: int, size: int) -> dict:
        """Stamps of the requested sectors; caller checked full_hit."""
        out: dict = {}
        for lpn, rel_lo, count in split_extent(offset, size, self.spp):
            entry = self._entries.get(lpn)
            if entry is None:
                continue
            self._entries.move_to_end(lpn)
            if entry[1]:
                base = lpn * self.spp
                for i in range(count):
                    sec = base + rel_lo + i
                    if sec in entry[1]:
                        out[sec] = entry[1][sec]
        return out

    def discard(self, offset: int, size: int) -> None:
        """Drop cached copies of a trimmed extent."""
        for lpn, rel_lo, count in split_extent(offset, size, self.spp):
            entry = self._entries.get(lpn)
            if entry is None:
                continue
            mask = ((1 << count) - 1) << rel_lo
            entry[0] &= ~mask
            if entry[1]:
                base = lpn * self.spp
                for i in range(count):
                    entry[1].pop(base + rel_lo + i, None)
            if entry[0] == 0:
                del self._entries[lpn]

    def __len__(self) -> int:
        return len(self._entries)
