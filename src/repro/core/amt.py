"""The across-page mapping table (AMT), paper §3.2.

Each entry records one *across-page area*: a physical page (``appn``)
holding a sector extent (``start``, ``size``) that spans logical pages
``lpn0`` and ``lpn0 + 1``.  The PMT references entries by index via its
``AIdx`` field (the FTL keeps it as a column beside the PMT, -1 = no
area).

Indices are recycled through a free list so the table stays dense and
its working set — which is what the AMT's mapping cache moves between
DRAM and flash — tracks the number of *live* areas.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..errors import MappingError

#: modelled bytes per AMT entry (AIdx back-ref, Off, Size, APPN — Fig. 5)
AMT_ENTRY_BYTES = 16


class AMTEntry:
    """One across-page area."""

    __slots__ = ("aidx", "lpn0", "start", "size", "appn")

    def __init__(self, aidx: int, lpn0: int, start: int, size: int, appn: int):
        self.aidx = aidx
        #: first of the two consecutive LPNs the area spans
        self.lpn0 = lpn0
        #: absolute first sector of the re-aligned extent
        self.start = start
        #: extent length in sectors (2 <= size <= sectors per page)
        self.size = size
        #: physical page holding the extent
        self.appn = appn

    @property
    def end(self) -> int:
        return self.start + self.size

    @property
    def lpns(self) -> tuple[int, int]:
        return (self.lpn0, self.lpn0 + 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AMTEntry(aidx={self.aidx}, lpn0={self.lpn0}, "
            f"start={self.start}, size={self.size}, appn={self.appn})"
        )


class AcrossMappingTable:
    """Dense, index-recycling table of live across-page areas."""

    def __init__(self):
        self._entries: dict[int, AMTEntry] = {}
        self._free: list[int] = []
        self._next = 0
        #: lifetime count of areas ever created (Fig. 8a denominator)
        self.total_created = 0
        #: high-water mark of simultaneously live areas
        self.peak_live = 0

    def create(self, lpn0: int, start: int, size: int, appn: int) -> AMTEntry:
        """Allocate an entry for a new across-page area."""
        aidx = self._free.pop() if self._free else self._next
        if aidx == self._next:
            self._next += 1
        entry = AMTEntry(aidx, lpn0, start, size, appn)
        self._entries[aidx] = entry
        self.total_created += 1
        self.peak_live = max(self.peak_live, len(self._entries))
        return entry

    def get(self, aidx: int) -> AMTEntry:
        """Live entry at ``aidx``; :class:`MappingError` if not live."""
        try:
            return self._entries[aidx]
        except KeyError:
            raise MappingError(f"AMT index {aidx} is not live") from None

    def restore(
        self, aidx: int, lpn0: int, start: int, size: int, appn: int
    ) -> AMTEntry:
        """Re-insert an entry at a fixed index during a post-power-loss
        rebuild; call :meth:`rebuild_done` after the scan."""
        if aidx in self._entries:
            raise MappingError(f"AMT index {aidx} restored twice")
        entry = AMTEntry(aidx, lpn0, start, size, appn)
        self._entries[aidx] = entry
        self._next = max(self._next, aidx + 1)
        self.peak_live = max(self.peak_live, len(self._entries))
        return entry

    def rebuild_done(self) -> None:
        """Recompute the free list after :meth:`restore` calls."""
        self._free = [i for i in range(self._next) if i not in self._entries]

    def clear(self) -> None:
        """Drop every entry (start of a rebuild scan)."""
        self._entries.clear()
        self._free.clear()
        self._next = 0

    def release(self, aidx: int) -> None:
        """Free an entry (area rolled back)."""
        if aidx not in self._entries:
            raise MappingError(f"double release of AMT index {aidx}")
        del self._entries[aidx]
        self._free.append(aidx)

    def state(self) -> dict:
        """Live entries as ``(aidx, lpn0, start, size, appn)`` rows in
        dict order, the free list in order, and the allocation tallies
        — the device-state seam, docs/architecture.md."""
        rows = [
            (e.aidx, e.lpn0, e.start, e.size, e.appn)
            for e in self._entries.values()
        ]
        return {
            "amt_entries": np.array(rows, np.int64).reshape(-1, 5),
            "amt_free": np.array(self._free, np.int64),
            "amt_alloc": [self._next, self.total_created, self.peak_live],
        }

    def load_state(self, s: dict) -> None:
        """Overwrite the table with a :meth:`state` snapshot, in place."""
        self._entries.clear()
        for row in s["amt_entries"].tolist():
            self._entries[row[0]] = AMTEntry(*row)
        self._free[:] = s["amt_free"].tolist()
        self._next, self.total_created, self.peak_live = s["amt_alloc"]

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, aidx: int) -> bool:
        return aidx in self._entries

    def entries(self) -> Iterator[AMTEntry]:
        """Iterate the live entries (order unspecified)."""
        return iter(self._entries.values())

    @property
    def index_space(self) -> int:
        """Size of the index range in use (cache key space)."""
        return self._next

    def check_invariants(self) -> None:
        """Verify table density: the free list and the live entries
        must partition ``range(index_space)`` exactly, with every entry
        stored under its own index (:mod:`repro.check` sweeps)."""
        free = set(self._free)
        if len(free) != len(self._free):
            raise MappingError("AMT free list holds duplicate indices")
        live = self._entries.keys()
        overlap = free & live
        if overlap:
            raise MappingError(
                f"AMT index {min(overlap)} is both free and live"
            )
        if len(free) + len(live) != self._next:
            raise MappingError(
                f"AMT index space {self._next} != {len(live)} live + "
                f"{len(free)} free entries"
            )
        for aidx, entry in self._entries.items():
            if entry.aidx != aidx:
                raise MappingError(
                    f"AMT entry at index {aidx} claims aidx {entry.aidx}"
                )
