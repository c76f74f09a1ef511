"""Dynamic page allocation: one write stream, one active block per plane.

SSDsim-style dynamic allocation: logical pages have no fixed home; each
write takes the next free page of a per-plane *active block*, and
consecutive allocations round-robin across planes so a multi-page
request stripes over channels/chips and its sub-requests overlap
(paper §2.1, [16]).

GC migrations allocate in the victim's own plane (`allocate_in_plane`)
so collection never steals bandwidth or free space from other planes.
User writes and GC migrations share the plane's active block, as in
SSDsim.
"""

from __future__ import annotations

import numpy as np

from ..errors import OutOfSpaceError
from ..flash.service import FlashService


class WriteAllocator:
    """Round-robin active-block allocator over all planes."""

    def __init__(self, service: FlashService):
        self.service = service
        self.geom = service.geom
        #: active (filling) block per plane
        self._active: list[int | None] = [None] * self.geom.num_planes
        self._cursor = 0
        # channel-first striping: consecutive allocations visit a
        # different chip each time so a multi-page request's
        # sub-requests overlap (SSDsim dynamic allocation)
        chips = self.geom.num_chips
        per_chip = self.geom.planes_per_chip
        self._plane_order = [
            (j % chips) * per_chip + (j // chips)
            for j in range(self.geom.num_planes)
        ]
        # hot-path binds: one allocation per flash program
        self._array = service.array
        self._ppb = self.geom.pages_per_block

    # ------------------------------------------------------------------
    def active_in_plane(self, plane: int) -> int | None:
        """The block ``plane`` is filling (GC must not pick it), if any."""
        return self._active[plane]

    # ------------------------------------------------------------------
    def allocate_in_plane(self, plane: int) -> int | None:
        """Next free PPN in ``plane``, or None if the plane is exhausted."""
        arr = self._array
        ppb = self._ppb
        wp = arr._write_ptr
        active = self._active
        block = active[plane]
        if block is not None:
            p = wp[block]
            if p < ppb:
                return block * ppb + p
            active[plane] = None
        if not arr._free_blocks[plane]:
            return None
        block = arr.pop_free_block(plane)
        active[plane] = block
        return block * ppb + wp[block]

    def allocate(self) -> int:
        """Next free PPN anywhere, preferring round-robin plane order.

        Raises :class:`OutOfSpaceError` when every plane is exhausted —
        by then GC has already failed to reclaim anything.
        """
        order = self._plane_order
        n = len(order)
        cursor = self._cursor
        # common case: the round-robin plane has room
        ppn = self.allocate_in_plane(order[cursor])
        if ppn is not None:
            self._cursor = (cursor + 1) % n
            return ppn
        for i in range(1, n):
            idx = (cursor + i) % n
            ppn = self.allocate_in_plane(order[idx])
            if ppn is not None:
                self._cursor = (idx + 1) % n
                return ppn
        raise OutOfSpaceError("no free page in any plane")

    def state(self) -> dict:
        """Cursor and the active block per plane (-1 = none) — the
        device-state seam, docs/architecture.md."""
        return {
            "cursor": self._cursor,
            "active": np.array(
                [-1 if b is None else b for b in self._active], np.int64
            ),
        }

    def load_state(self, s: dict) -> None:
        """Overwrite cursor and active blocks with a :meth:`state`
        snapshot (the active list keeps its identity)."""
        self._cursor = s["cursor"]
        self._active[:] = [None if b < 0 else b for b in s["active"].tolist()]

    def next_plane(self) -> int:
        """The plane the next :meth:`allocate` call will try first."""
        return self._plane_order[self._cursor]
