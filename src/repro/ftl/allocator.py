"""Dynamic page allocation with optional write-stream separation.

SSDsim-style dynamic allocation: logical pages have no fixed home; each
write takes the next free page of a per-plane *active block*, and
consecutive allocations round-robin across planes so a multi-page
request stripes over channels/chips and its sub-requests overlap
(paper §2.1, [16]).

GC migrations allocate in the victim's own plane (`allocate_in_plane`)
so collection never steals bandwidth or free space from other planes.
When the GC policy asks for it (``separate_streams``, set by the
``hot_cold`` policy), migrated (cold) pages also fill *separate* active
blocks from fresh user (hot) data — the classic stream separation that
keeps blocks from mixing lifetimes and lowers write amplification
(exercised by ``bench_ablation_streams``).
"""

from __future__ import annotations

import numpy as np

from ..errors import OutOfSpaceError
from ..flash.service import FlashService

#: allocation streams
STREAM_USER = 0
STREAM_GC = 1


class WriteAllocator:
    """Round-robin active-block allocator over all planes."""

    def __init__(self, service: FlashService, *, separate_streams: bool = False):
        self.service = service
        self.geom = service.geom
        #: when False, STREAM_GC shares the user stream's active blocks
        self.separate_streams = separate_streams
        n_streams = 2 if separate_streams else 1
        #: active (filling) block per [stream][plane]
        self._active: list[list[int | None]] = [
            [None] * self.geom.num_planes for _ in range(n_streams)
        ]
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
    def active_blocks(self) -> set[int]:
        """Blocks currently open for writing (GC must not pick these)."""
        return {
            b for per_plane in self._active for b in per_plane if b is not None
        }

    def is_active(self, block: int) -> bool:
        """True when ``block`` is open for writing on any stream."""
        plane = self.geom.plane_of_block(block)
        return any(per_plane[plane] == block for per_plane in self._active)

    def active_in_plane(self, plane: int) -> list[int]:
        """Active block ids of ``plane`` across all streams."""
        return [
            per_plane[plane]
            for per_plane in self._active
            if per_plane[plane] is not None
        ]

    # ------------------------------------------------------------------
    def allocate_in_plane(
        self, plane: int, stream: int = STREAM_USER
    ) -> int | None:
        """Next free PPN in ``plane``, or None if the plane is exhausted."""
        arr = self._array
        ppb = self._ppb
        wp = arr._write_ptr
        active = self._active[stream if self.separate_streams else STREAM_USER]
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

    def allocate(self, stream: int = STREAM_USER) -> int:
        """Next free PPN anywhere, preferring round-robin plane order.

        Raises :class:`OutOfSpaceError` when every plane is exhausted —
        by then GC has already failed to reclaim anything.
        """
        order = self._plane_order
        n = len(order)
        cursor = self._cursor
        # common case: the round-robin plane has room
        ppn = self.allocate_in_plane(order[cursor], stream)
        if ppn is not None:
            self._cursor = (cursor + 1) % n
            return ppn
        for i in range(1, n):
            idx = (cursor + i) % n
            ppn = self.allocate_in_plane(order[idx], stream)
            if ppn is not None:
                self._cursor = (idx + 1) % n
                return ppn
        raise OutOfSpaceError("no free page in any plane")

    def state(self) -> dict:
        """Cursor and the active block per ``[stream][plane]`` (-1 =
        none) — the device-state seam, docs/architecture.md."""
        return {
            "cursor": self._cursor,
            "active": np.array(
                [
                    [-1 if b is None else b for b in per_plane]
                    for per_plane in self._active
                ],
                np.int64,
            ),
        }

    def load_state(self, s: dict) -> None:
        """Overwrite cursor and active blocks with a :meth:`state`
        snapshot (the per-stream lists keep their identity)."""
        self._cursor = s["cursor"]
        for per_plane, row in zip(self._active, s["active"].tolist()):
            per_plane[:] = [None if b < 0 else b for b in row]

    def next_plane(self) -> int:
        """The plane the next :meth:`allocate` call will try first."""
        return self._plane_order[self._cursor]
