"""Dynamic page allocation (repro.ftl.allocator)."""

import pytest

from repro.config import SSDConfig
from repro.errors import OutOfSpaceError
from repro.flash.service import FlashService
from repro.ftl.allocator import WriteAllocator
from repro.ftl.meta import KIND_DATA


@pytest.fixture
def setup():
    svc = FlashService(SSDConfig.tiny())
    return svc, WriteAllocator(svc)


class TestRoundRobin:
    def test_stripes_over_chips_first(self, setup):
        """Consecutive allocations must hit a different chip each time
        (channel-first striping) so sub-requests overlap."""
        svc, alloc = setup
        chips = []
        planes = set()
        for _ in range(svc.num_planes):
            ppn = alloc.allocate()
            svc.array.program(ppn, KIND_DATA)
            chips.append(svc.geom.chip_of_ppn(ppn))
            planes.add(svc.geom.plane_of_ppn(ppn))
        n_chips = svc.geom.num_chips
        # first num_chips allocations each land on a distinct chip
        assert sorted(chips[:n_chips]) == list(range(n_chips))
        # and a full cycle covers every plane exactly once
        assert planes == set(range(svc.num_planes))

    def test_fills_block_sequentially(self, setup):
        svc, alloc = setup
        ppns = []
        for _ in range(3):
            ppn = alloc.allocate_in_plane(0)
            svc.array.program(ppn, KIND_DATA)
            ppns.append(ppn)
        assert ppns == [ppns[0], ppns[0] + 1, ppns[0] + 2]

    def test_moves_to_next_block_when_full(self, setup):
        svc, alloc = setup
        ppb = svc.geom.pages_per_block
        first_block = None
        for i in range(ppb + 1):
            ppn = alloc.allocate_in_plane(0)
            svc.array.program(ppn, KIND_DATA)
            if i == 0:
                first_block = svc.geom.block_of_ppn(ppn)
        assert svc.geom.block_of_ppn(ppn) != first_block

    def test_next_plane_tracks_cursor(self, setup):
        svc, alloc = setup
        first = alloc.next_plane()
        ppn = alloc.allocate()
        svc.array.program(ppn, KIND_DATA)
        second = alloc.next_plane()
        assert svc.geom.plane_of_ppn(ppn) == first
        # the next target sits on a different chip (channel-first)
        assert svc.geom.chip_of_plane(second) != svc.geom.chip_of_plane(first)


class TestExhaustion:
    def test_plane_exhaustion_returns_none(self, setup):
        svc, alloc = setup
        # drain plane 0's pool entirely
        while svc.array.free_block_count(0):
            svc.array.pop_free_block(0)
        assert alloc.allocate_in_plane(0) is None

    def test_allocate_skips_exhausted_plane(self, setup):
        svc, alloc = setup
        while svc.array.free_block_count(0):
            svc.array.pop_free_block(0)
        ppn = alloc.allocate()
        assert svc.geom.plane_of_ppn(ppn) != 0

    def test_total_exhaustion_raises(self, setup):
        svc, alloc = setup
        for plane in range(svc.num_planes):
            while svc.array.free_block_count(plane):
                svc.array.pop_free_block(plane)
        with pytest.raises(OutOfSpaceError):
            alloc.allocate()


class TestActiveBlocks:
    def test_active_tracked(self, setup):
        svc, alloc = setup
        ppn = alloc.allocate_in_plane(0)
        svc.array.program(ppn, KIND_DATA)
        blk = svc.geom.block_of_ppn(ppn)
        assert alloc.active_in_plane(0) == blk

    def test_full_block_leaves_active_set(self, setup):
        svc, alloc = setup
        ppb = svc.geom.pages_per_block
        blk = None
        for _ in range(ppb):
            ppn = alloc.allocate_in_plane(0)
            svc.array.program(ppn, KIND_DATA)
            blk = svc.geom.block_of_ppn(ppn)
        # allocating once more rotates to a fresh block
        ppn = alloc.allocate_in_plane(0)
        svc.array.program(ppn, KIND_DATA)
        assert alloc.active_in_plane(0) != blk
