"""Deferral paths of GarbageCollector._drain_retirements.

A block queued on ``service.retire_pending`` must not be retired while
it is still an active write frontier or not yet fully written — it is
left queued and picked up once sealed, with its valid data (including
across-page areas) relocated intact.
"""

import numpy as np

from repro.flash.service import FlashService
from repro.ftl import make_ftl
from conftest import stamps_for


def fill_until_sealed(ftl, svc, block, *, start_lpn, ppb):
    """Write guard pages until ``block`` is fully written, stopping
    before any further allocation clears it from the active list."""
    guard = 0
    spp = ftl.spp
    while svc.array.write_ptr[block] < ppb:
        lpn = start_lpn + guard
        ftl.write(lpn * spp, spp, 0.0, 7)
        guard += 1
        assert guard < 10_000
    return start_lpn + guard


class TestFrontierDeferral:
    def test_unsealed_frontier_stays_queued(self, micro_cfg):
        svc = FlashService(micro_cfg)
        ftl = make_ftl("ftl", svc, track_payload=True)
        spp = ftl.spp
        ftl.write(0, spp, 0.0, 1)
        block = int(ftl.pmt[0]) // micro_cfg.pages_per_block
        plane = svc.geom.plane_of_block(block)
        assert ftl.allocator.active_in_plane(plane) == block
        assert svc.array.write_ptr[block] < micro_cfg.pages_per_block

        svc.retire_pending.add(block)
        ftl.gc._drain_retirements(ftl, 1.0)
        # both deferral conditions hold: nothing happens yet
        assert block in svc.retire_pending
        assert not svc.array.is_bad[block]
        assert svc.array.is_valid(int(ftl.pmt[0]))

    def test_sealed_but_still_active_stays_queued(self, micro_cfg):
        svc = FlashService(micro_cfg)
        ftl = make_ftl("ftl", svc, track_payload=True)
        spp = ftl.spp
        ppb = micro_cfg.pages_per_block
        ftl.write(0, spp, 0.0, 1)
        block = int(ftl.pmt[0]) // ppb
        plane = svc.geom.plane_of_block(block)
        fill_until_sealed(ftl, svc, block, start_lpn=10, ppb=ppb)
        # fully written, but the allocator has not moved on yet: the
        # block is cleared from the active list only by the *next*
        # allocation in its plane
        assert svc.array.write_ptr[block] == ppb
        assert ftl.allocator.active_in_plane(plane) == block

        svc.retire_pending.add(block)
        ftl.gc._drain_retirements(ftl, 1.0)
        assert block in svc.retire_pending
        assert not svc.array.is_bad[block]

    def test_retired_once_sealed_and_released(self, micro_cfg):
        svc = FlashService(micro_cfg)
        ftl = make_ftl("ftl", svc, track_payload=True)
        spp = ftl.spp
        ppb = micro_cfg.pages_per_block
        ftl.write(0, spp, 0.0, 1)
        block = int(ftl.pmt[0]) // ppb
        plane = svc.geom.plane_of_block(block)
        svc.retire_pending.add(block)
        next_lpn = fill_until_sealed(ftl, svc, block, start_lpn=10, ppb=ppb)

        # keep writing: the next allocation in this plane releases the
        # frontier, after which the per-write drain retires the block
        guard = 0
        while not svc.array.is_bad[block]:
            lpn = next_lpn + guard
            ftl.write(lpn * spp, spp, 0.0, 9)
            guard += 1
            assert guard < 10_000
        assert block not in svc.retire_pending
        assert ftl.allocator.active_in_plane(plane) != block
        assert svc.counters.bad_blocks == 1
        # every page the block held was relocated, nothing lost
        _, found = ftl.read(0, spp, 5.0)
        assert found == stamps_for(0, spp, 1)
        ftl.check_invariants()
        svc.array.check_invariants()

    def test_across_area_data_survives_deferred_retirement(self, micro_cfg):
        svc = FlashService(micro_cfg)
        ftl = make_ftl("across", svc, track_payload=True)
        spp = ftl.spp
        ppb = micro_cfg.pages_per_block
        # an across-page write: lands in an AMT-managed area page
        offset = 2 * spp + spp // 2
        size = spp // 2 + 2
        ftl.write(offset, size, 0.0, 909)
        entry = next(ftl.amt.entries())
        block = entry.appn // ppb
        plane = svc.geom.plane_of_block(block)

        svc.retire_pending.add(block)
        ftl.gc._drain_retirements(ftl, 0.5)
        assert block in svc.retire_pending  # frontier: deferred

        next_lpn = fill_until_sealed(ftl, svc, block, start_lpn=20, ppb=ppb)
        guard = 0
        while not svc.array.is_bad[block]:
            lpn = next_lpn + guard
            ftl.write(lpn * spp, spp, 0.0, 3)
            guard += 1
            assert guard < 10_000
        # the area moved off the retired block and kept every sector
        moved = next(
            e for e in ftl.amt.entries() if e.aidx == entry.aidx
        )
        assert moved.appn // ppb != block
        _, found = ftl.read(offset, size, 9.0)
        assert found == stamps_for(offset, size, 909)
        ftl.check_invariants()
        svc.array.check_invariants()

    def test_already_bad_block_dropped_from_queue(self, micro_cfg):
        svc = FlashService(micro_cfg)
        ftl = make_ftl("ftl", svc, track_payload=True)
        block = int(np.nonzero(svc.array.write_ptr == 0)[0][0])
        svc.array.is_bad[block] = True  # retired through another path
        svc.retire_pending.add(block)
        ftl.gc._drain_retirements(ftl, 1.0)
        assert block not in svc.retire_pending
