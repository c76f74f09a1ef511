"""Greedy garbage collection, exercised through the baseline FTL."""

import pytest

from repro.flash.service import FlashService
from repro.ftl.meta import KIND_DATA
from repro.ftl.pagemap import PageMapFTL


@pytest.fixture
def setup(micro_cfg):
    svc = FlashService(micro_cfg)
    ftl = PageMapFTL(svc)
    return svc, ftl


def fill_device(ftl, svc, fraction=0.8, start_lpn=0):
    """Write full pages until `fraction` of physical pages programmed."""
    spp = ftl.spp
    target = int(svc.geom.num_pages * fraction)
    lpn = start_lpn
    writes = 0
    while svc.counters.total_writes < target:
        ftl.write((lpn % ftl.logical_pages) * spp, spp, 0.0)
        lpn += 1
        writes += 1
    return writes


class TestVictimSelection:
    def test_no_full_blocks_no_victim(self, setup):
        svc, ftl = setup
        ftl.write(0, ftl.spp, 0.0)
        assert ftl.gc.select_victim(0) is None

    def test_prefers_fewest_valid(self, setup):
        svc, ftl = setup
        spp = ftl.spp
        ppb = svc.geom.pages_per_block
        # fill two blocks in plane 0 via direct allocation
        for i in range(2 * ppb):
            ppn = ftl.allocator.allocate_in_plane(0)
            svc.array.program(ppn, KIND_DATA, i)
            ftl.pmt[i] = ppn
            ftl.pmt_mask[i] = (1 << spp) - 1
        b0 = svc.geom.block_of_ppn(ftl.pmt[0])
        # invalidate most of block b0
        for i in range(ppb - 1):
            svc.array.invalidate(int(ftl.pmt[i]))
            ftl.pmt[i] = -1
            ftl.pmt_mask[i] = 0
        assert ftl.gc.select_victim(0) == b0

    def test_skips_fully_valid(self, setup):
        svc, ftl = setup
        spp = ftl.spp
        ppb = svc.geom.pages_per_block
        for i in range(ppb):
            ppn = ftl.allocator.allocate_in_plane(0)
            svc.array.program(ppn, KIND_DATA, i)
            ftl.pmt[i] = ppn
            ftl.pmt_mask[i] = (1 << spp) - 1
        # the only full block is entirely valid: no reclaimable space
        assert ftl.gc.select_victim(0) is None


class TestCollection:
    def test_gc_triggers_under_pressure(self, setup):
        svc, ftl = setup
        fill_device(ftl, svc, fraction=0.95)
        assert ftl.gc.collections > 0
        assert svc.counters.erases > 0

    def test_device_survives_sustained_overwrite(self, setup):
        svc, ftl = setup
        spp = ftl.spp
        hot = ftl.logical_pages // 4
        for i in range(3 * svc.geom.num_pages):
            ftl.write((i % hot) * spp, spp, 0.0)
        # the flash never deadlocks and mappings stay consistent
        ftl.check_invariants()
        svc.array.check_invariants()

    def test_gc_preserves_data(self, micro_cfg):
        svc = FlashService(micro_cfg)
        ftl = PageMapFTL(svc, track_payload=True)
        spp = ftl.spp
        hot = max(4, ftl.logical_pages // 8)
        version = {}
        v = 0
        for i in range(3 * svc.geom.num_pages):
            lpn = i % hot
            v += 1
            version[lpn] = v
            ftl.write(lpn * spp, spp, 0.0, v)
        assert svc.counters.erases > 0
        for lpn, expect in version.items():
            _, found = ftl.read(lpn * spp, spp, 0.0)
            assert all(
                found[s] == expect for s in range(lpn * spp, (lpn + 1) * spp)
            )

    def test_migrated_pages_counted(self, setup):
        svc, ftl = setup
        spp = ftl.spp
        hot = ftl.logical_pages // 4
        for i in range(3 * svc.geom.num_pages):
            ftl.write((i % hot) * spp, spp, 0.0)
        # greedy selection under uniform overwrite finds mostly-invalid
        # victims, so migration stays well below one device's worth
        assert 0 <= ftl.gc.migrated_pages < svc.geom.num_pages

    def test_restore_hysteresis(self, setup):
        svc, ftl = setup
        fill_device(ftl, svc, fraction=0.95)
        # after GC ran, every plane should be at or above the trigger
        # threshold (restore may not be reachable on a tiny device)
        fractions = [svc.free_fraction(p) for p in range(svc.num_planes)]
        assert all(f >= 0.0 for f in fractions)
        assert ftl.gc.collections > 0


class TestStallRule:
    def test_an_erased_victim_is_progress(self, setup):
        """The victim's valid pages overflow the active block, so
        migration opens a fresh block while the erase frees one: the
        plane's free count stays where it was, yet the pass reclaimed
        its victim.  That is not a stall; the loop goes on to a second
        victim, which restores the plane."""
        svc, ftl = setup
        arr = svc.array
        spp = ftl.spp
        ppb = svc.geom.pages_per_block
        bpp = svc.geom.blocks_per_plane
        # plane 0: every block but one taken, the last active block one
        # page short of full
        ppns = []
        for lpn in range((bpp - 1) * ppb - 1):
            ppn = ftl.allocator.allocate_in_plane(0)
            arr.program(ppn, KIND_DATA, lpn)
            ftl.pmt[lpn] = ppn
            ftl.pmt_mask[lpn] = (1 << spp) - 1
            ppns.append(ppn)
        # the first two blocks keep two valid pages each
        for lpn in [*range(2, ppb), *range(ppb + 2, 2 * ppb)]:
            arr.invalidate(ppns[lpn])
            ftl.pmt[lpn] = -1
            ftl.pmt_mask[lpn] = 0
        active = svc.geom.block_of_ppn(ppns[-1])
        victim = svc.geom.block_of_ppn(ppns[0])
        assert ppb - int(arr.write_ptr[active]) < int(arr.valid_count[victim])
        assert arr.free_block_count(0) == 1

        ftl.gc.maybe_collect(ftl, 0, 0.0)

        assert ftl.gc.collections == 2
        assert ftl.gc.stalls == 0 and svc.counters.gc_stalls == 0
        assert arr.free_block_count(0) == 2
        ftl.check_invariants()
        arr.check_invariants()


class TestGCReentrancy:
    def test_no_recursive_collection(self, setup):
        svc, ftl = setup
        # _collecting guard: calling maybe_collect inside itself is a no-op
        ftl.gc._collecting = True
        t = ftl.gc.maybe_collect(ftl, 0, 5.0)
        assert t == 5.0
        ftl.gc._collecting = False
