"""MRSM sub-page regional mapping FTL."""

import pytest

from repro.errors import ConfigError, MappingError
from repro.flash.service import FlashService
from repro.ftl import make_ftl
from repro.ftl.mrsm import MRSMFTL
from conftest import build_ftl, relocate_each_programmed_page, stamps_for


@pytest.fixture
def ftl_pair(tiny_cfg):
    return build_ftl("mrsm", tiny_cfg)


class TestRegionGeometry:
    def test_region_size(self, ftl_pair):
        _, ftl = ftl_pair
        assert ftl.R == 4
        assert ftl.region_sectors == 4  # 2 KiB regions on 8 KiB pages

    def test_split_regions(self, ftl_pair):
        _, ftl = ftl_pair
        # sectors 6..16: regions 1 (6..8), 2 (8..12), 3 (12..16) — the
        # first key, the last key and the sectors covered in those two
        assert ftl._span(6, 10) == (1, 3, 0b1100, 0b1111)
        # sectors 5..7 sit inside region 1: both cuts apply to it
        first, last, head, tail = ftl._span(5, 2)
        assert (first, last, head & tail) == (1, 1, 0b0110)

    @pytest.mark.parametrize("regions, typecode", [(1, "H"), (2, "B"), (16, "B")])
    def test_mask_width_follows_the_geometry(self, tiny_cfg, regions, typecode):
        ftl = MRSMFTL(FlashService(tiny_cfg), regions_per_page=regions)
        assert ftl._rmask.typecode == ftl._slot_mask.typecode == typecode
        assert ftl._rloc.typecode == "i"  # true of every preset

    def test_invalid_region_count(self, tiny_cfg):
        svc = FlashService(tiny_cfg)
        with pytest.raises(ConfigError):
            MRSMFTL(svc, regions_per_page=5)


class TestPacking:
    def test_across_page_write_single_program(self, ftl_pair):
        svc, ftl = ftl_pair
        # 12-sector across-page extent = 3 regions -> ONE program
        ftl.write(2056, 12, 0.0, 1)
        assert svc.counters.data_writes == 1

    def test_full_page_write_single_program(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(0, 16, 0.0, 1)
        assert svc.counters.data_writes == 1

    def test_large_write_multiple_pages(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(0, 32, 0.0, 1)  # 8 regions -> 2 pages
        assert svc.counters.data_writes == 2

    def test_region_aligned_update_no_rmw(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(0, 16, 0.0, 1)
        before = svc.counters.data_reads
        ftl.write(4, 8, 0.0, 2)  # region-aligned
        assert svc.counters.data_reads == before  # "overwrites directly"
        assert svc.counters.update_reads == 0

    def test_sub_region_update_rmw(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(0, 16, 0.0, 1)
        ftl.write(1, 2, 0.0, 2)  # partial region 0
        assert svc.counters.update_reads == 1
        _, found = ftl.read(0, 4, 0.0)
        assert found[0] == 1 and found[1] == 2 and found[2] == 2 and found[3] == 1


class TestSlotLiveness:
    def test_page_invalidated_when_all_slots_die(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(0, 16, 0.0, 1)
        ppn, _ = ftl.region_loc(0)
        assert svc.array.is_valid(ppn)
        ftl.write(0, 16, 0.0, 2)  # kills all 4 slots
        assert not svc.array.is_valid(ppn)

    def test_page_survives_partial_overwrite(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(0, 16, 0.0, 1)
        ppn, _ = ftl.region_loc(0)
        ftl.write(0, 4, 0.0, 2)  # kills one slot
        assert svc.array.is_valid(ppn)  # three slots still live

    def test_region_map_points_to_new_page(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(0, 16, 0.0, 1)
        old = ftl.region_loc(0)
        ftl.write(0, 4, 0.0, 2)
        assert ftl.region_loc(0) != old
        assert ftl.region_loc(1) == (old[0], 1)  # untouched region stays


class TestReads:
    def test_read_spanning_regions(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(0, 16, 0.0, 1)
        before = svc.counters.data_reads
        _, found = ftl.read(2, 10, 0.0)
        assert svc.counters.data_reads - before == 1  # one packed page
        assert len(found) == 10

    def test_read_fragmented_page_multiple_reads(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(0, 16, 0.0, 1)
        ftl.write(4, 4, 0.0, 2)  # region 1 moves
        before = svc.counters.data_reads
        _, found = ftl.read(0, 16, 0.0)
        assert svc.counters.data_reads - before == 2  # two physical pages
        assert found[0] == 1 and found[4] == 2 and found[8] == 1

    def test_read_unwritten(self, ftl_pair):
        svc, ftl = ftl_pair
        t, found = ftl.read(512, 16, 1.0)
        assert t == 1.0 and found == {}


class TestGCRelocation:
    def test_compaction_of_live_slots(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(0, 16, 0.0, 1)
        ppn, _ = ftl.region_loc(0)
        ftl.write(0, 4, 0.0, 2)   # slot 0 dead
        ftl.write(8, 4, 0.0, 3)   # slot 2 dead
        ftl._relocate(ppn, 0.0, True)
        assert not svc.array.is_valid(ppn)
        # surviving regions 1 and 3 compacted onto a new page
        new_ppn, _ = ftl.region_loc(1)
        assert ftl.region_loc(3) == (new_ppn, 1)
        _, found = ftl.read(0, 16, 0.0)
        assert found[5] == 1 and found[13] == 1 and found[0] == 2 and found[9] == 3
        ftl.check_invariants()

    def test_sustained_overwrite_under_gc(self, micro_cfg):
        svc, ftl = build_ftl("mrsm", micro_cfg)
        spp = ftl.spp
        hot = max(4, ftl.logical_pages // 8)
        for i in range(3 * svc.geom.num_pages):
            lpn = i % hot
            ftl.write(lpn * spp + (i % 3), min(spp - (i % 3), 6 + (i % 8)), 0.0,
                      None)
        assert svc.counters.erases > 0
        ftl.check_invariants()


class TestAdaptiveTable:
    def test_packed_page_one_entry(self, ftl_pair):
        _, ftl = ftl_pair
        ftl.write(0, 16, 0.0)  # 4 regions packed in order on one page
        assert ftl.mapping_table_bytes() == 8  # one plain page entry

    def test_fragmented_page_per_region_entries(self, ftl_pair):
        _, ftl = ftl_pair
        ftl.write(0, 16, 0.0)
        ftl.write(4, 4, 0.0)  # fragment
        assert ftl.mapping_table_bytes() == 4 * 16  # offset/size entries

    def test_partial_page_counts_regions(self, ftl_pair):
        _, ftl = ftl_pair
        ftl.write(0, 8, 0.0)  # two regions only
        assert ftl.mapping_table_bytes() == 2 * 16

    def test_empty_table(self, ftl_pair):
        _, ftl = ftl_pair
        assert ftl.mapping_table_bytes() == 0


class TestStats:
    def test_stats_keys(self, ftl_pair):
        _, ftl = ftl_pair
        ftl.write(0, 16, 0.0)
        s = ftl.stats()
        assert s["region_entries"] == 4
        assert "map_residency" in s

    def test_tree_touches_grow(self, ftl_pair):
        svc, ftl = ftl_pair
        t0 = ftl.tree_touches()
        for i in range(64):
            ftl.write(i * 16, 16, 0.0)
        assert ftl.tree_touches() >= t0


def region_columns(ftl):
    """The DRAM-side columns, through the device-state seam."""
    seam = ftl.state()
    return [
        seam[name].tolist()
        for name in ("region_loc", "region_mask", "ever_fragmented")
    ]


class TestColumnHazards:
    """What flat columns can get silently wrong where dicts raised or
    grew: write order against GC, the -1 sentinel as an index, empty
    and out-of-range extents."""

    def test_page_columns_are_written_before_the_gc_check(self, tiny_cfg):
        """allocate -> program -> columns -> GC: a relocation never
        meets a valid region page whose slots are unwritten."""
        svc, ftl = build_ftl("mrsm", tiny_cfg)
        moved = relocate_each_programmed_page(ftl, "region")
        versions = {}
        for v, (off, size) in enumerate(
            [(0, 16), (6, 10), (2056, 12), (3, 2), (0, 64), (30, 7), (2050, 40)]
        ):
            versions.update(stamps_for(off, size, v))
            ftl.write(off, size, 0.0, v)
        assert len(moved) >= 7
        assert not any(svc.array.is_valid(ppn) for ppn in moved)
        for sec, v in versions.items():
            assert ftl.read(sec, 1, 0.0)[1] == {sec: v}
        ftl.check_invariants()

    def test_translation_page_is_recorded_before_the_gc_check(self, tiny_cfg):
        """The same order for the map write-back: the table names the
        translation page an eviction programmed before GC can move it."""
        svc = FlashService(tiny_cfg.replace(mapping_cache_entries=512))
        ftl = make_ftl("mrsm", svc)
        moved = relocate_each_programmed_page(ftl, "map")
        rs = ftl.region_sectors
        epp = ftl._cache.entries_per_page
        for i in range(12):  # one region in each of three translation pages
            ftl.write((i % 3) * epp * rs, rs, 0.0)
        assert ftl._cache.evictions > 0 and moved
        assert not any(svc.array.is_valid(ppn) for ppn in moved)
        ftl.check_invariants()
        svc.array.check_invariants()

    def test_unmapped_sentinel_is_never_an_index(self, ftl_pair):
        """A region whose mask says "live" while its slot location is -1
        is a bookkeeping error to report — page -1 // R would index the
        last page of the device without complaint."""
        svc, ftl = ftl_pair
        last_ppn = svc.geom.num_pages - 1
        ftl.write(0, 16, 0.0, 1)
        ftl.region_masks[40] = 0b0110  # corrupt: mask without a slot
        reads = svc.array.total_page_reads
        with pytest.raises(MappingError, match="no slot"):
            ftl.read(160, 4, 0.0)
        with pytest.raises(MappingError, match="no slot"):
            ftl.write(160, 1, 0.0, 2)  # RMW lookup
        with pytest.raises(MappingError, match="bookkeeping"):
            ftl.write(160, 4, 0.0, 2)  # slot kill
        with pytest.raises(MappingError, match="bookkeeping"):
            ftl.trim(160, 4, 0.0)
        assert svc.array.total_page_reads == reads
        assert not svc.array.is_valid(last_ppn)
        with pytest.raises(MappingError):
            ftl.check_invariants()
        assert ftl.region_loc(40) is None and ftl.region_loc(0) is not None

    @pytest.mark.parametrize("offset", [0, 5, 16, 163])
    def test_zero_length_requests_are_no_ops(self, ftl_pair, offset):
        svc, ftl = ftl_pair
        ftl.write(160, 8, 0.0, 1)
        before = region_columns(ftl)
        programs, dram = svc.array.total_programs, svc.counters.dram_accesses
        assert ftl.write(offset, 0, 3.0, 2) == 3.0
        assert ftl.read(offset, 0, 3.0) == (3.0, {})
        # a TRIM is one DRAM-speed metadata operation whatever it covers
        assert ftl.trim(offset, 0, 3.0) == 3.0 + ftl.cfg.timing.cache_access_ms
        assert region_columns(ftl) == before
        assert svc.array.total_programs == programs
        assert svc.counters.dram_accesses == dram + 1
        assert ftl._cache.hits + ftl._cache.misses == 2  # the set-up write
        ftl.check_invariants()

    @pytest.mark.parametrize(
        "offset, size", [(-1, 2), (-16, 16), (None, 1), (-2, 4), (-6, 100)]
    )
    def test_extent_outside_the_logical_space(self, ftl_pair, offset, size):
        """With dicts an out-of-range key silently grew the table; with
        columns it must neither raise IndexError nor wrap around."""
        svc, ftl = ftl_pair
        limit = ftl.logical_pages * ftl.spp
        if offset is None:
            offset = limit  # first sector past the end
        elif offset in (-2, -6):
            offset += limit  # straddles the end
        ftl.write(limit - 16, 16, 0.0, 1)
        before = region_columns(ftl)
        for request in (
            lambda: ftl.write(offset, size, 1.0, 2),
            lambda: ftl.read(offset, size, 1.0),
            lambda: ftl.trim(offset, size, 1.0),
        ):
            with pytest.raises(MappingError, match="outside logical space"):
                request()
        assert region_columns(ftl) == before
        assert ftl.read(limit - 16, 16, 2.0)[1] == stamps_for(limit - 16, 16, 1)
        ftl.check_invariants()
