"""Baseline page-mapping FTL: RMW, invalidation, masks, reads."""

import pytest

from conftest import build_ftl, relocate_each_programmed_page, stamps_for


@pytest.fixture
def ftl_pair(tiny_cfg):
    return build_ftl("ftl", tiny_cfg)


class TestBasicWrite:
    def test_full_page_write_one_program(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(0, 16, 0.0, 1)
        assert svc.counters.data_writes == 1
        assert svc.counters.data_reads == 0

    def test_across_page_write_two_programs(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(8, 16, 0.0, 1)
        assert svc.counters.data_writes == 2  # the across-page penalty

    def test_multi_page_write(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(0, 48, 0.0, 1)
        assert svc.counters.data_writes == 3

    def test_sub_page_write_no_read_when_fresh(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(4, 4, 0.0, 1)
        assert svc.counters.data_writes == 1
        assert svc.counters.data_reads == 0
        assert svc.counters.update_reads == 0


class TestRMW:
    def test_partial_update_reads_old_page(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(0, 16, 0.0, 1)
        ftl.write(4, 4, 0.0, 2)
        assert svc.counters.update_reads == 1
        assert svc.counters.data_reads == 1

    def test_full_overwrite_skips_read(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(0, 16, 0.0, 1)
        ftl.write(0, 16, 0.0, 2)
        assert svc.counters.update_reads == 0

    def test_rmw_preserves_other_sectors(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(0, 16, 0.0, 1)
        ftl.write(4, 4, 0.0, 2)
        _, found = ftl.read(0, 16, 0.0)
        assert found[0] == 1 and found[3] == 1
        assert found[4] == 2 and found[7] == 2
        assert found[8] == 1 and found[15] == 1

    def test_old_page_invalidated(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(0, 16, 0.0, 1)
        old_ppn = int(ftl.pmt[0])
        ftl.write(0, 16, 0.0, 2)
        assert not svc.array.is_valid(old_ppn)
        assert int(ftl.pmt[0]) != old_ppn

    def test_rmw_disabled_ablation(self, tiny_cfg):
        svc, ftl = build_ftl("ftl", tiny_cfg, rmw_enabled=False)
        ftl.write(0, 16, 0.0, 1)
        ftl.write(4, 4, 0.0, 2)
        assert svc.counters.update_reads == 0


class TestRead:
    def test_read_unwritten_no_flash_op(self, ftl_pair):
        svc, ftl = ftl_pair
        t, found = ftl.read(0, 16, 3.0)
        assert t == 3.0
        assert found == {}
        assert svc.counters.data_reads == 0

    def test_read_one_page(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(0, 16, 0.0, 1)
        svc.counters.reads[list(svc.counters.reads)[0]]  # no-op touch
        _, found = ftl.read(2, 6, 0.0)
        assert len(found) == 6
        assert svc.counters.data_reads == 1

    def test_across_read_two_pages(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(0, 32, 0.0, 1)
        before = svc.counters.data_reads
        ftl.read(8, 16, 0.0)
        assert svc.counters.data_reads - before == 2  # across-page read cost

    def test_read_partial_written(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(0, 4, 0.0, 1)
        _, found = ftl.read(0, 16, 0.0)
        assert set(found) == {0, 1, 2, 3}


class TestMappingTable:
    def test_table_bytes_demand_allocated(self, ftl_pair):
        svc, ftl = ftl_pair
        assert ftl.mapping_table_bytes() == 0
        ftl.write(0, 16, 0.0)
        assert ftl.mapping_table_bytes() == 8
        ftl.write(8, 16, 0.0)  # touches lpn 0 and 1
        assert ftl.mapping_table_bytes() == 16

    def test_stats_keys(self, ftl_pair):
        _, ftl = ftl_pair
        s = ftl.stats()
        assert "gc_collections" in s and "pmt_cache_hits" in s

    def test_invariants_after_workload(self, ftl_pair):
        svc, ftl = ftl_pair
        for i in range(50):
            ftl.write((i * 7) % 200, 5 + (i % 20), 0.0)
        ftl.check_invariants()
        svc.array.check_invariants()

    def test_dram_accesses_counted(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(0, 16, 0.0)
        assert svc.counters.dram_accesses == 1
        ftl.read(0, 16, 0.0)
        assert svc.counters.dram_accesses == 2


class TestLatencies:
    def test_write_latency_is_program(self, ftl_pair):
        svc, ftl = ftl_pair
        t = ftl.write(0, 16, 10.0)
        assert t == pytest.approx(12.0)

    def test_rmw_serializes_read_then_program(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(0, 16, 0.0)
        t = ftl.write(4, 4, 100.0)
        assert t == pytest.approx(100.075 + 2.0)

    def test_read_latency(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(0, 16, 0.0)
        t, _ = ftl.read(0, 8, 50.0)
        assert t == pytest.approx(50.075)


class TestProgramRecordGcCheck:
    @pytest.mark.parametrize("scheme", ["ftl", "across"])
    def test_pmt_names_the_page_before_the_gc_check(self, scheme, tiny_cfg):
        """program -> PMT -> GC check: a pass that takes the block this
        program filled finds the page where the PMT says it is."""
        svc, ftl = build_ftl(scheme, tiny_cfg)
        # Across-FTL checks mid-rollback, while the area still shadows
        moved = relocate_each_programmed_page(
            ftl, "data", invariants_hold=scheme == "ftl"
        )
        versions = {}
        writes = [(0, 16), (6, 10), (3, 2), (0, 64), (30, 2), (2040, 40)]
        if scheme == "across":
            # an area over pages 0|1, then an update too wide to merge:
            # ARollback writes both pages back through this path
            writes += [(12, 8), (0, 32)]
        for v, (off, size) in enumerate(writes):
            versions.update(stamps_for(off, size, v))
            ftl.write(off, size, 0.0, v)
        assert len(moved) >= len(writes)
        assert not any(svc.array.is_valid(ppn) for ppn in moved)
        for sec, v in versions.items():
            assert ftl.read(sec, 1, 0.0)[1] == {sec: v}
        if scheme == "across":
            assert ftl.across_stats.rollbacks == 1
        ftl.check_invariants()
        svc.array.check_invariants()
