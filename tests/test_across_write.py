"""Across-FTL write routines: direct write, AMerge, ARollback (paper §3.3.1)."""

import pytest

from conftest import build_ftl


@pytest.fixture
def ftl_pair(tiny_cfg):
    return build_ftl("across", tiny_cfg)


class TestDirectWrite:
    """Paper Fig. 6 left: first across-page write creates an area."""

    def test_single_program(self, ftl_pair):
        svc, ftl = ftl_pair
        # write(1028K, 6K) with 8K pages = sectors 2056..2068
        ftl.write(2056, 12, 0.0, 1)
        assert svc.counters.data_writes == 1  # one page, not two
        assert ftl.across_stats.direct_writes == 1

    def test_amt_entry_created(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(2056, 12, 0.0)
        assert len(ftl.amt) == 1
        entry = next(ftl.amt.entries())
        assert entry.start == 2056 and entry.size == 12
        assert entry.lpns == (128, 129)

    def test_aidx_set_on_both_lpns(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(2056, 12, 0.0)
        entry = next(ftl.amt.entries())
        assert ftl.aidx[128] == entry.aidx
        assert ftl.aidx[129] == entry.aidx

    def test_shadowing_of_normal_pages(self, ftl_pair):
        svc, ftl = ftl_pair
        # pre-existing normal data on both pages
        ftl.write(2048, 16, 0.0, 1)
        ftl.write(2064, 16, 0.0, 2)
        ftl.write(2056, 12, 0.0, 3)
        # PMT masks exclude the shadowed sectors
        assert int(ftl.pmt_mask[128]) & 0xFF00 == 0
        assert int(ftl.pmt_mask[129]) & 0x000F == 0
        _, found = ftl.read(2048, 32, 0.0)
        for s in range(2048, 2056):
            assert found[s] == 1
        for s in range(2056, 2068):
            assert found[s] == 3
        for s in range(2068, 2080):
            assert found[s] == 2

    def test_fully_shadowed_page_invalidated(self, ftl_pair):
        svc, ftl = ftl_pair
        # the only written sectors of both pages lie inside the area
        ftl.write(2060, 4, 0.0, 1)   # tail of lpn 128
        ftl.write(2064, 2, 0.0, 2)   # head of lpn 129
        ftl.write(2058, 10, 0.0, 3)  # across, covers both
        assert ftl.pmt[128] == -1 and ftl.pmt[129] == -1
        _, found = ftl.read(2058, 10, 0.0)
        assert all(v == 3 for v in found.values())

    def test_invariants(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(2056, 12, 0.0)
        ftl.check_invariants()


class TestAMerge:
    """Paper Fig. 6 middle: overlapping update, union fits a page."""

    def test_profitable_amerge(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(2056, 12, 0.0, 1)  # area 2056..2068
        # across update 2060..2072: union 2056..2072 = 16 <= spp
        ftl.write(2060, 12, 0.0, 2)
        assert ftl.across_stats.profitable_amerge == 1
        assert ftl.across_stats.rollbacks == 0
        entry = next(ftl.amt.entries())
        assert entry.start == 2056 and entry.size == 16

    def test_amerge_data_correct(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(2056, 12, 0.0, 1)
        ftl.write(2060, 12, 0.0, 2)
        _, found = ftl.read(2056, 16, 0.0)
        for s in range(2056, 2060):
            assert found[s] == 1
        for s in range(2060, 2072):
            assert found[s] == 2

    def test_amerge_reads_old_area_once(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(2056, 12, 0.0)
        before = svc.counters.data_reads
        ftl.write(2060, 12, 0.0)
        assert svc.counters.data_reads - before == 1

    def test_contained_overwrite_no_read(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(2056, 12, 0.0, 1)
        before = svc.counters.data_reads
        # full overwrite of the area: nothing old needs reading
        ftl.write(2056, 12, 0.0, 2)
        assert svc.counters.data_reads - before == 0
        assert ftl.across_stats.profitable_amerge == 1

    def test_old_area_page_invalidated(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(2056, 12, 0.0)
        old_appn = next(ftl.amt.entries()).appn
        ftl.write(2060, 12, 0.0)
        assert not svc.array.is_valid(old_appn)
        assert next(ftl.amt.entries()).appn != old_appn

    def test_unprofitable_amerge(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(2056, 12, 0.0, 1)
        # non-across sub-page update overlapping the area's lpn-128 part
        ftl.write(2058, 4, 0.0, 2)
        assert ftl.across_stats.unprofitable_amerge == 1
        _, found = ftl.read(2056, 12, 0.0)
        assert found[2056] == 1 and found[2058] == 2 and found[2062] == 1

    def test_amerge_disabled_forces_rollback(self, tiny_cfg):
        svc, ftl = build_ftl("across", tiny_cfg, amerge_enabled=False)
        ftl.write(2056, 12, 0.0, 1)
        ftl.write(2060, 12, 0.0, 2)
        assert ftl.across_stats.profitable_amerge == 0
        assert ftl.across_stats.rollbacks == 1
        _, found = ftl.read(2056, 16, 0.0)
        assert found[2056] == 1 and found[2071] == 2

    def test_invariants_after_merge(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(2056, 12, 0.0)
        ftl.write(2060, 12, 0.0)
        ftl.check_invariants()


class TestARollback:
    """Paper Fig. 6 right: union exceeds a page -> fold back to normal."""

    def test_rollback_triggered(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(2056, 12, 0.0, 1)  # area 2056..2068
        # across update 2060..2076: union 2056..2076 = 20 > 16 -> rollback
        ftl.write(2060, 16, 0.0, 2)
        assert ftl.across_stats.rollbacks == 1
        assert len(ftl.amt) == 0
        assert ftl.aidx[128] == -1 and ftl.aidx[129] == -1

    def test_rollback_data_correct(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(2048, 16, 0.0, 1)  # normal lpn 128
        ftl.write(2056, 12, 0.0, 2)  # area
        ftl.write(2060, 16, 0.0, 3)  # rollback trigger
        _, found = ftl.read(2048, 32, 0.0)
        for s in range(2048, 2056):
            assert found[s] == 1, s
        for s in range(2056, 2060):
            assert found[s] == 2, s
        for s in range(2060, 2076):
            assert found[s] == 3, s

    def test_rollback_writes_both_pages_normally(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(2056, 12, 0.0)
        before = svc.counters.data_writes
        ftl.write(2060, 16, 0.0)
        assert svc.counters.data_writes - before == 2  # one per LPN
        assert svc.array.is_valid(int(ftl.pmt[128]))
        assert svc.array.is_valid(int(ftl.pmt[129]))

    def test_rollback_from_single_page_update(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(2062, 4, 0.0, 1)  # area 2062..2066
        # full-page write over lpn 128: union spans the whole page 128
        # plus the area's tail in 129 -> exceeds one page -> rollback
        ftl.write(2048, 16, 0.0, 2)
        assert ftl.across_stats.rollbacks == 1
        _, found = ftl.read(2048, 32, 0.0)
        for s in range(2048, 2064):
            assert found[s] == 2, s
        for s in range(2064, 2066):
            assert found[s] == 1, s

    def test_conflicting_neighbor_area_rolled_back(self, ftl_pair):
        svc, ftl = ftl_pair
        # area A on lpns (128, 129)
        ftl.write(2056, 12, 0.0, 1)
        # new across write on lpns (129, 130): conflicts with A via 129
        ftl.write(2072, 12, 0.0, 2)
        assert ftl.across_stats.rollbacks == 1       # A rolled back
        assert ftl.across_stats.direct_writes == 2   # new area created
        assert len(ftl.amt) == 1
        entry = next(ftl.amt.entries())
        assert entry.lpns == (129, 130)
        _, found = ftl.read(2056, 28, 0.0)
        for s in range(2056, 2068):
            assert found[s] == 1, s
        for s in range(2072, 2084):
            assert found[s] == 2, s

    def test_invariants_after_rollback(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(2056, 12, 0.0)
        ftl.write(2060, 16, 0.0)
        ftl.check_invariants()


class TestNonAcrossPaths:
    def test_aligned_write_untouched_by_across_logic(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(0, 16, 0.0, 1)
        assert ftl.across_stats.across_writes == 0
        assert len(ftl.amt) == 0

    def test_non_overlapping_update_keeps_area(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(2060, 6, 0.0, 1)  # area 2060..2066
        # sub-page write on lpn 128 NOT overlapping the area
        ftl.write(2048, 4, 0.0, 2)
        assert len(ftl.amt) == 1  # area survives
        assert ftl.across_stats.unprofitable_amerge == 0
        _, found = ftl.read(2048, 20, 0.0)
        assert found[2048] == 2 and found[2060] == 1

    def test_large_write_over_area_rolls_back(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(2060, 6, 0.0, 1)
        # 3-page aligned write covering both lpns of the area
        ftl.write(2048, 48, 0.0, 2)
        assert len(ftl.amt) == 0
        _, found = ftl.read(2048, 48, 0.0)
        assert all(v == 2 for v in found.values())

    def test_mapping_table_grows_with_amt(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(0, 16, 0.0)
        base = ftl.mapping_table_bytes()
        ftl.write(2056, 12, 0.0)
        assert ftl.mapping_table_bytes() > base


class TestStats:
    def test_rollback_ratio(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(2056, 12, 0.0)
        ftl.write(2060, 16, 0.0)  # rollback
        s = ftl.stats()
        assert s["across_rollbacks"] == 1
        assert s["across_rollback_ratio"] == pytest.approx(1.0)

    def test_distribution(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(2056, 12, 0.0)
        ftl.write(2056, 12, 0.0)  # profitable amerge
        ftl.write(2058, 2, 0.0)   # unprofitable amerge
        d = ftl.across_stats.distribution()
        assert d["direct"] == pytest.approx(1 / 3)
        assert d["profitable"] == pytest.approx(1 / 3)
        assert d["unprofitable"] == pytest.approx(1 / 3)
