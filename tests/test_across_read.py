"""Across-FTL read routines: direct read and merged read (paper §3.3.2)."""

import pytest

from conftest import build_ftl


@pytest.fixture
def ftl_pair(tiny_cfg):
    return build_ftl("across", tiny_cfg)


class TestDirectRead:
    """Paper Fig. 7a: the request fits inside the across area."""

    def test_single_flash_read(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(2056, 12, 0.0, 1)  # area 2056..2068
        before = svc.counters.data_reads
        t, found = ftl.read(2060, 8, 0.0)  # within area, spans both lpns
        assert svc.counters.data_reads - before == 1  # ONE page read
        assert ftl.across_stats.direct_reads == 1
        assert all(found[s] == 1 for s in range(2060, 2068))

    def test_conventional_ftl_needs_two(self, tiny_cfg):
        """The comparison the paper makes: same read costs two flash
        reads under the baseline scheme."""
        svc, ftl = build_ftl("ftl", tiny_cfg)
        ftl.write(2056, 12, 0.0, 1)
        before = svc.counters.data_reads
        ftl.read(2060, 8, 0.0)
        assert svc.counters.data_reads - before == 2

    def test_read_subset_one_side(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(2056, 12, 0.0, 1)
        before = svc.counters.data_reads
        _, found = ftl.read(2056, 4, 0.0)  # only the lpn-128 part
        assert svc.counters.data_reads - before == 1
        assert len(found) == 4

    def test_exact_area_read(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(2056, 12, 0.0, 1)
        _, found = ftl.read(2056, 12, 0.0)
        assert ftl.across_stats.direct_reads == 1
        assert len(found) == 12


class TestMergedRead:
    """Paper Fig. 7b: the request exceeds the across area."""

    def test_reads_area_and_normal_pages(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(2048, 16, 0.0, 1)
        ftl.write(2064, 16, 0.0, 2)
        ftl.write(2056, 12, 0.0, 3)  # area
        before = svc.counters.data_reads
        _, found = ftl.read(2052, 20, 0.0)  # 2052..2072 exceeds the area
        # needs: area page + both normal pages
        assert svc.counters.data_reads - before == 3
        assert ftl.across_stats.merged_read_requests == 1
        assert svc.counters.merged_reads == 2
        for s in range(2052, 2056):
            assert found[s] == 1
        for s in range(2056, 2068):
            assert found[s] == 3
        for s in range(2068, 2072):
            assert found[s] == 2

    def test_merged_read_counter_only_for_area_requests(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(0, 32, 0.0, 1)
        ftl.read(8, 16, 0.0)  # across-page read, but no area involved
        assert ftl.across_stats.merged_read_requests == 0
        assert svc.counters.merged_reads == 0

    def test_read_beyond_written(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(2056, 12, 0.0, 1)
        _, found = ftl.read(2048, 32, 0.0)
        # only the area's sectors exist
        assert set(found) == set(range(2056, 2068))
        assert ftl.across_stats.direct_reads == 1  # no normal page read


class TestReadAfterUpdates:
    def test_read_after_amerge(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(2056, 12, 0.0, 1)
        ftl.write(2060, 12, 0.0, 2)
        before = svc.counters.data_reads
        _, found = ftl.read(2056, 16, 0.0)
        assert svc.counters.data_reads - before == 1  # still one page
        assert found[2056] == 1 and found[2071] == 2

    def test_read_after_rollback(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(2056, 12, 0.0, 1)
        ftl.write(2060, 16, 0.0, 2)  # rollback
        before = svc.counters.data_reads
        _, found = ftl.read(2056, 20, 0.0)
        assert svc.counters.data_reads - before == 2  # two normal pages
        assert ftl.across_stats.direct_reads == 0

    def test_unwritten_read_zero_cost(self, ftl_pair):
        svc, ftl = ftl_pair
        t, found = ftl.read(4096, 32, 7.0)
        assert t == 7.0 and found == {}


class TestReadLatency:
    def test_direct_read_latency_one_page(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(2056, 12, 0.0)
        t, _ = ftl.read(2058, 8, 100.0)
        assert t == pytest.approx(100.075)

    def test_parallel_page_reads(self, ftl_pair):
        svc, ftl = ftl_pair
        # two pages land on different planes/chips thanks to RR allocation
        ftl.write(2048, 32, 0.0, 1)
        t, _ = ftl.read(2048, 32, 100.0)
        assert t == pytest.approx(100.075)  # overlapped, not serialized
