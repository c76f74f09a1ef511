"""Long-running Across-FTL interaction sequences: chains of merges,
rollbacks, re-creation, interleavings with normal traffic — the states
a single-step test cannot reach."""

import pytest

from conftest import build_ftl


@pytest.fixture
def ftl_pair(tiny_cfg):
    return build_ftl("across", tiny_cfg)


class TestMergeChains:
    def test_repeated_overwrites_keep_one_area(self, ftl_pair):
        svc, ftl = ftl_pair
        for v in range(20):
            ftl.write(2056, 12, 0.0, v)
        assert len(ftl.amt) == 1
        assert ftl.amt.total_created == 1
        assert ftl.across_stats.profitable_amerge == 19
        _, found = ftl.read(2056, 12, 0.0)
        assert all(v == 19 for v in found.values())
        ftl.check_invariants()

    def test_growing_merge_chain_until_rollback(self, ftl_pair):
        svc, ftl = ftl_pair
        # area starts tiny at the boundary and grows by one sector per
        # write until the union no longer fits one page
        ftl.write(2063, 2, 0.0, 0)
        merges = 0
        v = 1
        lo, hi = 2063, 2065
        while len(ftl.amt) == 1 and v < 20:
            lo -= 1
            hi += 1
            ftl.write(lo, hi - lo, 0.0, v)
            v += 1
        assert ftl.across_stats.rollbacks == 1  # eventually exceeded
        _, found = ftl.read(lo, hi - lo, 0.0)
        assert all(val == v - 1 for val in found.values())
        ftl.check_invariants()

    def test_edge_union_exactly_one_page_merges(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(2056, 12, 0.0, 1)
        # union 2054..2070 is exactly 16 sectors: still an AMerge
        ftl.write(2054, 16, 0.0, 2)
        assert len(ftl.amt) == 1
        assert ftl.across_stats.profitable_amerge == 1
        entry = next(ftl.amt.entries())
        assert (entry.start, entry.size) == (2054, 16)

    def test_area_recreated_after_rollback(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(2056, 12, 0.0, 1)
        ftl.write(2060, 16, 0.0, 2)  # union 20 > 16
        assert len(ftl.amt) == 0
        assert ftl.across_stats.rollbacks == 1
        ftl.write(2058, 8, 0.0, 3)    # fresh area
        assert len(ftl.amt) == 1
        assert ftl.amt.total_created == 2
        _, found = ftl.read(2056, 20, 0.0)
        for s in range(2056, 2058):
            assert found[s] == 1
        for s in range(2058, 2066):
            assert found[s] == 3
        for s in range(2066, 2076):
            assert found[s] == 2
        ftl.check_invariants()


class TestManyAreas:
    def test_disjoint_areas_coexist(self, ftl_pair):
        svc, ftl = ftl_pair
        offs = []
        for i in range(1, 30, 2):  # boundaries 2 pages apart: no conflicts
            off = i * 16 - 3
            ftl.write(off, 6, 0.0, i)
            offs.append((off, i))
        assert len(ftl.amt) == 15
        for off, v in offs:
            _, found = ftl.read(off, 6, 0.0)
            assert all(x == v for x in found.values()), off
        ftl.check_invariants()

    def test_adjacent_boundary_conflict_chain(self, ftl_pair):
        svc, ftl = ftl_pair
        # areas on (0,1), then (1,2) evicts it, then (2,3) evicts that
        ftl.write(13, 6, 0.0, 1)    # lpns (0,1)
        ftl.write(29, 6, 0.0, 2)    # lpns (1,2)
        ftl.write(45, 6, 0.0, 3)    # lpns (2,3)
        assert len(ftl.amt) == 1
        assert ftl.across_stats.rollbacks == 2
        _, found = ftl.read(13, 38, 0.0)
        assert all(found[s] == 1 for s in range(13, 19))
        assert all(found[s] == 2 for s in range(29, 35))
        assert all(found[s] == 3 for s in range(45, 51))
        ftl.check_invariants()


class TestInterleavings:
    def test_normal_traffic_around_area(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(2056, 12, 0.0, 1)
        # non-overlapping sub-page updates on both lpns of the area
        for v in range(2, 12):
            ftl.write(2048, 6, 0.0, v)
            ftl.write(2070, 8, 0.0, v + 100)
        assert len(ftl.amt) == 1  # untouched the whole time
        _, found = ftl.read(2048, 32, 0.0)
        assert all(found[s] == 11 for s in range(2048, 2054))
        assert all(found[s] == 1 for s in range(2056, 2068))
        assert all(found[s] == 111 for s in range(2070, 2078))
        ftl.check_invariants()

    def test_full_page_pair_overwrite_clears_area(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(2056, 12, 0.0, 1)
        ftl.write(2048, 32, 0.0, 2)  # both pages
        assert len(ftl.amt) == 0
        _, found = ftl.read(2048, 32, 0.0)
        assert all(v == 2 for v in found.values())
        # the across page must be physically invalid (reclaimable)
        ftl.check_invariants()
        svc.array.check_invariants()

    def test_write_size_exactly_page_at_boundary(self, ftl_pair):
        svc, ftl = ftl_pair
        # size == spp spanning two pages is still across (paper Fig. 1)
        ftl.write(2056, 16, 0.0, 5)
        assert ftl.across_stats.direct_writes == 1
        assert next(ftl.amt.entries()).size == 16
        _, found = ftl.read(2056, 16, 0.0)
        assert all(v == 5 for v in found.values())

    def test_two_sector_area_minimum(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(2063, 2, 0.0, 9)
        entry = next(ftl.amt.entries())
        assert entry.size == 2
        _, found = ftl.read(2063, 2, 0.0)
        assert found == {2063: 9, 2064: 9}


class TestStatsConsistency:
    def test_counts_add_up(self, ftl_pair):
        svc, ftl = ftl_pair
        import numpy as np

        rng = np.random.default_rng(11)
        for i in range(400):
            b = int(rng.integers(1, 200)) * 16
            left = int(rng.integers(1, 8))
            right = int(rng.integers(1, 8))
            ftl.write(b - left, left + right, 0.0)
        st = ftl.across_stats
        # every across write is exactly one of the three classes
        assert st.across_writes == (
            st.direct_writes + st.profitable_amerge + st.unprofitable_amerge
        )
        # every direct write created an area
        assert ftl.amt.total_created == st.direct_writes
        # live areas = created - rolled back (trim not used here)
        assert len(ftl.amt) == ftl.amt.total_created - st.rollbacks
        ftl.check_invariants()
