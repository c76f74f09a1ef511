"""DRAM data cache (repro.cache.buffer)."""

import pytest

from repro.cache.buffer import DataCache
from conftest import stamps_for


@pytest.fixture
def cache():
    return DataCache(capacity_pages=4, spp=16)


class TestPutAndHit:
    def test_full_hit_after_put(self, cache):
        cache.put(0, 16, 1)
        assert cache.full_hit(0, 16)
        assert cache.full_hit(4, 8)

    def test_miss_when_uncached(self, cache):
        assert not cache.full_hit(0, 4)

    def test_partial_coverage_is_miss(self, cache):
        cache.put(0, 8, 1)
        assert not cache.full_hit(0, 16)
        assert cache.full_hit(0, 8)

    def test_across_page_extent(self, cache):
        cache.put(8, 16, 1)
        assert cache.full_hit(8, 16)
        assert cache.full_hit(12, 8)
        assert not cache.full_hit(0, 8)

    def test_stamps_returned(self, cache):
        cache.put(0, 16, 7)
        got = cache.get_stamps(4, 4)
        assert got == {4: 7, 5: 7, 6: 7, 7: 7}

    def test_newer_write_overwrites_stamps(self, cache):
        cache.put(0, 16, 1)
        cache.put(4, 4, 2)
        got = cache.get_stamps(0, 16)
        assert got[4] == 2 and got[0] == 1

    def test_none_stamps_supported(self, cache):
        cache.put(0, 16, None)
        assert cache.full_hit(0, 16)
        assert cache.get_stamps(0, 16) == {}


class TestEviction:
    def test_lru_eviction(self, cache):
        for lpn in range(5):  # capacity 4
            cache.put(lpn * 16, 16, None)
        assert not cache.full_hit(0, 16)   # LPN 0 evicted
        assert cache.full_hit(4 * 16, 16)

    def test_touch_refreshes_lru(self, cache):
        for lpn in range(4):
            cache.put(lpn * 16, 16, None)
        cache.get_stamps(0, 16)      # touch LPN 0
        cache.put(4 * 16, 16, None)  # evicts LPN 1, not 0
        assert cache.full_hit(0, 16)
        assert not cache.full_hit(16, 16)

    def test_read_hit_refreshes_lru(self, cache):
        """A full_hit read served from DRAM must keep its pages hot even
        when the oracle is off (get_stamps never runs then); previously
        hot read-only pages were evicted as if cold."""
        for lpn in range(4):
            cache.put(lpn * 16, 16, None)
        assert cache.full_hit(0, 16)     # DRAM read hit, no get_stamps
        cache.put(4 * 16, 16, None)      # evicts LPN 1, not the hot LPN 0
        assert cache.full_hit(0, 16)
        assert not cache.full_hit(16, 16)

    def test_repeated_read_only_reuse_survives_streaming(self, cache):
        """Read-only reuse: a page that is read on every step must
        survive a stream of one-shot fills overflowing the cache."""
        cache.put(0, 16, None)
        for lpn in range(1, 12):
            assert cache.full_hit(0, 16)          # hot read-only page
            cache.put(lpn * 16, 16, None)         # streaming fill
        assert cache.full_hit(0, 16)

    def test_eviction_counted(self, cache):
        for lpn in range(6):
            cache.put(lpn * 16, 16, None)
        assert cache.evictions == 2
        assert len(cache) == 4


class TestPutFound:
    """Read-allocation caches only sectors the flash read returned.

    Regression: ``put_found`` marked the *whole requested extent*
    cached, inventing DRAM copies of unwritten/trimmed sectors — a
    later read of such an extent then "hit" and skipped flash.
    """

    def test_unreturned_sectors_stay_uncached(self, cache):
        # the read asked for [0, 16) but flash only held [0, 8)
        cache.put_found(0, 16, stamps_for(0, 8, 1))
        assert not cache.full_hit(0, 16)
        assert cache.full_hit(0, 8)

    def test_empty_result_caches_nothing(self, cache):
        cache.put_found(0, 16, {})
        assert len(cache) == 0
        assert not cache.full_hit(0, 16)

    def test_none_falls_back_to_full_extent(self, cache):
        # payload tracking off: the service path reports nothing about
        # per-sector validity, so the legacy allocation is kept
        cache.put_found(0, 16, None)
        assert cache.full_hit(0, 16)

    def test_sparse_result_caches_each_run(self, cache):
        found = {**stamps_for(2, 3, 1), **stamps_for(10, 4, 2)}
        cache.put_found(0, 16, found)
        assert cache.full_hit(2, 3)
        assert cache.full_hit(10, 4)
        assert not cache.full_hit(5, 5)   # the gap stays uncached
        assert cache.get_stamps(2, 3) == stamps_for(2, 3, 1)

    def test_out_of_extent_sectors_ignored(self, cache):
        found = stamps_for(0, 32, 1)  # wider than the request
        cache.put_found(8, 8, found)
        assert cache.full_hit(8, 8)
        assert not cache.full_hit(0, 8)
        assert not cache.full_hit(16, 8)


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        DataCache(0, 16)
