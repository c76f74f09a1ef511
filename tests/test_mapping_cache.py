"""DRAM mapping cache and translation-page traffic (repro.ftl.mapping_cache)."""

import pytest

from repro.config import SSDConfig
from repro.flash.service import FlashService
from repro.ftl.mapping_cache import MappingCache


class Harness:
    """Stands in for the owning FTL: records translation-page I/O."""

    def __init__(self, svc):
        self.svc = svc
        self.programs: list[int] = []
        self.reads: list[int] = []
        self.touches = 1

    def program_map_page(self, table_id, tvpn, now, timed):
        self.programs.append(tvpn)
        return now + 2.0

    def read_map_page(self, table_id, tvpn, now, timed):
        self.reads.append(tvpn)
        return now + 0.075

    def tree_touches(self):
        return self.touches


@pytest.fixture
def harness():
    svc = FlashService(SSDConfig.tiny())
    return svc, Harness(svc)


def make_cache(svc, h, capacity_entries, epp=4, tree=False):
    return MappingCache(
        svc,
        entries_per_page=epp,
        capacity_entries=capacity_entries,
        tree=tree,
    )


class TestUnlimited:
    def test_never_misses(self, harness):
        svc, h = harness
        c = make_cache(svc, h, None)
        for k in range(100):
            assert c.access(h, k, 1.0, dirty=True) == 1.0
        assert c.misses == 0
        assert not h.programs and not h.reads

    def test_counts_dram(self, harness):
        svc, h = harness
        c = make_cache(svc, h, None)
        c.access(h, 0, 0.0, dirty=False)
        assert svc.counters.dram_accesses == 1

    def test_residency_one(self, harness):
        svc, h = harness
        c = make_cache(svc, h, None)
        assert c.residency(10_000) == 1.0


class TestLimited:
    def test_hit_after_insert(self, harness):
        svc, h = harness
        c = make_cache(svc, h, capacity_entries=8)  # 2 pages of 4 entries
        c.access(h, 0, 0.0, dirty=False)
        c.access(h, 1, 0.0, dirty=False)  # same tvpn
        assert c.hits == 1 and c.misses == 1

    def test_cold_miss_reads_nothing(self, harness):
        svc, h = harness
        c = make_cache(svc, h, capacity_entries=8)
        t = c.access(h, 0, 1.0, dirty=False)
        assert t == 1.0  # no flash copy yet: nothing to fetch
        assert not h.reads

    def test_dirty_eviction_writes_back(self, harness):
        svc, h = harness
        c = make_cache(svc, h, capacity_entries=8)
        c.access(h, 0, 0.0, dirty=True)   # tvpn 0 dirty
        c.access(h, 4, 0.0, dirty=False)  # tvpn 1
        c.access(h, 8, 0.0, dirty=False)  # tvpn 2 -> evict tvpn 0
        assert h.programs == [0]
        assert c.evictions == 1

    def test_clean_eviction_free(self, harness):
        svc, h = harness
        c = make_cache(svc, h, capacity_entries=8)
        c.access(h, 0, 0.0, dirty=False)
        c.access(h, 4, 0.0, dirty=False)
        c.access(h, 8, 0.0, dirty=False)
        assert not h.programs

    def test_miss_after_eviction_fetches(self, harness):
        svc, h = harness
        c = make_cache(svc, h, capacity_entries=8)
        c.access(h, 0, 0.0, dirty=True)
        c.access(h, 4, 0.0, dirty=False)
        c.access(h, 8, 0.0, dirty=False)  # evicts dirty tvpn 0 -> on flash
        t = c.access(h, 0, 5.0, dirty=False)  # read lookup: blocks
        assert h.reads == [0]
        assert t == pytest.approx(5.075)

    def test_write_lookup_miss_does_not_block(self, harness):
        svc, h = harness
        c = make_cache(svc, h, capacity_entries=8)
        c.access(h, 0, 0.0, dirty=True)
        c.access(h, 4, 0.0, dirty=False)
        c.access(h, 8, 0.0, dirty=False)  # evict tvpn 0
        t = c.access(h, 0, 5.0, dirty=True)  # dirty (write) lookup: async
        assert h.reads == [0]  # fetch still happens (occupies chip)
        assert t == 5.0        # ... but does not gate the request

    def test_lru_order(self, harness):
        svc, h = harness
        c = make_cache(svc, h, capacity_entries=8)
        c.access(h, 0, 0.0, dirty=True)   # tvpn 0
        c.access(h, 4, 0.0, dirty=True)   # tvpn 1
        c.access(h, 0, 0.0, dirty=False)  # touch tvpn 0 (now MRU)
        c.access(h, 8, 0.0, dirty=False)  # evicts tvpn 1, not 0
        assert h.programs == [1]

    def test_dirty_bit_sticky_until_writeback(self, harness):
        svc, h = harness
        c = make_cache(svc, h, capacity_entries=8)
        c.access(h, 0, 0.0, dirty=True)
        c.access(h, 1, 0.0, dirty=False)  # clean access must not clear dirty
        c.access(h, 4, 0.0, dirty=False)
        c.access(h, 8, 0.0, dirty=False)  # eviction of tvpn 0
        assert h.programs == [0]


class TestFlush:
    def test_flush_writes_dirty_only(self, harness):
        svc, h = harness
        c = make_cache(svc, h, capacity_entries=8)
        c.access(h, 0, 0.0, dirty=True)
        c.access(h, 4, 0.0, dirty=False)
        c.flush(h, 0.0)
        assert h.programs == [0]

    def test_flush_idempotent(self, harness):
        svc, h = harness
        c = make_cache(svc, h, capacity_entries=8)
        c.access(h, 0, 0.0, dirty=True)
        c.flush(h, 0.0)
        c.flush(h, 0.0)
        assert h.programs == [0]


class TestMisc:
    def test_touches_fn(self, harness):
        svc, h = harness
        h.touches = 5
        c = make_cache(svc, h, capacity_entries=8, tree=True)
        c.access(h, 0, 0.0, dirty=False)
        assert svc.counters.dram_accesses == 5

    def test_residency_partial(self, harness):
        svc, h = harness
        c = make_cache(svc, h, capacity_entries=8)
        assert c.residency(16) == pytest.approx(0.5)

    def test_bad_epp(self, harness):
        svc, h = harness
        with pytest.raises(ValueError):
            make_cache(svc, h, None, epp=0)
