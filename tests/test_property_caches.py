"""Model-based property tests for the DRAM caches.

The DataCache and MappingCache are checked against simple reference
models under random operation sequences — the kind of stateful
behaviour (LRU order, dirty bits, partial coverage) unit tests only
sample.
"""

from collections import OrderedDict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.buffer import DataCache
from repro.config import SSDConfig
from repro.flash.service import FlashService
from repro.ftl import make_ftl
from repro.ftl.mapping_cache import MappingCache
from repro.obs.events import CMTEvent
from repro.sim.image import device_state, state_diff

SPP = 16
MAX_SECTOR = 64 * SPP


# ----------------------------------------------------------------------
# DataCache vs a plain per-sector dict + LRU list
# ----------------------------------------------------------------------
data_ops = st.lists(
    st.tuples(
        st.sampled_from(["put", "hit?", "discard"]),
        st.integers(0, MAX_SECTOR - 1),
        st.integers(1, 2 * SPP),
    ),
    min_size=1,
    max_size=120,
)


@given(ops=data_ops, capacity=st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_datacache_matches_reference(ops, capacity):
    cache = DataCache(capacity_pages=capacity, spp=SPP)
    # reference: sector -> stamp for *cached* sectors, plus LPN LRU
    ref_sectors: dict[int, int] = {}
    lru: OrderedDict[int, None] = OrderedDict()

    def ref_evict():
        while len(lru) > capacity:
            lpn, _ = lru.popitem(last=False)
            for s in range(lpn * SPP, (lpn + 1) * SPP):
                ref_sectors.pop(s, None)

    stamp = 0
    for op, offset, size in ops:
        size = min(size, MAX_SECTOR - offset)
        if size <= 0:
            continue
        if op == "put":
            stamp += 1
            cache.put(offset, size, stamp)
            for s in range(offset, offset + size):
                ref_sectors[s] = stamp
            for lpn in range(offset // SPP, (offset + size - 1) // SPP + 1):
                lru.pop(lpn, None)
                lru[lpn] = None
            ref_evict()
        elif op == "discard":
            cache.discard(offset, size)
            for s in range(offset, offset + size):
                ref_sectors.pop(s, None)
            for lpn in range(offset // SPP, (offset + size - 1) // SPP + 1):
                if not any(
                    s in ref_sectors
                    for s in range(lpn * SPP, (lpn + 1) * SPP)
                ):
                    lru.pop(lpn, None)
        else:  # hit?
            expect = all(
                s in ref_sectors for s in range(offset, offset + size)
            )
            got = cache.full_hit(offset, size)
            # the model can only disagree by being *more* generous: the
            # cache may have dropped an LPN the model kept? No — both
            # evict identically; demand equality.
            assert got == expect, (offset, size)
            if got:
                stamps = cache.get_stamps(offset, size)
                for s in range(offset, offset + size):
                    assert stamps.get(s) == ref_sectors.get(s), s


# ----------------------------------------------------------------------
# MappingCache vs a reference LRU of translation pages
# ----------------------------------------------------------------------
map_ops = st.lists(
    st.tuples(st.integers(0, 63), st.booleans()),
    min_size=1,
    max_size=150,
)


@given(ops=map_ops, capacity_pages=st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_mapping_cache_matches_reference(ops, capacity_pages):
    EPP = 4
    svc = FlashService(SSDConfig.tiny())
    flash_writes: list[int] = []
    flash_reads: list[int] = []

    class Owner:
        def program_map_page(self, table_id, tvpn, now, timed):
            flash_writes.append(tvpn)
            return now

        def read_map_page(self, table_id, tvpn, now, timed):
            flash_reads.append(tvpn)
            return now

    owner = Owner()
    cache = MappingCache(
        svc, entries_per_page=EPP, capacity_entries=capacity_pages * EPP
    )
    # reference model
    ref: OrderedDict[int, bool] = OrderedDict()
    on_flash: set[int] = set()
    ref_writes: list[int] = []
    ref_reads: list[int] = []
    for key, dirty in ops:
        tvpn = key // EPP
        if tvpn in ref:
            ref.move_to_end(tvpn)
            if dirty:
                ref[tvpn] = True
        else:
            if tvpn in on_flash:
                ref_reads.append(tvpn)
            ref[tvpn] = dirty
            while len(ref) > capacity_pages:
                old, was_dirty = ref.popitem(last=False)
                if was_dirty:
                    ref_writes.append(old)
                    on_flash.add(old)
        cache.access(owner, key, 0.0, dirty=dirty)
    assert flash_writes == ref_writes
    assert flash_reads == ref_reads
    assert cache.cached_pages == len(ref)


# ----------------------------------------------------------------------
# MappingCache.access_range vs one access() per key, on a real device
# ----------------------------------------------------------------------
#: 64 physical pages: a few dozen translation-page write-backs fill it,
#: so evictions really program flash pages and GC really collects them
RANGE_CFG = SSDConfig(
    channels=1,
    chips_per_channel=2,
    dies_per_chip=1,
    planes_per_die=1,
    blocks_per_plane=8,
    pages_per_block=4,
    page_size_bytes=8 * 1024,
    write_buffer_bytes=0,
)
RANGE_EPP = 4
RANGE_KEYS = 16 * RANGE_EPP  # 16 translation pages


def range_cache(capacity_pages, with_touches):
    """A table-7 cache on a fresh page-mapped FTL: its translation-page
    I/O is the FTL's own (invalidate + program + GC check, timed reads);
    with ``with_touches`` it charges ``depth[0]`` touches a lookup."""
    ftl = make_ftl("ftl", FlashService(RANGE_CFG))
    depth = [1]
    cache = ftl._make_cache(
        table_id=7,
        entries_per_page=RANGE_EPP,
        capacity_entries=(
            None if capacity_pages is None else capacity_pages * RANGE_EPP
        ),
        tree=with_touches,
    )
    ftl.tree_touches = lambda: depth[0]
    return ftl, cache, depth


def assert_range_touch_is_the_per_key_loop(capacity_pages, with_touches, ops):
    """Drive ``ops`` = ``(lo, length, dirty, depth)`` through
    ``access_range`` on one device and through the per-key loop on a
    twin; everything observable must agree after every op."""
    ftl_a, a, depth_a = range_cache(capacity_pages, with_touches)
    ftl_b, b, depth_b = range_cache(capacity_pages, with_touches)
    for i, (lo, length, dirty, depth) in enumerate(ops):
        hi = min(lo + length, RANGE_KEYS) - 1
        now = 0.25 * i
        depth_a[0] = depth_b[0] = depth  # a lookup never resizes the table
        finish = now
        for key in range(lo, hi + 1):
            finish = max(finish, b.access(ftl_b, key, now, dirty=dirty))
        assert a.access_range(ftl_a, lo, hi, now, dirty=dirty) == finish, (i, lo, hi)
        assert list(a._cached.items()) == list(b._cached.items())  # LRU + dirty
        assert (a.hits, a.misses, a.evictions) == (b.hits, b.misses, b.evictions)
        assert ftl_a.counters == ftl_b.counters  # dram_accesses included
    assert state_diff(device_state(ftl_a), device_state(ftl_b)) == []
    ftl_a.service.array.check_invariants()
    return ftl_a, a


range_ops = st.lists(
    st.tuples(
        st.integers(0, RANGE_KEYS - 1),     # lo
        st.integers(1, 3 * RANGE_EPP),      # keys touched: up to 4 pages
        st.booleans(),                      # dirty
        st.integers(1, 9),                  # tree depth for this lookup
    ),
    min_size=1,
    max_size=200,
)


@given(
    ops=range_ops,
    capacity_pages=st.sampled_from([None, 1, 2, 3, 5]),
    with_touches=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_range_touch_matches_per_key_loop(ops, capacity_pages, with_touches):
    assert_range_touch_is_the_per_key_loop(capacity_pages, with_touches, ops)


def test_range_touch_through_write_back_and_gc():
    """The same, on a stream long enough that the edge cases certainly
    happen: a one-page cache, ranges straddling translation pages,
    dirty evictions programming flash and GC collecting behind them."""
    rng = np.random.default_rng(21)
    ops = [
        (
            int(rng.integers(RANGE_KEYS)),
            int(rng.integers(1, 3 * RANGE_EPP + 1)),
            bool(rng.integers(4)),
            int(rng.integers(1, 10)),
        )
        for _ in range(600)
    ]
    assert any(lo // RANGE_EPP != (lo + n - 1) // RANGE_EPP for lo, n, _, _ in ops)
    ftl, cache = assert_range_touch_is_the_per_key_loop(1, True, ops)
    assert cache.capacity_pages == 1 and cache.evictions > 500
    assert ftl.counters.map_writes > 300 and ftl.counters.map_reads > 100
    assert ftl.gc.collections > 10 and ftl.counters.erases > 10


def test_range_touch_emits_per_key_under_observability():
    """With a bus attached each key goes through ``access`` and emits
    its own event, as before."""
    ftl, cache, _ = range_cache(2, False)
    events = []

    class Bus:
        current_request = -1

        def emit(self, event):
            events.append(event)

    ftl.service.obs = Bus()
    cache.access_range(ftl, 2, 9, 0.0, dirty=True)
    touched = [
        (e.kind, e.key) for e in events
        if isinstance(e, CMTEvent) and e.kind in ("hit", "miss")
    ]
    assert touched == [
        ("miss", 2), ("hit", 3),
        ("miss", 4), ("hit", 5), ("hit", 6), ("hit", 7),
        ("miss", 8), ("hit", 9),
    ]
