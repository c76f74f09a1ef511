"""repro.lru.ByteLRU: the LRU map under the image, report and plan tiers."""

from repro.lru import ByteLRU


def test_entry_bound_evicts_least_recent_beside_the_size_bound():
    lru = ByteLRU(max_bytes=100, max_entries=2)
    lru.put("a", 1, 10)
    lru.put("b", 2, 10)
    assert lru.get("a") == 1  # "b" is now the least recently used
    lru.put("c", 3, 10)
    assert (lru.get("a"), lru.get("b"), lru.get("c")) == (1, None, 3)
    assert lru.stats() == {"entries": 2, "bytes": 20}
    lru.put("d", 4, 95)  # the size bound still holds: evicts both
    assert lru.stats() == {"entries": 1, "bytes": 95}
    unbounded = ByteLRU(max_bytes=100)
    for key in range(50):
        unbounded.put(key, key, 1)
    assert unbounded.stats() == {"entries": 50, "bytes": 50}
