"""The bounded LRU store every cache is built on (``repro.lru``)."""

from repro.lru import BoundedLRU


def test_entry_bound_evicts_least_recently_used():
    lru = BoundedLRU(max_entries=2)
    lru.put("a", 1)
    lru.put("b", 2)
    assert lru.get("a") == 1  # refresh: b is now the oldest
    assert lru.put("c", 3)
    assert lru.peek("b") is None
    assert lru.peek("a") == 1 and lru.peek("c") == 3
    assert lru.stats.evictions == 1
    assert len(lru) == 2


def test_byte_bound_evicts_before_insert_until_the_entry_fits():
    lru = BoundedLRU(max_bytes=100)
    lru.put("a", "a", 40)
    lru.put("b", "b", 40)
    lru.put("c", "c", 20)
    assert lru.put("d", "d", 70)  # must drop a and b, not c
    assert [lru.peek(key) for key in "abcd"] == [None, None, "c", "d"]
    assert lru.stats.evictions == 2
    assert lru.live_bytes == 90


def test_oversize_entry_is_rejected_without_eviction():
    lru = BoundedLRU(max_entries=4, max_bytes=100)
    lru.put("a", "a", 60)
    assert not lru.put("big", "big", 101)
    assert lru.peek("a") == "a"
    assert lru.peek("big") is None
    assert lru.stats.evictions == 0
    assert lru.stats.stored == 1
    assert lru.live_bytes == 60


def test_restore_refreshes_in_place_without_counting_an_eviction():
    lru = BoundedLRU(max_entries=2, max_bytes=100)
    lru.put("a", "old", 50)
    lru.put("b", "b", 50)
    assert lru.put("a", "new", 50)  # full on both bounds, yet no eviction
    assert lru.peek("a") == "new"
    assert lru.peek("b") == "b"
    assert lru.stats.evictions == 0
    assert lru.stats.stored == 3
    assert lru.live_bytes == 100
    lru.put("c", "c", 50)  # the re-store refreshed a: b is the oldest
    assert lru.peek("b") is None and lru.peek("a") == "new"


def test_zero_entries_stores_nothing():
    lru = BoundedLRU(max_entries=0, max_bytes=100)
    assert not lru.put("a", 1)
    assert len(lru) == 0
    assert lru.stats.stored == 0
    assert lru.stats.evictions == 0


def test_peak_bytes_outlives_eviction_and_pop():
    lru = BoundedLRU(max_bytes=100)
    lru.put("a", "a", 30)
    lru.put("b", "b", 50)
    lru.put("c", "c", 60)  # evicts a and b
    assert lru.pop("c") == "c"
    assert lru.live_bytes == 0
    assert lru.peak_bytes == 80
    assert lru.counters()["peak_bytes"] == 80


def test_shrinking_resize_evicts_oldest_and_counts_them():
    lru = BoundedLRU(max_entries=4)
    for key in "abcd":
        lru.put(key, key)
    lru.get("a")  # a becomes the most recently used
    lru.resize(max_entries=2)
    assert [lru.peek(key) for key in "abcd"] == ["a", None, None, "d"]
    assert lru.stats.evictions == 2
    assert lru.max_entries == 2


def test_peek_and_pop_do_not_count_a_lookup():
    lru = BoundedLRU(max_entries=2)
    lru.put("a", 1)
    lru.put("b", 2)
    assert lru.peek("a") == 1
    assert lru.peek("missing") is None
    assert lru.pop("missing") is None
    assert lru.stats.hits == 0 and lru.stats.misses == 0
    lru.put("c", 3)  # the peek did not refresh a, so a is evicted
    assert lru.peek("a") is None


def test_counters_name_the_entry_count():
    lru = BoundedLRU(max_entries=2)
    lru.get("a")
    lru.put("a", 1, 8)
    lru.get("a")
    assert lru.counters("live_results") == {
        "hits": 1,
        "misses": 1,
        "evictions": 0,
        "stored": 1,
        "live_results": 1,
        "live_bytes": 8,
        "peak_bytes": 8,
    }


def test_clear_drops_entries_and_resets_counters():
    lru = BoundedLRU(max_entries=1)
    lru.put("a", 1, 4)
    lru.put("b", 2, 4)
    lru.clear()
    assert len(lru) == 0
    assert lru.counters() == {
        "hits": 0, "misses": 0, "evictions": 0, "stored": 0,
        "entries": 0, "live_bytes": 0, "peak_bytes": 0,
    }
    assert lru.max_entries == 1
