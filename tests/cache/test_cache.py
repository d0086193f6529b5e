"""Tests for the set-associative cache structure."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.cache import Cache
from repro.config import CacheConfig


def small_cache(ways: int = 4, sets: int = 4) -> Cache:
    config = CacheConfig("T", sets * ways * 64, ways, 4, 1)
    return Cache(config)


class TestLookupAndFill:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert cache.lookup(17) is None
        cache.fill(17)
        assert cache.lookup(17) is not None

    def test_probe_does_not_touch_lru(self):
        cache = small_cache(ways=2, sets=1)
        cache.fill(0)
        cache.fill(1)
        cache.probe(0)  # must NOT promote line 0
        cache.fill(2)  # evicts LRU
        assert cache.probe(0) is None
        assert cache.probe(1) is not None

    def test_lookup_promotes_lru(self):
        cache = small_cache(ways=2, sets=1)
        cache.fill(0)
        cache.fill(1)
        cache.lookup(0)  # promote line 0
        cache.fill(2)
        assert cache.probe(0) is not None
        assert cache.probe(1) is None

    def test_fill_existing_line_merges(self):
        cache = small_cache()
        cache.fill(5, arrive=100)
        line = cache.fill(5, arrive=50)
        assert line.arrive == 50  # earliest arrival wins
        assert cache.occupancy == 1

    def test_dirty_is_sticky(self):
        cache = small_cache()
        cache.fill(5, dirty=True)
        line = cache.fill(5, dirty=False)
        assert line.dirty

    def test_invalidate(self):
        cache = small_cache()
        cache.fill(9)
        assert cache.invalidate(9) is not None
        assert cache.probe(9) is None
        assert cache.invalidate(9) is None


class TestEviction:
    def test_eviction_callback_receives_victim(self):
        cache = small_cache(ways=2, sets=1)
        evicted = []
        cache.fill(0, on_evict=lambda addr, line: evicted.append(addr))
        cache.fill(1, on_evict=lambda addr, line: evicted.append(addr))
        cache.fill(2, on_evict=lambda addr, line: evicted.append(addr))
        assert evicted == [0]

    def test_eviction_address_reconstruction(self):
        """The victim's reported line address maps back to its set."""
        cache = small_cache(ways=1, sets=4)
        evicted = []
        cache.fill(3)
        cache.fill(3 + 4, on_evict=lambda addr, line: evicted.append(addr))
        assert evicted == [3]

    def test_occupancy_bounded_by_capacity(self):
        cache = small_cache(ways=2, sets=2)
        for line in range(100):
            cache.fill(line)
        assert cache.occupancy <= 4

    def test_clear(self):
        cache = small_cache()
        cache.fill(1)
        cache.fill(2)
        cache.clear()
        assert cache.occupancy == 0


class TestResidentLines:
    def test_resident_lines_round_trip(self):
        cache = small_cache()
        filled = {3, 7, 11}
        for line in filled:
            cache.fill(line)
        resident = {addr for addr, _ in cache.resident_lines()}
        assert resident == filled


class TestProperties:
    @settings(max_examples=60)
    @given(st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=300))
    def test_most_recent_fill_always_resident(self, lines):
        cache = small_cache(ways=4, sets=4)
        for line in lines:
            cache.fill(line)
            assert cache.probe(line) is not None

    @settings(max_examples=60)
    @given(st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=300))
    def test_occupancy_invariant(self, lines):
        cache = small_cache(ways=4, sets=4)
        for line in lines:
            cache.fill(line)
        assert cache.occupancy <= 16
        assert cache.occupancy == len({addr for addr, _ in cache.resident_lines()})

    @settings(max_examples=40)
    @given(st.data())
    def test_lru_evicts_least_recent(self, data):
        """After touching W distinct lines in one set, filling a new line
        evicts exactly the least-recently-touched one."""
        cache = small_cache(ways=4, sets=1)
        lines = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=20),
                min_size=4,
                max_size=4,
                unique=True,
            )
        )
        for line in lines:
            cache.fill(line)
        order = data.draw(st.permutations(lines))
        for line in order:
            cache.lookup(line)
        cache.fill(99)
        assert cache.probe(order[0]) is None
        for survivor in order[1:]:
            assert cache.probe(survivor) is not None
