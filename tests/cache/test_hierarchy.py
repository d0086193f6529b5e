"""Tests for the three-level cache hierarchy."""

import pytest

from repro.cache.hierarchy import CacheHierarchy, L2Event
from repro.config import LINE_SIZE, SystemConfig
from repro.mem.controller import MemoryController, RequestKind
from repro.stats import SimStats


@pytest.fixture
def h():
    config = SystemConfig.tiny()
    stats = SimStats()
    controller = MemoryController(config.memory, config.core)
    return CacheHierarchy(config, controller, stats), stats


class TestDemandPath:
    def test_cold_miss_goes_to_memory(self, h):
        hierarchy, stats = h
        result = hierarchy.load(0x1000, 0)
        assert result.l2_event is L2Event.MISS
        assert stats.l1d.demand_misses == 1
        assert stats.l2.demand_misses == 1
        assert stats.llc.demand_misses == 1
        assert stats.traffic.demand_lines == 1
        assert result.latency > 42  # at least the LLC path

    def test_l1_hit_is_cheap(self, h):
        hierarchy, stats = h
        first = hierarchy.load(0x1000, 0)
        second = hierarchy.load(0x1000, first.completion + 10)
        assert second.l2_event is L2Event.NONE
        assert second.latency == SystemConfig.tiny().l1d.latency
        assert stats.l1d.demand_hits == 1

    def test_same_line_counts_once(self, h):
        hierarchy, stats = h
        hierarchy.load(0x1000, 0)
        hierarchy.load(0x1000 + LINE_SIZE - 1, 10_000)  # same line
        assert stats.traffic.demand_lines == 1

    def test_l2_hit_after_l1_eviction(self, h):
        hierarchy, stats = h
        hierarchy.load(0, 0)
        # Blow the tiny 8-line L1 with conflicting lines, same L1 set.
        config = SystemConfig.tiny()
        l1_sets = config.l1d.num_sets
        for i in range(1, 9):
            hierarchy.load(i * l1_sets * LINE_SIZE, 100_000 * i)
        result = hierarchy.load(0, 10_000_000)
        assert result.l2_event in (L2Event.HIT, L2Event.MISS)

    def test_mshr_merge_on_inflight_line(self, h):
        hierarchy, _ = h
        first = hierarchy.load(0x2000, 0)
        # Access the same line before the fill arrives: completion equals
        # the in-flight fill, not a new memory round trip.
        merged = hierarchy.load(0x2000, 5)
        assert merged.completion == first.completion

    def test_store_allocates_and_dirties(self, h):
        hierarchy, stats = h
        hierarchy.store(0x3000, 0)
        line = hierarchy.l1.probe(0x3000 // LINE_SIZE)
        assert line is not None and line.dirty
        assert stats.traffic.demand_lines == 1


class TestWritebackPropagation:
    def test_dirty_eviction_reaches_memory(self, h):
        hierarchy, stats = h
        config = SystemConfig.tiny()
        lines_to_thrash = config.llc.num_lines * 4
        hierarchy.store(0, 0)
        for i in range(1, lines_to_thrash):
            hierarchy.load(i * LINE_SIZE, i * 1000)
        hierarchy.drain(10**9)
        assert stats.traffic.writeback_lines >= 1


class TestPrefetchPath:
    def test_prefetch_fills_l2_not_l1(self, h):
        hierarchy, stats = h
        assert hierarchy.prefetch_l2(0x40, 0)
        assert hierarchy.l2.probe(0x40) is not None
        assert hierarchy.l1.probe(0x40) is None
        assert stats.prefetch.issued == 1
        assert stats.l2.prefetch_fills == 1

    def test_redundant_prefetch_dropped(self, h):
        hierarchy, stats = h
        result = hierarchy.load(0x40 * LINE_SIZE, 0)
        assert not hierarchy.prefetch_l2(0x40, result.completion + 1)
        assert stats.prefetch.dropped == 1

    def test_prefetch_behind_inflight_demand_is_late(self, h):
        hierarchy, stats = h
        hierarchy.load(0x40 * LINE_SIZE, 0)  # miss in flight
        assert not hierarchy.prefetch_l2(0x40, 1)
        assert stats.prefetch.late == 1
        assert stats.prefetch.issued == 1

    def test_useful_prefetch_counted_on_demand_touch(self, h):
        hierarchy, stats = h
        hierarchy.prefetch_l2(0x80, 0)
        arrive = hierarchy.l2.probe(0x80).arrive
        result = hierarchy.load(0x80 * LINE_SIZE, arrive + 10)
        assert result.l2_event is L2Event.PREFETCH_HIT
        assert stats.prefetch.useful == 1
        # Second touch is a plain hit, not another useful prefetch.
        hierarchy.load(0x80 * LINE_SIZE + 8, arrive + 20)
        assert stats.prefetch.useful == 1

    def test_demand_touch_of_inflight_prefetch_merges(self, h):
        hierarchy, stats = h
        hierarchy.prefetch_l2(0x90, 0)
        arrive = hierarchy.l2.probe(0x90).arrive
        result = hierarchy.load(0x90 * LINE_SIZE, 5)
        assert result.completion >= arrive
        assert stats.l2.late_prefetch_hits == 1
        assert stats.prefetch.useful == 1

    def test_unused_prefetch_classified_on_eviction(self, h):
        hierarchy, stats = h
        seen = []
        hierarchy.unused_prefetch_classifier = lambda line, window: seen.append(
            (line, window)
        )
        config = SystemConfig.tiny()
        l2_sets = config.l2.num_sets
        hierarchy.prefetch_l2(0, 0, pf_window=7)
        # Conflict-evict it with same-set fills.
        for i in range(1, 12):
            hierarchy.load(i * l2_sets * LINE_SIZE, i * 100_000)
        assert (0, 7) in seen
        assert stats.l2.prefetch_evicted_unused >= 1

    def test_drain_classifies_resident_unused(self, h):
        hierarchy, stats = h
        seen = []
        hierarchy.unused_prefetch_classifier = lambda line, window: seen.append(line)
        hierarchy.prefetch_l2(0x100, 0, pf_window=1)
        hierarchy.drain(10**6)
        assert 0x100 in seen

    def test_llc_hit_prefetch_is_fast_and_free_of_traffic(self, h):
        hierarchy, stats = h
        config = SystemConfig.tiny()
        l2_sets = config.l2.num_sets
        hierarchy.load(0, 0)
        # Evict line 0 from L1+L2 (it stays in LLC).
        for i in range(1, 12):
            hierarchy.load(i * l2_sets * LINE_SIZE, i * 100_000)
        traffic_before = stats.traffic.prefetch_lines
        if hierarchy.l2.probe(0) is None and hierarchy.llc.probe(0) is not None:
            assert hierarchy.prefetch_l2(0, 10**7)
            assert stats.traffic.prefetch_lines == traffic_before


class TestMetadataPath:
    def test_metadata_read_counts_traffic(self, h):
        hierarchy, stats = h
        completion = hierarchy.metadata_read(0x5000, 100)
        assert completion > 100
        assert stats.traffic.metadata_read_lines == 1

    def test_metadata_write_is_posted(self, h):
        hierarchy, stats = h
        hierarchy.metadata_write(0x5000, 100)
        assert stats.traffic.metadata_write_lines == 1

    def test_metadata_bypasses_caches(self, h):
        hierarchy, _ = h
        hierarchy.metadata_read(0x5000, 0)
        assert hierarchy.l2.probe(0x5000 // LINE_SIZE) is None
        assert hierarchy.llc.probe(0x5000 // LINE_SIZE) is None


class TestLLCFillDestination:
    """The Section III ablation: prefetch into the LLC instead of the L2."""

    def _llc_hierarchy(self):
        from repro.mem.controller import MemoryController
        from repro.stats import SimStats

        config = SystemConfig.tiny()
        stats = SimStats()
        controller = MemoryController(config.memory, config.core)
        return (
            CacheHierarchy(config, controller, stats, prefetch_fill_level="llc"),
            stats,
        )

    def test_validation(self):
        from repro.mem.controller import MemoryController
        from repro.stats import SimStats

        config = SystemConfig.tiny()
        with pytest.raises(ValueError):
            CacheHierarchy(
                config,
                MemoryController(config.memory, config.core),
                SimStats(),
                prefetch_fill_level="l3",
            )

    def test_prefetch_lands_in_llc_not_l2(self):
        hierarchy, stats = self._llc_hierarchy()
        assert hierarchy.prefetch_l2(0x40, 0)
        assert hierarchy.llc.probe(0x40) is not None
        assert hierarchy.l2.probe(0x40) is None
        assert stats.prefetch.issued == 1

    def test_demand_touch_counts_useful(self):
        hierarchy, stats = self._llc_hierarchy()
        hierarchy.prefetch_l2(0x80, 0)
        arrive = hierarchy.llc.probe(0x80).arrive
        result = hierarchy.load(0x80 * LINE_SIZE, arrive + 10)
        assert stats.prefetch.useful == 1
        # Still an L2 miss: the latency hiding is partial (the point of
        # the paper's choice of the L2 destination).
        assert result.latency >= SystemConfig.tiny().llc.latency

    def test_unused_llc_prefetch_classified_at_drain(self):
        hierarchy, stats = self._llc_hierarchy()
        seen = []
        hierarchy.unused_prefetch_classifier = lambda line, window: seen.append(line)
        hierarchy.prefetch_l2(0x99, 0, pf_window=2)
        hierarchy.drain(10**7)
        assert 0x99 in seen
