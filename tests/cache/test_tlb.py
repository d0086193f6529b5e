"""Tests for the TLB model."""

import pytest

from repro.cache.tlb import Tlb


class TestTlb:
    def test_first_access_misses(self):
        tlb = Tlb(entries=4, page_bytes=4096)
        assert not tlb.access(0x1000)
        assert tlb.misses == 1

    def test_second_access_hits(self):
        tlb = Tlb(entries=4, page_bytes=4096)
        tlb.access(0x1000)
        assert tlb.access(0x1FFF)  # same page
        assert tlb.hits == 1

    def test_capacity_eviction_is_lru(self):
        tlb = Tlb(entries=2, page_bytes=4096)
        tlb.access(0x0000)
        tlb.access(0x1000)
        tlb.access(0x0000)  # refresh page 0
        tlb.access(0x2000)  # evicts page 1
        assert tlb.access(0x0000)
        assert not tlb.access(0x1000)

    def test_4mb_pages_for_metadata(self):
        """RnR metadata uses 4 MB pages: one lookup covers the whole page
        (Section V-A step 6)."""
        tlb = Tlb(entries=4, page_bytes=4 << 20)
        assert not tlb.access(0)
        hits = sum(tlb.access(addr) for addr in range(64, 4 << 20, 1 << 16))
        assert hits == ((4 << 20) - 64 - 1) // (1 << 16) + 1

    def test_rejects_non_power_of_two_page(self):
        with pytest.raises(ValueError):
            Tlb(entries=4, page_bytes=3000)

    def test_reset(self):
        tlb = Tlb()
        tlb.access(0)
        tlb.reset()
        assert tlb.hits == 0 and tlb.misses == 0
        assert not tlb.access(0)
