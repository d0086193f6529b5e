"""A small TLB model.

RnR performs its own virtual-to-physical translation for metadata writes
and reads; since the metadata is contiguous and uses 4 MB pages, one TLB
lookup per page suffices (Section V-A step 6).  The RnR metadata tables
use this structure for that accounting.
"""

from __future__ import annotations

from collections import OrderedDict


class Tlb:
    """Fully-associative, LRU TLB over fixed-size pages."""

    def __init__(self, entries: int = 64, page_bytes: int = 4096):
        if page_bytes <= 0 or page_bytes & (page_bytes - 1):
            raise ValueError(f"page size must be a power of two, got {page_bytes}")
        self._entries = entries
        self._page_bytes = page_bytes
        self._shift = page_bytes.bit_length() - 1
        self._mapped: OrderedDict[int, bool] = OrderedDict()
        self.hits = 0
        self.misses = 0

    @property
    def page_bytes(self) -> int:
        return self._page_bytes

    def page_of(self, address: int) -> int:
        """Page number of an address."""
        return address >> self._shift

    def access(self, address: int) -> bool:
        """Touch an address; returns True on TLB hit."""
        page = self.page_of(address)
        if page in self._mapped:
            self._mapped.move_to_end(page)
            self.hits += 1
            return True
        self.misses += 1
        self._mapped[page] = True
        if len(self._mapped) > self._entries:
            self._mapped.popitem(last=False)
        return False

    def reset(self) -> None:
        """Clear all state."""
        self._mapped.clear()
        self.hits = 0
        self.misses = 0
