"""Cache substrate: set-associative caches with dict-order LRU replacement,
MSHRs, prefetch-bit accounting per line, and the private-L1/private-L2/
shared-LLC hierarchy of paper Table II."""

from repro.cache.line import CacheLine
from repro.cache.mshr import MSHRFile
from repro.cache.cache import Cache
from repro.cache.hierarchy import AccessResult, CacheHierarchy, L2Event
from repro.cache.tlb import Tlb

__all__ = [
    "AccessResult",
    "Cache",
    "CacheHierarchy",
    "CacheLine",
    "L2Event",
    "MSHRFile",
    "Tlb",
]
