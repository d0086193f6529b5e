"""Set-associative cache structure.

Replacement is LRU, kept in dict insertion order: each set is a dict
keyed by tag, a hit or fill moves the line to the end of its set, and the
victim is the set's first key.  The paper's ChampSim baseline uses LRU
everywhere, so this is the only policy.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.cache.line import CacheLine
from repro.cache.mshr import MSHRFile
from repro.config import CacheConfig

EvictionCallback = Callable[[int, CacheLine], None]


class Cache:
    """One cache level, addressed by *line address* (byte address // 64).

    Sets are dicts keyed by tag in recency order (least recent first), so
    lookup, promotion and victim selection are all O(1).  Eviction of a
    valid line is reported through an optional callback so the hierarchy
    can propagate dirty data and account for unused prefetches.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self._num_sets = config.num_sets
        self._ways = config.ways
        self._sets: list[Dict[int, CacheLine]] = [dict() for _ in range(self._num_sets)]
        self.mshr = MSHRFile(config.mshr_entries)

    # ------------------------------------------------------------------
    def _index(self, line_addr: int) -> Tuple[int, int]:
        return line_addr % self._num_sets, line_addr // self._num_sets

    def lookup(self, line_addr: int) -> Optional[CacheLine]:
        """Return the resident line and promote it in LRU, or None."""
        num_sets = self._num_sets
        tag = line_addr // num_sets
        lines = self._sets[line_addr % num_sets]
        line = lines.get(tag)
        if line is not None:
            del lines[tag]
            lines[tag] = line
        return line

    def probe(self, line_addr: int) -> Optional[CacheLine]:
        """Return the resident line without disturbing replacement state."""
        num_sets = self._num_sets
        return self._sets[line_addr % num_sets].get(line_addr // num_sets)

    def demand_probe_state(self):
        """``(sets, num_sets)`` for inlined probes.

        The engine hot loops and the hierarchy's miss path inline a hit
        check as one dict probe:
        ``sets[line_addr % num_sets].get(line_addr // num_sets)``.  The
        caller must promote a hit by deleting and re-inserting its key
        (insertion order *is* recency order, see :meth:`lookup`).  The
        ``sets`` list and its dicts are mutated in place for the cache's
        whole lifetime (never replaced), so hoisting them across a run is
        safe.
        """
        return self._sets, self._num_sets

    def fill(
        self,
        line_addr: int,
        arrive: int = 0,
        dirty: bool = False,
        prefetched: bool = False,
        pf_window: int = -1,
        on_evict: Optional[EvictionCallback] = None,
    ) -> CacheLine:
        """Insert a line, evicting a victim if the set is full.

        Returns the inserted line. If the line is already resident, its
        metadata is refreshed instead (an MSHR-merge fill).
        """
        num_sets = self._num_sets
        set_idx = line_addr % num_sets
        tag = line_addr // num_sets
        lines = self._sets[set_idx]
        line = lines.get(tag)
        if line is None:
            if len(lines) >= self._ways:
                victim_tag = next(iter(lines))
                victim = lines.pop(victim_tag)
                if on_evict is not None:
                    on_evict(victim_tag * num_sets + set_idx, victim)
                # Recycle the victim object: a steady-state fill would
                # otherwise allocate one CacheLine per miss (the single
                # biggest allocation source in the demand hot loop).  No
                # eviction handler retains the object — they only read
                # its fields — so resetting it here is equivalent to
                # constructing a fresh line.
                line = victim
                line.tag = tag
                line.dirty = False
                line.prefetched = False
                line.pf_window = -1
                line.arrive = arrive
            else:
                line = CacheLine(tag, arrive)
            lines[tag] = line
        else:
            if arrive < line.arrive:
                line.arrive = arrive
            del lines[tag]
            lines[tag] = line
        line.dirty = line.dirty or dirty
        line.prefetched = prefetched
        line.pf_window = pf_window
        return line

    def invalidate(self, line_addr: int) -> Optional[CacheLine]:
        """Drop a line (no writeback); returns it if it was resident."""
        set_idx, tag = self._index(line_addr)
        return self._sets[set_idx].pop(tag, None)

    def clear(self) -> None:
        """Drop everything."""
        for lines in self._sets:
            lines.clear()
        self.mshr.reset()

    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        """Entries currently held."""
        return sum(len(lines) for lines in self._sets)

    def resident_lines(self):
        """Yield (line_addr, CacheLine) for every resident line."""
        for set_idx, lines in enumerate(self._sets):
            for tag, line in lines.items():
                yield tag * self._num_sets + set_idx, line
