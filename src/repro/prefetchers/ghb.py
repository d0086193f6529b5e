"""Global History Buffer prefetcher (Nesbit & Smith [38]), G/AC flavour.

A circular miss-history buffer plus an index table mapping a miss address
to its most recent position in the buffer.  On a miss, the prefetcher finds
the previous occurrence of the same address and prefetches the ``degree``
misses that followed it last time.

This is the motivating strawman of Section II: when an address is followed
by different successors across interleaved streams (``9 -> 12`` vs
``9 -> 20``), the GHB picks the most recent one and mispredicts, and it
cannot separate two mixed patterns.
"""

from __future__ import annotations

from repro.cache.hierarchy import L2Event
from repro.prefetchers.base import Prefetcher


class GHBPrefetcher(Prefetcher):
    # Trains purely on L2 misses: the base no-op ``on_access`` (and
    # ``on_directive``/``finalize``) are inherited.
    name = "ghb"

    def __init__(self, buffer_entries: int = 4096, degree: int = 4):
        super().__init__()
        self.buffer_entries = buffer_entries
        self.degree = degree
        self._buffer: list[int] = []  # miss line addresses, logically circular
        self._head = 0  # total misses ever seen
        self._index: dict[int, int] = {}  # line addr -> last global position

    def _position_valid(self, position: int) -> bool:
        return position >= self._head - len(self._buffer)

    def _entry_at(self, position: int) -> int:
        return self._buffer[position % self.buffer_entries]

    def on_l2_event(self, line_addr, pc, cycle, event, flagged, completion=0):
        """L2 outcome hook (training input)."""
        if event != L2Event.MISS:
            return
        previous = self._index.get(line_addr)
        # Record this miss.
        if len(self._buffer) < self.buffer_entries:
            self._buffer.append(line_addr)
        else:
            self._buffer[self._head % self.buffer_entries] = line_addr
        self._index[line_addr] = self._head
        self._head += 1
        # Replay the successors of the previous occurrence.
        if previous is None or not self._position_valid(previous):
            return
        last = min(previous + self.degree, self._head - 1)
        for position in range(previous + 1, last + 1):
            if not self._position_valid(position):
                continue
            self.hierarchy.prefetch_l2(self._entry_at(position), cycle)
