"""IMP — Indirect Memory Prefetcher (Yu et al. [60]), related-work extra.

IMP detects ``A[B[i]]`` patterns in hardware: it watches a streaming index
array ``B``, reads the index *values* as they arrive, and learns the affine
map ``addr = base + value * size`` by correlating candidate (base, size)
pairs against observed misses.  Once confident, it prefetches the indirect
targets for index values that the stream runs ahead of.

The paper cites IMP's weaknesses (Section VIII): value-dependent address
generation suffers from low accuracy and ill-timed prefetches.  IMP is not
in the paper's evaluation figures; it is included here for the related-work
comparison and ablation benches.

As with DROPLET, a ``value_reader`` callback stands in for the hardware
seeing the returned index data: ``value_reader(byte_addr, elem_size)``
returns the integer stored at that simulated address.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.cache.hierarchy import L2Event
from repro.config import LINE_SIZE
from repro.prefetchers.base import Prefetcher

ValueReader = Callable[[int, int], int]


class _IndirectPattern:
    __slots__ = ("base", "elem", "confidence")

    def __init__(self, base: int, elem: int):
        self.base = base
        self.elem = elem
        self.confidence = 1


class IMPPrefetcher(Prefetcher):
    name = "imp"

    def __init__(
        self,
        value_reader: Optional[ValueReader] = None,
        index_elem: int = 4,
        candidate_sizes: tuple = (4, 8),
        confidence_threshold: int = 3,
        lookahead: int = 16,
        recent_values: int = 8,
    ):
        super().__init__()
        self.value_reader = value_reader
        self.index_elem = index_elem
        self.candidate_sizes = candidate_sizes
        self.confidence_threshold = confidence_threshold
        self.lookahead = lookahead
        self._recent_values: deque[int] = deque(maxlen=recent_values)
        self._candidates: dict[tuple[int, int], _IndirectPattern] = {}
        self._pattern: Optional[_IndirectPattern] = None
        self._index_stride_pc: dict[int, int] = {}  # pc -> last line
        self._index_pcs: set[int] = set()
        self._last_index_addr: Optional[int] = None

    # ------------------------------------------------------------------
    def _detect_index_stream(self, pc: int, line_addr: int) -> bool:
        """A PC touching consecutive lines is treated as the index stream."""
        last = self._index_stride_pc.get(pc)
        self._index_stride_pc[pc] = line_addr
        if last is not None and 0 <= line_addr - last <= 1:
            self._index_pcs.add(pc)
            return True
        return pc in self._index_pcs

    def _harvest_values(self, address: int) -> None:
        if self.value_reader is None:
            return
        value = self.value_reader(address, self.index_elem)
        if value is not None:
            self._recent_values.append(value)

    def _train(self, miss_addr: int) -> None:
        """Correlate a miss address against recent index values."""
        for value in self._recent_values:
            for elem in self.candidate_sizes:
                base = miss_addr - value * elem
                key = (base, elem)
                pattern = self._candidates.get(key)
                if pattern is None:
                    if len(self._candidates) < 64:
                        self._candidates[key] = _IndirectPattern(base, elem)
                    continue
                pattern.confidence += 1
                if pattern.confidence >= self.confidence_threshold:
                    self._pattern = pattern

    # ------------------------------------------------------------------
    def on_access(self, address, pc, cycle, is_store):
        # The index stream is identified on the access side so values can
        # be harvested even on cache hits (the hardware sees all loads).
        """Demand-reference hook; returns the RnR packet flag."""
        if not is_store and pc in self._index_pcs:
            self._harvest_values(address)
            pattern = self._pattern
            if pattern is not None and self.value_reader is not None:
                ahead_addr = address + self.lookahead * self.index_elem
                value = self.value_reader(ahead_addr, self.index_elem)
                if value is not None:
                    target = pattern.base + value * pattern.elem
                    self._issue(target // LINE_SIZE, cycle)
        return False

    def on_l2_event(self, line_addr, pc, cycle, event, flagged, completion=0):
        """L2 outcome hook (training input)."""
        if self._detect_index_stream(pc, line_addr):
            return
        if event == L2Event.MISS and self._pattern is None:
            self._train(line_addr * LINE_SIZE)
