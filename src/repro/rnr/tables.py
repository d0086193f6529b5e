"""RnR metadata tables: the miss Sequence Table and the window Division
Table (Fig 4, Sections V-A/V-B).

Both tables live in ordinary memory allocated by the programmer
(``RnR.init``); the hardware holds only their base addresses plus one
128 B staging buffer each.

Record side: entries accumulate in the buffer and are written back one
cache line (64 B) at a time with non-temporal stores (posted metadata
writes).  Virtual-to-physical translation is one TLB lookup per 4 MB page
(Section V-A step 6); the current physical page register makes the common
case free.

Replay side: metadata is *streamed* back in with double buffering — the
128 B buffer holds two cache lines, and the next line is fetched while the
current one is consumed, so metadata reads are sequential, row-buffer
friendly, and off the critical path (Section V-B step 5).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cache.hierarchy import CacheHierarchy
from repro.cache.tlb import Tlb
from repro.config import LINE_SIZE
from repro.stats import RnRStats

METADATA_PAGE_BYTES = 4 << 20  # 4 MB pages for metadata (Section V-A)
BUFFER_BYTES = 128  # per-table staging buffer (double-buffered lines)
#: Metadata lines :meth:`MetadataTable.stream_to` keeps on chip past the
#: one being read.
STREAM_LOOKAHEAD_LINES = 2


class CorruptMetadataError(ValueError):
    """A metadata entry decodes to something the hardware can prove is
    impossible (slot beyond the boundary register file, offset beyond the
    declared structure, value outside the entry encoding).

    The tables live in ordinary programmer-allocated memory, so stray
    stores *can* scribble on them; the replayer treats this error as a
    poisoned window and degrades to no-prefetch instead of prefetching
    garbage addresses."""


class MetadataTable:
    """Common machinery for the two in-memory metadata tables."""

    def __init__(self, name: str, base: int, capacity_bytes: int, entry_bytes: int):
        if entry_bytes <= 0 or capacity_bytes < entry_bytes:
            raise ValueError(
                f"{name}: bad geometry (capacity={capacity_bytes}, entry={entry_bytes})"
            )
        self.name = name
        self.base = base
        self.capacity_bytes = capacity_bytes
        self.entry_bytes = entry_bytes
        #: The table's contents, mutated in place (never rebound), so the
        #: replayer reads it directly on its per-line path.
        self.entries: List[int] = []
        self.entries_per_line = LINE_SIZE // entry_bytes
        self._tlb = Tlb(entries=4, page_bytes=METADATA_PAGE_BYTES)
        self._written_lines = 0
        #: Metadata lines streamed on chip since :meth:`reset_read`.
        self.fetched_lines = 0

    # -- geometry ----------------------------------------------------------
    @property
    def capacity_entries(self) -> int:
        """Maximum entries the allocation can hold."""
        return self.capacity_bytes // self.entry_bytes

    @property
    def size_bytes(self) -> int:
        """Bytes currently used."""
        return len(self.entries) * self.entry_bytes

    def address_of_entry(self, index: int) -> int:
        """Virtual address of entry ``index``."""
        return self.base + index * self.entry_bytes

    def line_of_entry(self, index: int) -> int:
        """Metadata cache-line index of entry ``index``."""
        return index // self.entries_per_line

    # -- record side -------------------------------------------------------
    def append(
        self,
        value: int,
        cycle: int,
        hierarchy: Optional[CacheHierarchy],
        stats: Optional[RnRStats] = None,
    ) -> None:
        """Append one entry; emits a metadata write per completed line."""
        if len(self.entries) >= self.capacity_entries:
            raise OverflowError(
                f"{self.name} overflow: programmer allocated "
                f"{self.capacity_bytes} bytes ({self.capacity_entries} entries)"
            )
        index = len(self.entries)
        self.entries.append(value)
        address = self.address_of_entry(index)
        if stats is not None and not self._tlb.access(address):
            stats.tlb_lookups += 1
        if (index + 1) % self.entries_per_line == 0 and hierarchy is not None:
            line_base = self.base + self._written_lines * LINE_SIZE
            hierarchy.metadata_write(line_base, cycle)
            self._written_lines += 1

    def flush(self, cycle: int, hierarchy: Optional[CacheHierarchy]) -> None:
        """Write out the partially-filled last buffer line."""
        full_lines = (len(self.entries) + self.entries_per_line - 1) // self.entries_per_line
        while self._written_lines < full_lines:
            if hierarchy is not None:
                line_base = self.base + self._written_lines * LINE_SIZE
                hierarchy.metadata_write(line_base, cycle)
            self._written_lines += 1

    # -- replay side ----------------------------------------------------------
    def reset_read(self) -> None:
        """Restart streaming from the table head."""
        self.fetched_lines = 0

    def stream_to(
        self, index: int, cycle: int, hierarchy: Optional[CacheHierarchy]
    ) -> int:
        """Ensure metadata through entry ``index`` (+lookahead) is on chip.

        Returns the cycle at which entry ``index`` is available.  With
        double buffering the fetch almost always completed long ago, so the
        common return value is ``cycle``.
        """
        if index >= len(self.entries):
            return cycle
        need_line = self.line_of_entry(index)
        target = min(
            need_line + STREAM_LOOKAHEAD_LINES,
            self.line_of_entry(len(self.entries) - 1),
        )
        ready = cycle
        while self.fetched_lines <= target:
            line_base = self.base + self.fetched_lines * LINE_SIZE
            completion = (
                hierarchy.metadata_read(line_base, cycle)
                if hierarchy is not None
                else cycle
            )
            if self.fetched_lines == need_line:
                ready = completion
            self.fetched_lines += 1
        return ready

    # -- fault injection ---------------------------------------------------
    # The tables are plain memory owned by the program, so tests (and the
    # chaos harness) can model what a buggy program does to them.
    def corrupt_entry(self, index: int, value: Optional[int] = None) -> int:
        """Overwrite entry ``index`` with a malformed ``value`` (default: a
        pattern no recorder can produce).  Returns the previous value."""
        previous = self.entries[index]
        if value is None:
            value = -(previous + 0x5A5A_5A5A) - 1  # negative: outside any encoding
        self.entries[index] = value
        return previous

    def truncate(self, length: int) -> int:
        """Model a partially lost table: drop entries beyond ``length``.
        Returns how many entries were removed."""
        if length < 0:
            raise ValueError(f"cannot truncate to negative length {length}")
        removed = max(0, len(self.entries) - length)
        del self.entries[length:]
        full_lines = (length + self.entries_per_line - 1) // self.entries_per_line
        self._written_lines = min(self._written_lines, full_lines)
        self.fetched_lines = min(self.fetched_lines, full_lines)
        return removed

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, index: int) -> int:
        return self.entries[index]


class SequenceTable(MetadataTable):
    """Records (slot, line-offset) pairs of flagged L2 misses.

    The hardware entry is the block offset within the structure; the
    boundary-register slot rides in the entry's top bits (the paper's two
    boundary registers need one bit).
    """

    SLOT_SHIFT = 28
    OFFSET_MASK = (1 << SLOT_SHIFT) - 1

    def __init__(self, base: int, capacity_bytes: int, entry_bytes: int = 4):
        super().__init__("SequenceTable", base, capacity_bytes, entry_bytes)

    def append_miss(
        self,
        slot: int,
        line_offset: int,
        cycle: int,
        hierarchy: Optional[CacheHierarchy],
        stats: Optional[RnRStats] = None,
    ) -> None:
        if line_offset >= (1 << self.SLOT_SHIFT):
            raise OverflowError(
                f"line offset {line_offset} exceeds sequence entry encoding"
            )
        self.append((slot << self.SLOT_SHIFT) | line_offset, cycle, hierarchy, stats)

    def miss_at(self, index: int) -> Tuple[int, int]:
        """Decode entry ``index`` into (slot, line_offset)."""
        raw = self.entries[index]
        return raw >> self.SLOT_SHIFT, raw & self.OFFSET_MASK

    def checked_line_addr(self, index: int, boundary) -> Optional[int]:
        """Decode entry ``index`` and resolve it with ``boundary``'s
        :meth:`~repro.rnr.boundary.BoundaryTable.resolve`, validating every
        step the hardware can check.

        Returns the prefetch line address; ``None`` for the benign
        unresolvable case (recorded slot disabled and not exactly one
        enabled register — the paper's base-swap convention cannot pick a
        target); raises :class:`CorruptMetadataError` for an entry that no
        recorder could have written.
        """
        raw = self.entries[index]
        if raw < 0 or raw >= (1 << (8 * self.entry_bytes)):
            raise CorruptMetadataError(
                f"sequence entry {index} value {raw:#x} outside the "
                f"{self.entry_bytes}-byte encoding"
            )
        try:
            return boundary.resolve(raw >> self.SLOT_SHIFT, raw & self.OFFSET_MASK)
        except CorruptMetadataError as exc:
            raise CorruptMetadataError(f"sequence entry {index}: {exc}") from None


class DivisionTable(MetadataTable):
    """Per-window progress counts: ``div[k]`` is the total number of
    structure reads seen when the k-th window of misses completed
    (Section V-A step 7).  Replay switches windows when ``Cur Struct Read``
    reaches ``div[cur_window + 1]``."""

    def __init__(self, base: int, capacity_bytes: int, entry_bytes: int = 8):
        super().__init__("DivisionTable", base, capacity_bytes, entry_bytes)

    def struct_reads_at_window_end(self, window: int) -> int:
        """Cumulative struct reads when the window closed."""
        return self.entries[window]

    @property
    def windows(self) -> int:
        """Number of recorded windows."""
        return len(self.entries)
