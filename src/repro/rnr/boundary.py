"""Boundary-checking address registers (spatial regions of interest).

Each register holds a virtual base address, a size, and an enable bit
(Section IV-A state (2)).  Every demand read checks these bounds before
address translation; a hit increments ``Cur Struct Read`` and flags the
memory packet so (a) its L2 miss is recorded/replayed and (b) the stream
prefetcher skips it (Fig 4 steps 1-4).

The sequence table stores *block offsets* relative to the matched base, so
a replay survives the programmer swapping base pointers between iterations
(Algorithm 1 lines 31-33: p_curr / p_next exchange).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.config import LINE_SIZE
from repro.rnr.tables import CorruptMetadataError


@dataclass
class BoundaryEntry:
    """One boundary register: base + size + enable."""

    base: int
    size: int
    enabled: bool = False

    def contains(self, address: int) -> bool:
        """Whether the address/element falls inside."""
        return self.enabled and self.base <= address < self.base + self.size


class BoundaryTable:
    """A small, per-core file of boundary registers.

    The paper's evaluation uses two registers (footnote 1); the count is a
    hardware parameter, so exceeding it raises.
    """

    def __init__(self, max_entries: int = 2):
        if max_entries < 1:
            raise ValueError(f"need at least one boundary register, got {max_entries}")
        self.max_entries = max_entries
        self._entries: List[BoundaryEntry] = []

    # -- software-visible operations (Table I AddrBase.*) --------------------
    def set(self, base: int, size: int) -> int:
        """Install a base/size pair; returns the register slot."""
        if size <= 0:
            raise ValueError(f"boundary size must be positive, got {size}")
        for slot, entry in enumerate(self._entries):
            if entry.base == base:
                entry.size = size
                return slot
        if len(self._entries) >= self.max_entries:
            raise RuntimeError(
                f"all {self.max_entries} boundary registers are in use"
            )
        self._entries.append(BoundaryEntry(base, size))
        return len(self._entries) - 1

    def _slot_of(self, base: int) -> int:
        for slot, entry in enumerate(self._entries):
            if entry.base == base:
                return slot
        raise KeyError(f"no boundary register holds base {base:#x}")

    def enable(self, base: int) -> None:
        self._entries[self._slot_of(base)].enabled = True

    def disable(self, base: int) -> None:
        self._entries[self._slot_of(base)].enabled = False

    def clear(self) -> None:
        """Drop everything."""
        self._entries.clear()

    # -- hardware-side check ----------------------------------------------
    def check(self, address: int) -> Optional[Tuple[int, int]]:
        """Bounds-check one demand access.

        Returns ``(slot, line_offset)`` when the address falls inside an
        enabled region — ``line_offset`` is the cache-line offset from the
        region base (what the sequence table records) — else None.
        """
        for slot, entry in enumerate(self._entries):
            if entry.enabled and entry.base <= address < entry.base + entry.size:
                return slot, (address - entry.base) // LINE_SIZE
        return None

    def resolve(self, slot: int, line_offset: int) -> Optional[int]:
        """Translate a recorded (slot, offset) back to a cache-line address
        using the *currently configured* bases -- the one resolver replay
        uses (:meth:`~repro.rnr.tables.SequenceTable.checked_line_addr`).

        ``slot`` and ``line_offset`` are the unsigned fields of a decoded
        sequence entry.  If the recorded slot is disabled (the programmer
        swapped bases between iterations), the offset is applied to the
        enabled register instead -- the paper's base-swap convention;
        with zero or several enabled registers there is no unambiguous
        target and the result is None.  A slot beyond the register file
        or an offset beyond the target structure is something no recorder
        can write, so it raises :class:`CorruptMetadataError`.
        """
        entries = self._entries
        if slot >= len(entries) or slot >= self.max_entries:
            raise CorruptMetadataError(
                f"boundary slot {slot} named, but only {len(entries)} of "
                f"{self.max_entries} registers are set"
            )
        entry = entries[slot]
        if not entry.enabled:
            # Base swap: exactly one enabled register is the target.  A
            # loop rather than a filtered list -- in the replay iterations
            # after a swap every replayed line takes this branch.
            entry = None
            for candidate in entries:
                if candidate.enabled:
                    if entry is not None:
                        return None
                    entry = candidate
            if entry is None:
                return None
        offset = line_offset * LINE_SIZE
        if offset >= entry.size:
            raise CorruptMetadataError(
                f"offset {line_offset} is beyond the {entry.size}-byte "
                f"structure at {entry.base:#x}"
            )
        return (entry.base + offset) // LINE_SIZE

    # -- introspection ------------------------------------------------------
    @property
    def entries(self) -> List[BoundaryEntry]:
        """Current register-file contents."""
        return list(self._entries)

    def snapshot(self) -> list:
        """Copy out the state (context switch)."""
        return [(e.base, e.size, e.enabled) for e in self._entries]

    def restore(self, snapshot: list) -> None:
        """Copy state back in (context switch)."""
        self._entries = [BoundaryEntry(b, s, en) for b, s, en in snapshot]
