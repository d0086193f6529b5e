"""The Replay state (paper Fig 4 right, Sections V-B and V-C).

Replay walks the recorded sequence table and turns every recorded miss
back into an L2 prefetch, *paced* against the program's progress through
the target structure:

* ``Cur Struct Read`` counts demand reads to the target structure, the
  same progress metric the recorder stored in the division table;
* demand is consuming window ``w`` while
  ``Cur Struct Read < div[w]``; when the count reaches ``div[w]`` the
  window counter advances and the *next* window's misses become eligible
  for prefetching (double buffering: prefetch runs exactly one window
  ahead, bounded by half the L2 as Section III prescribes);
* within a window, pace control spreads the prefetches evenly:
  ``N_pace = StructAccessesInCurrentWindow / WindowSize`` — one prefetch
  per ``N_pace`` structure reads (Fig 5 (d)).

Three control modes reproduce the Fig 10/11 ablation:

* ``NONE`` — one prefetch per demand structure access, no window bound
  (runs ahead of the program; prefetched data is evicted before use);
* ``WINDOW`` — burst the whole next window at each window switch;
* ``WINDOW_PACE`` — window bound plus even pacing (the full design).

The metadata tables live in ordinary programmer-allocated memory, so a
buggy program can scribble on them between record and replay.  Replay
therefore *validates* every sequence entry before issuing
(:meth:`~repro.rnr.tables.SequenceTable.checked_line_addr`): a provably
malformed entry poisons its window — the remainder of that window
degrades to no-prefetch (counted in ``stats.rnr.corrupt_entries`` /
``windows_skipped``) instead of crashing the simulation or prefetching
garbage addresses.  Corrupted division entries (non-monotonic progress
counts) degrade the same way on the pacing side: the window falls back to
the nominal pace.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Dict, Optional, Set

from repro.cache.hierarchy import CacheHierarchy
from repro.rnr.boundary import BoundaryTable
from repro.rnr.registers import RnRRegisters
from repro.rnr.tables import (
    STREAM_LOOKAHEAD_LINES,
    CorruptMetadataError,
    DivisionTable,
    SequenceTable,
)
from repro.stats import RnRStats


class ControlMode(Enum):
    NONE = "none"
    WINDOW = "window"
    WINDOW_PACE = "window+pace"


_MODE_NONE = ControlMode.NONE
_MODE_WINDOW = ControlMode.WINDOW
_MODE_WINDOW_PACE = ControlMode.WINDOW_PACE


class Replayer:
    """Issues replay prefetches with window/pace timing control."""

    def __init__(
        self,
        registers: RnRRegisters,
        boundary: BoundaryTable,
        sequence: SequenceTable,
        division: DivisionTable,
        stats: RnRStats,
        mode: ControlMode = ControlMode.WINDOW_PACE,
        issue: Optional[Callable[[int, int, int], bool]] = None,
    ):
        self.registers = registers
        self.boundary = boundary
        self.sequence = sequence
        self.division = division
        self.stats = stats
        self.mode = mode
        # issue(line_addr, cycle, window) -> bool; bound by the prefetcher.
        self._issue = issue if issue is not None else (lambda line, cycle, window: False)
        self.hierarchy: Optional[CacheHierarchy] = None
        # Telemetry collector (None unless the run enables telemetry).
        self.telemetry = None
        #: Prefetches issued per window (fault-degradation observability).
        self.issued_by_window: Dict[int, int] = {}
        #: Windows degraded to no-prefetch after a corrupt sequence entry.
        self.skipped_windows: Set[int] = set()
        self._corrupt_div_windows: Set[int] = set()

    # ------------------------------------------------------------------
    def begin(self, cycle: int) -> None:
        """Enter Replay: restart from the beginning of the sequence
        (Table I ``PrefetchState.replay()``)."""
        self.registers.reset_replay()
        self.sequence.reset_read()
        self.division.reset_read()
        self.issued_by_window = {}
        self.skipped_windows = set()
        self._corrupt_div_windows = set()
        if self.telemetry is not None:
            self.telemetry.on_replay_begin(
                cycle, len(self.division), self.registers.prefetch_pace
            )
        if self.mode is ControlMode.NONE:
            return
        # Prime the pipeline: fetch window 0 before demand starts.  Pace
        # control then keeps the pointer one window ahead of consumption;
        # pure window control bursts whole windows, so it primes both
        # buffers at once.
        prime_window = 0 if self.mode is ControlMode.WINDOW_PACE else 1
        self._prefetch_through(self._window_end_entry(prime_window), cycle, burst=True)
        self._update_pace()

    # ------------------------------------------------------------------
    # Window geometry
    # ------------------------------------------------------------------
    def _window_end_entry(self, window: int) -> int:
        """Index one past the last sequence entry of ``window``."""
        return min((window + 1) * self.registers.window_size, len(self.sequence))

    def _window_of_entry(self, index: int) -> int:
        return index // self.registers.window_size

    def _struct_reads_in_window(self, window: int) -> int:
        division = self.division
        if window >= len(division):
            return self.registers.window_size
        end = division[window]
        start = division[window - 1] if window > 0 else 0
        if end < start or end < 0 or start < 0:
            # Corrupted division entry (progress counts are monotonic by
            # construction): fall back to the nominal pace for this window
            # rather than dividing by a garbage count.
            if window not in self._corrupt_div_windows:
                self._corrupt_div_windows.add(window)
                self.stats.corrupt_entries += 1
            return self.registers.window_size
        return max(1, end - start)

    def _update_pace(self) -> None:
        """Fig 5 (d): N_pace = struct accesses in current window / W."""
        registers = self.registers
        accesses = self._struct_reads_in_window(registers.cur_window)
        registers.prefetch_pace = max(1, accesses // registers.window_size)

    # ------------------------------------------------------------------
    # Prefetch issue
    # ------------------------------------------------------------------
    def _prefetch_one(self, cycle: int) -> bool:
        """Issue the next sequence entry; returns False when exhausted.

        A provably corrupt entry poisons its window: the remaining entries
        of that window are skipped (no-prefetch degradation) and the
        pointer lands on the next window's first entry.
        """
        # Runs once per replayed line: the tables' lists are read directly
        # (no __len__/__getitem__), and stream_to is called only when the
        # lookahead is not already on chip (it would return ``cycle``).
        registers = self.registers
        sequence = self.sequence
        index = registers.replay_seq_ptr
        if index >= len(sequence.entries):
            return False
        if (
            index // sequence.entries_per_line + STREAM_LOOKAHEAD_LINES
            < sequence.fetched_lines
        ):
            ready = cycle
        else:
            ready = sequence.stream_to(index, cycle, self.hierarchy)
        window_size = registers.window_size
        if index % max(1, window_size) == 0:
            window = index // window_size
            if window < len(self.division.entries):
                ready = max(ready, self.division.stream_to(window, cycle, self.hierarchy))
        try:
            line_addr = sequence.checked_line_addr(index, self.boundary)
        except CorruptMetadataError:
            window = self._window_of_entry(index)
            self.stats.corrupt_entries += 1
            if window not in self.skipped_windows:
                self.skipped_windows.add(window)
                self.stats.windows_skipped += 1
                if self.telemetry is not None:
                    self.telemetry.on_window_skipped(window, cycle)
            registers.replay_seq_ptr = self._window_end_entry(window)
            return True
        registers.replay_seq_ptr = index + 1
        if line_addr is not None:
            window = index // window_size
            self._issue(line_addr, ready if ready > cycle else cycle, window)
            registers.prefetch_count += 1
            issued = self.issued_by_window
            issued[window] = issued.get(window, 0) + 1
        return True

    def _prefetch_through(self, end_index: int, cycle: int, burst: bool) -> None:
        while self.registers.replay_seq_ptr < end_index:
            if not self._prefetch_one(cycle):
                break

    # ------------------------------------------------------------------
    # Per-structure-read hook (Fig 4 Replay steps 6/7)
    # ------------------------------------------------------------------
    def on_struct_read(self, cycle: int) -> None:
        """Called for every demand read inside an enabled boundary range
        while in the Replay state (``Cur Struct Read`` already counted)."""
        registers = self.registers
        division = self.division.entries
        cur_window = registers.cur_window
        advanced = False
        while (
            cur_window < len(division)
            and registers.cur_struct_read >= division[cur_window]
        ):
            registers.window_struct_base = division[cur_window]
            cur_window += 1
            advanced = True
        registers.cur_window = cur_window
        mode = self.mode
        if mode is _MODE_NONE:
            # Uncontrolled: one prefetch per demand structure access (the
            # window counter above is tracked for accounting only).
            self._prefetch_one(cycle)
            return

        if advanced:
            self._update_pace()
            if self.telemetry is not None:
                self.telemetry.on_replay_window(
                    cur_window,
                    cycle,
                    registers.prefetch_pace,
                    self._struct_reads_in_window(cur_window),
                )
            # Finish anything still pending for the window demand just
            # entered — its data is needed now.
            self._prefetch_through(self._window_end_entry(cur_window), cycle, burst=True)
            if mode is _MODE_WINDOW:
                self._prefetch_through(
                    self._window_end_entry(cur_window + 1), cycle, burst=True
                )

        if mode is _MODE_WINDOW_PACE:
            reads_into_window = registers.cur_struct_read - registers.window_struct_base
            if reads_into_window % registers.prefetch_pace == 0:
                # Pointer inside _window_end_entry(cur_window + 1).
                pointer = registers.replay_seq_ptr
                if (
                    pointer < (cur_window + 2) * registers.window_size
                    and pointer < len(self.sequence.entries)
                ):
                    self._prefetch_one(cycle)
