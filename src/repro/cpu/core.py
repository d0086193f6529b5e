"""Out-of-order core approximation.

The model captures the three effects that matter for prefetcher studies:

* non-memory instructions retire at ``width`` per cycle;
* loads overlap (memory-level parallelism) until either the ROB fills
  (in-order retirement cannot run more than ``rob_entries`` instructions
  past the oldest incomplete load) or the LSQ fills;
* a long-latency miss eventually stalls retirement, so reducing misses
  (what prefetching does) directly raises IPC.

The MSHR files in the cache hierarchy bound how many of those overlapped
loads can actually be outstanding misses, which is what bounds achievable
MLP in ChampSim too.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

from repro.config import CoreConfig


class Core:
    """Cycle accounting for one hardware thread."""

    def __init__(self, config: CoreConfig):
        self.config = config
        self.cycle = 0
        self.instructions = 0
        self._width = config.width
        self._rob = config.rob_entries
        self._lsq = config.lsq_entries
        # (instruction number, completion cycle) of incomplete loads.
        self._pending: Deque[Tuple[int, int]] = deque()
        self._gap_remainder = 0

    # ------------------------------------------------------------------
    def advance(self, gap_instructions: int) -> None:
        """Retire ``gap_instructions`` non-memory instructions."""
        if gap_instructions <= 0:
            return
        self.instructions += gap_instructions
        total = gap_instructions + self._gap_remainder
        self.cycle += total // self._width
        self._gap_remainder = total % self._width
        # Drop loads that have completed by the new cycle.
        pending = self._pending
        cycle = self.cycle
        while pending and pending[0][1] <= cycle:
            pending.popleft()

    # ------------------------------------------------------------------
    def issue_cycle(self) -> int:
        """The cycle at which the next memory reference can issue."""
        # Hot path, one call per memory reference: drop completed loads,
        # then stall until the ROB and LSQ have room.
        pending = self._pending
        cycle = self.cycle
        while pending and pending[0][1] <= cycle:
            pending.popleft()
        if pending:
            instructions = self.instructions
            rob = self._rob
            lsq = self._lsq
            while pending:
                oldest_instr, oldest_done = pending[0]
                if instructions - oldest_instr < rob and len(pending) < lsq:
                    break
                if oldest_done > cycle:
                    cycle = oldest_done
                pending.popleft()
            self.cycle = cycle
        return cycle

    def issue_after(self, gap_instructions: int) -> int:
        """Fused ``advance(gap)`` + ``issue_cycle()`` (engine hot loops).

        Every memory reference in a trace is preceded by a (possibly
        zero) gap of non-memory instructions; fusing the two calls saves
        a method dispatch per trace entry and shares one drain scan of
        the pending-load deque instead of running it in both halves.
        The arithmetic is identical to calling the two methods in
        sequence.
        """
        if gap_instructions > 0:
            self.instructions += gap_instructions
            total = gap_instructions + self._gap_remainder
            self.cycle += total // self._width
            self._gap_remainder = total % self._width
        pending = self._pending
        cycle = self.cycle
        while pending and pending[0][1] <= cycle:
            pending.popleft()
        if pending:
            instructions = self.instructions
            rob = self._rob
            lsq = self._lsq
            while pending:
                oldest_instr, oldest_done = pending[0]
                if instructions - oldest_instr < rob and len(pending) < lsq:
                    break
                if oldest_done > cycle:
                    cycle = oldest_done
                pending.popleft()
            self.cycle = cycle
        return cycle

    def retire_load(self, completion: int) -> None:
        """Account one load instruction completing at ``completion``."""
        instructions = self.instructions = self.instructions + 1
        total = 1 + self._gap_remainder
        self.cycle += total // self._width
        self._gap_remainder = total % self._width
        if completion > self.cycle:
            self._pending.append((instructions, completion))

    def retire_store(self, completion: int) -> None:
        """Stores commit without blocking retirement (posted via the
        store buffer), but still consume a retire slot."""
        self.instructions += 1
        total = 1 + self._gap_remainder
        self.cycle += total // self._width
        self._gap_remainder = total % self._width

    def finish(self) -> int:
        """Drain all outstanding loads; returns the final cycle."""
        if self._pending:
            last = max(done for _, done in self._pending)
            if last > self.cycle:
                self.cycle = last
            self._pending.clear()
        return self.cycle

    @property
    def outstanding_loads(self) -> int:
        """Loads issued but not yet completed."""
        return len(self._pending)
