"""The RnR prefetcher as seen by the simulator (Fig 4 integration).

Pulls the pieces together:

* boundary check + ``Cur Struct Read`` on every demand read;
* packet flagging so the L2 event handler knows a miss belongs to the
  target structure (and so a composite stream prefetcher skips it);
* Record state -> :class:`~repro.rnr.recorder.Recorder`;
* Replay state -> :class:`~repro.rnr.replayer.Replayer` with the chosen
  timing-control mode;
* the Fig 11 timeliness breakdown (on-time / early / late / out-of-window)
  via the hierarchy's unused-prefetch classifier;
* context-switch save/restore (Section IV-C).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.prefetchers.base import Prefetcher
from repro.cache.hierarchy import L2Event
from repro.rnr.boundary import BoundaryTable
from repro.rnr.recorder import Recorder
from repro.rnr.registers import RnRRegisters
from repro.rnr.replayer import ControlMode, Replayer
from repro.rnr.state import PrefetchState, PrefetchStateMachine
from repro.rnr.tables import DivisionTable, SequenceTable

_RECORD = PrefetchState.RECORD
_REPLAY = PrefetchState.REPLAY
_EVENT_MISS = L2Event.MISS


class RnRPrefetcher(Prefetcher):
    name = "rnr"

    def __init__(
        self,
        mode: ControlMode = ControlMode.WINDOW_PACE,
        boundary_registers: int = 2,
        seq_entry_bytes: int = 4,
        div_entry_bytes: int = 8,
    ):
        super().__init__()
        self.mode = mode if isinstance(mode, ControlMode) else ControlMode(mode)
        self.machine = PrefetchStateMachine()
        self.registers = RnRRegisters()
        self.boundary = BoundaryTable(max_entries=boundary_registers)
        self.seq_entry_bytes = seq_entry_bytes
        self.div_entry_bytes = div_entry_bytes
        self.sequence: Optional[SequenceTable] = None
        self.division: Optional[DivisionTable] = None
        self.recorder: Optional[Recorder] = None
        self.replayer: Optional[Replayer] = None
        self._last_check: Optional[Tuple[int, int]] = None
        self._evicted_unused: Dict[int, int] = {}
        self._finalized = False

    # ------------------------------------------------------------------
    def attach(self, hierarchy, stats):
        """Bind to a core's hierarchy before simulation."""
        super().attach(hierarchy, stats)
        hierarchy.unused_prefetch_classifier = self._classify_unused

    def attach_telemetry(self, collector):
        """Propagate the collector to the live recorder/replayer (and to
        any created by a later ``rnr.init`` directive)."""
        super().attach_telemetry(collector)
        if self.recorder is not None:
            self.recorder.telemetry = collector
        if self.replayer is not None:
            self.replayer.telemetry = collector

    # ------------------------------------------------------------------
    # Software directives (Table I calls arriving through the trace)
    # ------------------------------------------------------------------
    def on_directive(self, op, args, cycle):
        """Software-directive hook (Table I calls)."""
        if not op.startswith("rnr."):
            return
        if op == "rnr.init":
            self._handle_init(args)
        elif op == "rnr.addr_base.set":
            self.boundary.set(args[0], args[1])
        elif op == "rnr.addr_base.enable":
            self.boundary.enable(args[0])
        elif op == "rnr.addr_base.disable":
            self.boundary.disable(args[0])
        elif op == "rnr.window_size.set":
            self.registers.window_size = args[0]
        elif op == "rnr.state.start":
            self.machine.start()
        elif op == "rnr.state.replay":
            was_recording = self.machine.recording
            self.machine.replay()
            if was_recording:
                self._recorder_required().finish(cycle, self.hierarchy)
            self._replayer_required().begin(cycle)
        elif op == "rnr.state.pause":
            self.machine.pause()
            self.stats.rnr.pauses += 1
        elif op == "rnr.state.resume":
            self.machine.resume()
            self.stats.rnr.resumes += 1
        elif op == "rnr.state.end":
            if self.machine.recording:
                self._recorder_required().finish(cycle, self.hierarchy)
            self.machine.end()
        elif op == "rnr.end":
            self.sequence = None
            self.division = None
            self.recorder = None
            self.replayer = None
            self.boundary.clear()
        else:
            raise ValueError(f"unknown RnR directive {op!r}")

    def _handle_init(self, args) -> None:
        seq_base, seq_cap, div_base, div_cap, window, asid = args
        self.registers.asid = asid
        self.registers.window_size = window
        self.registers.seq_table_base = seq_base
        self.registers.div_table_base = div_base
        self.registers.seq_table_len = 0
        self.registers.div_table_len = 0
        self.sequence = SequenceTable(seq_base, seq_cap, self.seq_entry_bytes)
        self.division = DivisionTable(div_base, div_cap, self.div_entry_bytes)
        self.recorder = Recorder(
            self.registers, self.sequence, self.division, self.stats.rnr
        )
        self.replayer = Replayer(
            self.registers,
            self.boundary,
            self.sequence,
            self.division,
            self.stats.rnr,
            mode=self.mode,
            issue=self._issue_replay,
        )
        self.replayer.hierarchy = self.hierarchy
        if self.telemetry is not None:
            self.recorder.telemetry = self.telemetry
            self.replayer.telemetry = self.telemetry

    def _recorder_required(self) -> Recorder:
        if self.recorder is None:
            raise RuntimeError("RnR state call before RnR.init()")
        return self.recorder

    def _replayer_required(self) -> Replayer:
        if self.replayer is None:
            raise RuntimeError("RnR replay before RnR.init()")
        return self.replayer

    # ------------------------------------------------------------------
    # Demand-side hooks
    # ------------------------------------------------------------------
    def on_access(self, address, pc, cycle, is_store):
        """Demand-reference hook; returns the RnR packet flag."""
        # Runs on every reference: the state register is compared directly
        # rather than through the machine's recording/replaying properties.
        self._last_check = None
        if is_store:
            return False
        state = self.machine.state
        if state is not _REPLAY and state is not _RECORD:
            return False
        hit = self.boundary.check(address)
        if hit is None:
            return False
        self._last_check = hit
        self.registers.cur_struct_read += 1
        self.stats.rnr.struct_reads += 1
        if state is _REPLAY:
            self._replayer_required().on_struct_read(cycle)
        return True

    def on_l2_event(self, line_addr, pc, cycle, event, flagged, completion=0):
        """L2 outcome hook (training input)."""
        if not flagged:
            return
        if event is _EVENT_MISS:
            state = self.machine.state
            if state is _RECORD and self._last_check is not None:
                slot, offset = self._last_check
                self._recorder_required().record_miss(
                    slot, offset, cycle, self.hierarchy
                )
            elif state is _REPLAY:
                self._account_missed_window(line_addr)

    # ------------------------------------------------------------------
    # Timeliness classification (Fig 11)
    # ------------------------------------------------------------------
    def _issue_replay(self, line_addr: int, cycle: int, window: int) -> bool:
        tracer = self.hierarchy.tracer
        if tracer is not None:
            tracer.source = self.name
        return self.hierarchy.prefetch_l2(line_addr, cycle, pf_window=window)

    def _classify_unused(self, line_addr: int, pf_window: int) -> None:
        """Called by the hierarchy when a prefetched line is evicted (or
        still resident at drain) without a demand hit."""
        if self._finalized:
            self.stats.prefetch.out_of_window += 1
            return
        if line_addr in self._evicted_unused:
            # The line was re-prefetched before its earlier unused copy was
            # ever demanded: that earlier prefetch missed its window.
            self.stats.prefetch.out_of_window += 1
        self._evicted_unused[line_addr] = pf_window

    def _account_missed_window(self, line_addr: int) -> None:
        """A flagged demand miss during replay: if we prefetched this line
        for the current window but it was evicted first, that prefetch was
        *early*; if it was evicted and is only demanded in some other
        window (or never), it was *out of window*."""
        pf_window = self._evicted_unused.pop(line_addr, None)
        if pf_window is None:
            return
        if pf_window == self.registers.cur_window:
            self.stats.prefetch.early += 1
        else:
            self.stats.prefetch.out_of_window += 1

    def finalize(self, cycle):
        """End-of-trace hook."""
        if self.machine.recording:
            self._recorder_required().finish(cycle, self.hierarchy)
        self._finalized = True
        self.stats.prefetch.out_of_window += len(self._evicted_unused)
        self._evicted_unused.clear()

    # ------------------------------------------------------------------
    # Context switch (Section IV-C)
    # ------------------------------------------------------------------
    def save_context(self) -> dict:
        """Pause + copy out the 86.5 B of RnR state."""
        return {
            "registers": self.registers.snapshot(),
            "boundary": self.boundary.snapshot(),
            "state": self.machine.state,
        }

    def restore_context(self, saved: dict) -> None:
        self.registers.restore(saved["registers"])
        self.boundary.restore(saved["boundary"])
        self.machine.state = saved["state"]

    # ------------------------------------------------------------------
    @property
    def metadata_bytes(self) -> int:
        """Current metadata footprint (Fig 13 storage overhead)."""
        total = 0
        if self.sequence is not None:
            total += self.sequence.size_bytes
        if self.division is not None:
            total += self.division.size_bytes
        return total
