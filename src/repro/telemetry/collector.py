"""The collector protocol and its two implementations.

:class:`Collector` is the full hook surface the simulator talks to; the
default :class:`NullCollector` (singleton :data:`NULL_COLLECTOR`) keeps
every hook a no-op and — critically — keeps :attr:`Collector.enabled`
False, which the engine checks **once** per run to pick its original,
uninstrumented hot loops.  A disabled run therefore executes byte-for-byte
the same per-entry code as before the telemetry subsystem existed.

:class:`TelemetryCollector` is the real thing: it owns the
:class:`~repro.telemetry.sampler.IntervalSampler`, the
:class:`~repro.telemetry.lifecycle.LifecycleTracer`, and the event log,
and exports JSONL events, the CSV time series, a JSON summary, and
(optionally) a Chrome ``trace_event`` file per simulated cell.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Optional, Union

from repro.stats import SimStats
from repro.telemetry import export as export_mod
from repro.telemetry.chrome import ChromeTraceBuilder
from repro.telemetry.config import TelemetryConfig
from repro.telemetry.lifecycle import EventLog, LifecycleTracer
from repro.telemetry.sampler import IntervalSampler

#: Sentinel "never" cycle for the engine's sampling comparison.
_NEVER = 1 << 62

#: Event-log cap per run; excess events are counted, not silently lost.
MAX_EVENTS = 1_000_000

#: Minimum wall-clock seconds between heartbeat emissions.
HEARTBEAT_SECONDS = 0.5


class Collector:
    """Null protocol: every hook is a no-op; subclass what you need."""

    enabled = False
    #: The engine samples when ``core.cycle >= next_sample``.
    next_sample = _NEVER
    #: Hierarchy/MSHR-side hook receiver (None = nothing wired).
    tracer: Optional[LifecycleTracer] = None

    # -- engine hooks --------------------------------------------------
    def on_run_begin(
        self, trace_entries: int, stats: SimStats, prefetcher_name: str
    ) -> None:
        pass

    def maybe_sample(self, cycle: int) -> None:
        pass

    def on_run_end(self, stats: SimStats, cycle: int) -> None:
        pass

    def on_phase_begin(self, name: str, cycle: int) -> None:
        pass

    def on_phase_end(self, name: str, cycle: int, phase) -> None:
        pass

    def on_directive(self, op: str, args: tuple, cycle: int) -> None:
        pass

    # -- RnR hooks -----------------------------------------------------
    def on_window_recorded(self, window: int, cycle: int, struct_reads: int) -> None:
        pass

    def on_replay_begin(self, cycle: int, windows: int, pace: int) -> None:
        pass

    def on_replay_window(
        self, window: int, cycle: int, pace: int, struct_reads: int
    ) -> None:
        pass

    def on_window_skipped(self, window: int, cycle: int) -> None:
        pass


class NullCollector(Collector):
    """Explicit do-nothing collector (the default)."""


#: Shared default instance — one object for every disabled run.
NULL_COLLECTOR = NullCollector()


class TelemetryCollector(Collector):
    """Collects one run's telemetry and exports it."""

    enabled = True

    def __init__(self, config: Optional[TelemetryConfig] = None):
        self.config = config if config is not None else TelemetryConfig(out_dir=None)
        self.log = EventLog(MAX_EVENTS)
        self.sampler = IntervalSampler(self.config.sample_interval)
        self.tracer = LifecycleTracer(self.log)
        self.next_sample = _NEVER
        self.prefetcher_name = "?"
        self.trace_entries = 0
        self.final_cycle = 0
        self.final_stats: Optional[SimStats] = None
        # Span bookkeeping for the Chrome export.
        self._phase_stack: list = []
        self.phase_spans: list = []  # (name, begin, end, ipc)
        self._record_marks: list = []  # ("start", cycle) | ("close", w, cycle, reads)
        self._replay_sessions: list = []  # [[(window, enter, pace, reads), ...], ...]
        self._last_heartbeat = 0.0

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------
    def on_run_begin(
        self, trace_entries: int, stats: SimStats, prefetcher_name: str
    ) -> None:
        self.trace_entries = trace_entries
        self.prefetcher_name = prefetcher_name
        self.tracer.source = prefetcher_name
        self.sampler.begin(stats)
        self.next_sample = self.sampler.next_sample
        self._last_heartbeat = time.monotonic()
        self.log.append(
            {
                "ev": "run.begin",
                "cycle": 0,
                "prefetcher": prefetcher_name,
                "trace_entries": trace_entries,
                "sample_interval": self.config.sample_interval,
            }
        )

    def maybe_sample(self, cycle: int) -> None:
        if cycle < self.next_sample:
            return
        deltas = self.sampler.sample(cycle)
        self.next_sample = self.sampler.next_sample
        heartbeat = self.config.heartbeat
        if heartbeat is not None:
            now = time.monotonic()
            if now - self._last_heartbeat >= HEARTBEAT_SECONDS:
                self._last_heartbeat = now
                heartbeat(
                    {
                        "cycle": cycle,
                        "instructions": deltas.get("instructions", 0),
                        "l2_demand_misses": deltas.get("l2.demand_misses", 0),
                        "prefetch_issued": deltas.get("prefetch.issued", 0),
                    }
                )

    def on_run_end(self, stats: SimStats, cycle: int) -> None:
        self.sampler.finish(cycle)
        self.next_sample = _NEVER
        self.final_cycle = cycle
        self.final_stats = stats
        self.log.append({"ev": "run.end", "cycle": cycle, "ipc": stats.ipc})

    def on_phase_begin(self, name: str, cycle: int) -> None:
        self._phase_stack.append((name, cycle))
        self.log.append({"ev": "phase.begin", "cycle": cycle, "phase": name})

    def on_phase_end(self, name: str, cycle: int, phase) -> None:
        begin = cycle
        if self._phase_stack and self._phase_stack[-1][0] == name:
            begin = self._phase_stack.pop()[1]
        self.phase_spans.append((name, begin, cycle, phase.ipc))
        self.log.append(
            {
                "ev": "phase.end",
                "cycle": cycle,
                "phase": name,
                "instructions": phase.instructions,
                "cycles": phase.cycles,
                "ipc": round(phase.ipc, 4),
                "l2_demand_misses": phase.l2_demand_misses,
            }
        )

    def on_directive(self, op: str, args: tuple, cycle: int) -> None:
        if op.startswith("iter."):
            return  # already covered by the phase hooks
        self.log.append({"ev": "directive", "cycle": cycle, "op": op})
        if op == "rnr.state.start":
            self._record_marks.append(("start", cycle))

    # ------------------------------------------------------------------
    # RnR hooks
    # ------------------------------------------------------------------
    def on_window_recorded(self, window: int, cycle: int, struct_reads: int) -> None:
        self._record_marks.append(("close", window, cycle, struct_reads))
        self.log.append(
            {
                "ev": "rnr.window.record",
                "cycle": cycle,
                "window": window,
                "struct_reads": struct_reads,
            }
        )

    def on_replay_begin(self, cycle: int, windows: int, pace: int) -> None:
        self._replay_sessions.append([(0, cycle, pace, 0)])
        self.log.append(
            {
                "ev": "rnr.replay.begin",
                "cycle": cycle,
                "windows": windows,
                "pace": pace,
            }
        )

    def on_replay_window(
        self, window: int, cycle: int, pace: int, struct_reads: int
    ) -> None:
        if not self._replay_sessions:
            self._replay_sessions.append([])
        self._replay_sessions[-1].append((window, cycle, pace, struct_reads))
        self.log.append(
            {
                "ev": "rnr.window.enter",
                "cycle": cycle,
                "window": window,
                "pace": pace,
                "struct_reads": struct_reads,
            }
        )

    def on_window_skipped(self, window: int, cycle: int) -> None:
        self.log.append({"ev": "rnr.window.skip", "cycle": cycle, "window": window})

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def summary(self, cell: str = "") -> dict:
        final = self.final_stats.as_dict() if self.final_stats is not None else {}
        return {
            "cell": cell,
            "prefetcher": self.prefetcher_name,
            "trace_entries": self.trace_entries,
            "final_cycle": self.final_cycle,
            "final": final,
            "events": len(self.log.events),
            "events_dropped": self.log.dropped,
            "windows": self.tracer.window_summary(),
            "mshr_stalls": dict(self.tracer.mshr_stalls),
            "timeseries": {
                "interval": self.config.sample_interval,
                "rows": len(self.sampler.rows),
                "columns": list(self.sampler.columns),
            },
        }

    def build_chrome_trace(self, cell: str = "") -> ChromeTraceBuilder:
        """Phase/window/state spans plus interval counters, cycle time."""
        trace = ChromeTraceBuilder(time_unit="cycles (1 cycle = 1us)")
        label = cell or self.prefetcher_name
        trace.thread_name(0, 0, "phases")
        trace.thread_name(0, 1, "rnr record")
        trace.thread_name(0, 2, "rnr replay")
        trace.thread_name(0, 3, "counters")
        trace.complete(
            f"run {label}",
            0,
            self.final_cycle,
            tid=0,
            cat="run",
            args={"prefetcher": self.prefetcher_name, "entries": self.trace_entries},
        )
        for name, begin, end, ipc in self.phase_spans:
            trace.complete(
                name, begin, end - begin, tid=0, cat="phase", args={"ipc": round(ipc, 4)}
            )
        # Record-side window spans: each recorded window spans from the
        # previous close (or record start) to its own close.
        window_stats = self.tracer.windows
        previous = 0
        reads_before = 0
        for mark in self._record_marks:
            if mark[0] == "start":
                previous = mark[1]
                reads_before = 0
                trace.instant("record.start", mark[1], tid=1, cat="rnr")
                continue
            _, window, cycle, struct_reads = mark
            trace.complete(
                f"record window {window}",
                previous,
                cycle - previous,
                tid=1,
                cat="rnr.record",
                args={
                    "window": window,
                    "struct_reads": struct_reads - reads_before,
                },
            )
            previous = cycle
            reads_before = struct_reads
        # Replay-side window spans carry the pacing annotations.
        sessions = self._replay_sessions
        for index, session in enumerate(sessions):
            if index + 1 < len(sessions) and sessions[index + 1]:
                session_end = sessions[index + 1][0][1]
            else:
                session_end = self.final_cycle
            for position, (window, enter, pace, struct_reads) in enumerate(session):
                end = (
                    session[position + 1][1]
                    if position + 1 < len(session)
                    else session_end
                )
                stats = window_stats.get(window)
                args = {"window": window, "pace": pace, "struct_reads": struct_reads}
                if stats is not None:
                    args["issued"] = stats.issued
                    args["used"] = stats.used
                    args["evicted_unused"] = stats.evicted_unused
                trace.complete(
                    f"replay window {window}",
                    enter,
                    end - enter,
                    tid=2,
                    cat="rnr.replay",
                    args=args,
                )
        # Interval counters from the sampled time series.
        columns = self.sampler.columns
        tracked = [
            name
            for name in ("instructions", "l2.demand_misses", "prefetch.issued", "prefetch.useful")
            if name in columns
        ]
        indices = {name: columns.index(name) for name in tracked}
        for row in self.sampler.rows:
            cycle = row[0]
            trace.counter(
                "interval deltas",
                cycle,
                {name: row[i] for name, i in indices.items()},
                tid=3,
            )
        for event in self.log.events:
            if event["ev"] == "rnr.window.skip":
                trace.instant(
                    f"window {event['window']} skipped",
                    event["cycle"],
                    tid=2,
                    cat="rnr.fault",
                )
        return trace

    def export(self, out_dir: Union[str, Path], cell: str = "") -> Path:
        """Write events.jsonl / timeseries.csv / summary.json (and
        trace.json when Chrome export is on) under ``out_dir``."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        export_mod.write_jsonl(out_dir / "events.jsonl", self.log.events)
        export_mod.write_csv(
            out_dir / "timeseries.csv", self.sampler.columns, self.sampler.rows
        )
        import json

        (out_dir / "summary.json").write_text(
            json.dumps(self.summary(cell), indent=2, sort_keys=True) + "\n"
        )
        if self.config.trace_events:
            self.build_chrome_trace(cell).write(out_dir / "trace.json")
        return out_dir
