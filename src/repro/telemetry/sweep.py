"""Live sweep telemetry (supervisor side).

The supervised sweep already streams one message per cell over each
worker's pipe; when telemetry is enabled the workers additionally stream
``("tel", payload)`` heartbeats emitted by their runs' interval
samplers.  :class:`SweepTelemetry` records all of it with wall-clock
timestamps and writes, at the end of the sweep:

* ``sweep-events.jsonl`` — cell start / heartbeat / done / failed events;
* ``sweep-trace.json`` — a Chrome ``trace_event`` file with one row per
  worker and one span per cell attempt, so a whole sweep's scheduling
  (retries, requeues, stragglers) is inspectable in ``chrome://tracing``.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, Optional, Union

from repro.telemetry import export as export_mod
from repro.telemetry.chrome import ChromeTraceBuilder

#: File names written under the telemetry root.
SWEEP_EVENTS_NAME = "sweep-events.jsonl"
SWEEP_TRACE_NAME = "sweep-trace.json"


class SweepTelemetry:
    """Accumulates per-cell sweep events with wall-clock timestamps."""

    def __init__(self, out_dir: Union[str, Path]):
        self.out_dir = Path(out_dir)
        self.events: list = []
        self.began = time.monotonic()
        #: (worker_id, cell) -> span start (relative seconds).
        self._open: Dict[tuple, float] = {}
        self._spans: list = []  # (worker_id, cell, start_s, end_s, status, attempt)
        self.heartbeats = 0

    # ------------------------------------------------------------------
    def _now(self) -> float:
        return time.monotonic() - self.began

    def _append(self, event: dict) -> None:
        event["t"] = round(self._now(), 6)
        self.events.append(event)

    # ------------------------------------------------------------------
    def cell_started(self, worker_id: int, cell: str, attempt: int) -> None:
        self._open[(worker_id, cell)] = self._now()
        self._append(
            {"ev": "cell.start", "worker": worker_id, "cell": cell, "attempt": attempt}
        )

    def cell_heartbeat(self, worker_id: int, cell: str, payload: dict) -> None:
        self.heartbeats += 1
        event = {"ev": "cell.heartbeat", "worker": worker_id, "cell": cell}
        event.update(payload)
        self._append(event)

    # ------------------------------------------------------------------
    def cell_finished(
        self,
        worker_id: int,
        cell: str,
        status: str,
        attempt: int,
        duration: float,
        message: str = "",
    ) -> None:
        start = self._open.pop((worker_id, cell), None)
        end = self._now()
        if start is None:
            start = max(0.0, end - duration)
        self._spans.append((worker_id, cell, start, end, status, attempt))
        event = {
            "ev": f"cell.{status}",
            "worker": worker_id,
            "cell": cell,
            "attempt": attempt,
            "duration_s": round(duration, 4),
        }
        if message:
            event["message"] = message
        self._append(event)

    # ------------------------------------------------------------------
    def write(self, report: Optional[object] = None) -> Path:
        """Write both sweep artifacts; returns the telemetry root."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        closing = {"ev": "sweep.end", "heartbeats": self.heartbeats}
        if report is not None:
            closing.update(
                {
                    "simulated": getattr(report, "simulated", None),
                    "failed": len(getattr(report, "failures", [])),
                    "retried": getattr(report, "retried", None),
                }
            )
            store_counters = getattr(report, "trace_store", None)
            if store_counters is not None:
                closing["trace_store"] = dict(store_counters)
        self._append(closing)
        export_mod.write_jsonl(self.out_dir / SWEEP_EVENTS_NAME, self.events)

        trace = ChromeTraceBuilder(time_unit="wall-clock seconds")
        for worker_id, cell, start, end, status, attempt in self._spans:
            trace.thread_name(1, worker_id, f"worker {worker_id}")
            args = {"status": status, "attempt": attempt}
            trace.complete(
                cell,
                start * 1e6,  # seconds -> trace microseconds
                (end - start) * 1e6,
                pid=1,
                tid=worker_id,
                cat=f"cell.{status}",
                args=args,
            )
        trace.write(self.out_dir / SWEEP_TRACE_NAME)
        return self.out_dir
