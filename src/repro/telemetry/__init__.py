"""Simulator-wide observability: metrics, tracing, and exporters.

The telemetry subsystem gives every layer of the reproduction one shared
measurement substrate (see ``docs/TELEMETRY.md``):

* :class:`~repro.telemetry.collector.Collector` — the hook protocol the
  engine, cache hierarchy, MSHRs, RnR recorder/replayer, and prefetchers
  talk to; the default :data:`~repro.telemetry.collector.NULL_COLLECTOR`
  keeps the simulator on its original uninstrumented hot loops;
* :class:`~repro.telemetry.sampler.IntervalSampler` — columnar
  time-series of :class:`~repro.stats.SimStats` counter deltas every N
  cycles, whose sums reconcile exactly with the end-of-run totals;
* :class:`~repro.telemetry.lifecycle.LifecycleTracer` — per-prefetch
  issue → fill → first-use / eviction tracing with RnR-window and
  baseline-prefetcher attribution;
* exporters — JSONL event logs, CSV time series, and Chrome
  ``trace_event`` files loadable in ``chrome://tracing``;
* :class:`~repro.telemetry.sweep.SweepTelemetry` — live per-cell
  heartbeat/progress telemetry for the supervised experiment sweep;
* ``python -m repro.telemetry.check`` — schema validation for everything
  the subsystem emits.
"""

from repro.telemetry.chrome import ChromeTraceBuilder
from repro.telemetry.collector import (
    NULL_COLLECTOR,
    Collector,
    NullCollector,
    TelemetryCollector,
)
from repro.telemetry.config import DEFAULT_SAMPLE_INTERVAL, TelemetryConfig
from repro.telemetry.export import read_csv, write_csv, write_jsonl
from repro.telemetry.lifecycle import EventLog, LifecycleTracer
from repro.telemetry.sampler import IntervalSampler
from repro.telemetry.sweep import SweepTelemetry

__all__ = [
    "ChromeTraceBuilder",
    "Collector",
    "DEFAULT_SAMPLE_INTERVAL",
    "EventLog",
    "IntervalSampler",
    "LifecycleTracer",
    "NULL_COLLECTOR",
    "NullCollector",
    "SweepTelemetry",
    "TelemetryCollector",
    "TelemetryConfig",
    "read_csv",
    "write_csv",
    "write_jsonl",
]
