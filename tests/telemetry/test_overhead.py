"""Disabled telemetry must be free.

The acceptance bar for the telemetry subsystem is that the default
(null-collector) configuration leaves the engine hot loop untouched:

* a **paired** measurement — the default engine vs one constructed with an
  explicit :class:`~repro.telemetry.collector.NullCollector` — must agree
  within 2 %, proving the disabled path is the same code either way;
* the measured throughput must also clear the committed
  ``BENCH_engine.json`` regression floor (same generous tolerance as the
  benchmark harness), so the telemetry-era loop restructuring cannot
  silently cost an order of magnitude.
"""

import json
import random
import time
from pathlib import Path

import pytest

from repro.config import SystemConfig
from repro.prefetchers import make_prefetcher
from repro.sim.engine import SimulationEngine
from repro.telemetry.collector import NullCollector, TelemetryCollector
from repro.telemetry.config import TelemetryConfig
from repro.trace import AddressSpace, TraceBuilder

BASELINE_PATH = Path(__file__).resolve().parents[2] / "BENCH_engine.json"

#: Same generous floor as benchmarks/bench_engine_throughput.py.
REGRESSION_TOLERANCE = 0.30

#: Paired same-process runs of identical code should agree much tighter
#: than this; 2 % is the subsystem's stated overhead budget.
PAIRED_TOLERANCE = 0.02


def build_trace(accesses=30_000, footprint=32_768):
    """Pointer-chase demand trace (same shape as the engine bench)."""
    rng = random.Random(7)
    space = AddressSpace()
    array = space.alloc("x", footprint, 8)
    builder = TraceBuilder()
    builder.iter_begin(0)
    for _ in range(accesses):
        builder.work(5)
        builder.load(array.addr(rng.randrange(footprint)), pc=0x100)
    builder.iter_end(0)
    return builder.build()


def _one_rate(trace, collector, config, entries, prefetcher_name=None):
    prefetcher = make_prefetcher(prefetcher_name) if prefetcher_name else None
    engine = SimulationEngine(config, prefetcher, collector=collector)
    began = time.perf_counter()
    engine.run(trace)
    return entries / (time.perf_counter() - began)


def best_rates(trace, repeats=5, prefetcher_name=None):
    """Interleaved best-of-``repeats`` (default, null) entries/second.

    Alternating the two variants within each round keeps slow drift
    (frequency scaling, background load) from landing on only one side
    of the comparison.
    """
    config = SystemConfig.experiment()
    entries = len(trace)
    best_default = best_null = 0.0
    for _ in range(repeats):
        best_default = max(
            best_default,
            _one_rate(trace, None, config, entries, prefetcher_name),
        )
        best_null = max(
            best_null,
            _one_rate(trace, NullCollector(), config, entries, prefetcher_name),
        )
    return best_default, best_null


def test_null_collector_is_free():
    trace = build_trace()
    # Warm both variants so neither benefits from cache effects alone.
    best_rates(trace, repeats=1)
    # The paths are byte-identical, so any honest measurement passes; a
    # couple of retries absorb scheduler noise on loaded machines.
    for attempt in range(3):
        default_rate, null_rate = best_rates(trace)
        ratio = null_rate / default_rate
        if ratio >= 1.0 - PAIRED_TOLERANCE:
            break
    assert ratio >= 1.0 - PAIRED_TOLERANCE, (
        f"explicit NullCollector is {100 * (1 - ratio):.1f}% slower than the "
        f"default engine ({null_rate:.0f} vs {default_rate:.0f} entries/s); "
        "the disabled path must be the unchanged hot loop"
    )

    # Sanity floor against the committed baseline (skip if absent).
    try:
        baseline = json.loads(BASELINE_PATH.read_text())["entries_per_second"]
    except (OSError, ValueError, KeyError):
        pytest.skip(f"no committed baseline at {BASELINE_PATH}")
    floor = baseline["demand"] * (1.0 - REGRESSION_TOLERANCE)
    rate = max(default_rate, null_rate)
    assert rate >= floor, (
        f"engine throughput with telemetry compiled in regressed: "
        f"{rate:.0f} entries/s vs committed {baseline['demand']:.0f} "
        f"(floor {floor:.0f})"
    )


def test_null_collector_is_free_on_hooks_loop():
    """Same paired guard on the hooks fast loop (non-slim prefetcher):
    the inlined L1-hit path with prefetcher hooks must not grow a
    telemetry branch either."""
    trace = build_trace(accesses=20_000)
    best_rates(trace, repeats=1, prefetcher_name="rnr")
    for attempt in range(3):
        default_rate, null_rate = best_rates(trace, prefetcher_name="rnr")
        ratio = null_rate / default_rate
        if ratio >= 1.0 - PAIRED_TOLERANCE:
            break
    assert ratio >= 1.0 - PAIRED_TOLERANCE, (
        f"explicit NullCollector is {100 * (1 - ratio):.1f}% slower than the "
        f"default engine on the hooks loop ({null_rate:.0f} vs "
        f"{default_rate:.0f} entries/s)"
    )


@pytest.mark.parametrize("prefetcher_name", [None, "rnr"])
def test_sampler_totals_reconcile(prefetcher_name):
    """The sampler's column sums reconcile *exactly* with the end-of-run
    totals: every sample point sees up-to-date counters."""
    trace = build_trace(accesses=8_000)
    collector = TelemetryCollector(
        TelemetryConfig(out_dir=None, sample_interval=500)
    )
    prefetcher = make_prefetcher(prefetcher_name) if prefetcher_name else None
    engine = SimulationEngine(
        SystemConfig.experiment(), prefetcher, collector=collector
    )
    engine.run(trace)
    assert len(collector.sampler.rows) > 5  # actually sampled mid-run
    totals = collector.sampler.totals()
    final = engine.stats.flat_counters()
    assert totals == final
    # The L1 counters specifically: nonzero and exactly reconciled.
    assert totals["l1d.demand_accesses"] == (
        engine.stats.l1d.demand_hits + engine.stats.l1d.demand_misses
    )
    assert totals["l1d.demand_hits"] > 0
    assert totals["l1d.demand_misses"] > 0
