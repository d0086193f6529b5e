"""Engine hot-loop and trace-acquisition throughput.

Whole figure cells are timed by ``perfbench/``; this bench isolates two
hot paths and reports comparable single numbers:

* ``SimulationEngine.run`` + ``Trace`` iteration — trace entries consumed
  per wall-clock second, so loop-level regressions are visible independent
  of workload mix: ``demand`` (no prefetcher), ``rnr`` (the RnR
  prefetcher on an instrumented trace) and ``multicore`` (the 4-core
  k-way merge).  These are synthetic micro-benchmarks, not figure cells;
* trace **acquisition** — building each Fig-6 (app x input) row's trace in
  Python vs mmap-loading it from a warm
  :class:`~repro.trace.store.TraceStore`, the sweep's next biggest fixed
  cost after the hot loop.  The store must be at least
  :data:`STORE_SPEEDUP_FLOOR` x faster than rebuild.

Run standalone to (re)write the ``BENCH_engine.json`` baseline at the repo
root::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py

or through pytest-benchmark::

    pytest benchmarks/bench_engine_throughput.py

The pytest run also compares against a committed baseline when one exists
(soft check: a >30 % drop fails the bench).
"""

import json
import os
import random
import tempfile
import time
from pathlib import Path

from repro.config import SystemConfig
from repro.prefetchers import make_prefetcher
from repro.rnr.api import RnRInterface
from repro.sim.engine import SimulationEngine
from repro.trace import AddressSpace, TraceBuilder
from repro.trace.store import TraceStore, trace_key

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

#: Allowed slowdown vs the committed baseline before the bench fails
#: (generous: CI machines vary; this catches order-of-magnitude slips).
REGRESSION_TOLERANCE = 0.30

#: Warm-store trace acquisition must beat in-process rebuild by at least
#: this factor on the Fig-6 matrix (the tentpole's headline number).
STORE_SPEEDUP_FLOOR = 5.0


def build_trace(accesses=50_000, rnr=False, window=16, footprint=32_768, seed=7):
    """A two-iteration random gather over ``footprint`` elements (RnR-annotated if ``rnr``)."""
    rng = random.Random(seed)
    space = AddressSpace()
    array = space.alloc("x", footprint, 8)
    indices = [rng.randrange(footprint) for _ in range(accesses // 2)]
    builder = TraceBuilder()
    interface = RnRInterface(builder, space, default_window=window)
    if rnr:
        interface.init()
        interface.addr_base.set(array)
        interface.addr_base.enable(array)
    for iteration in range(2):
        if rnr:
            if iteration == 0:
                interface.prefetch_state.start()
            else:
                interface.prefetch_state.replay()
        builder.iter_begin(iteration)
        for index in indices:
            builder.work(5)
            builder.load(array.addr(index), pc=0x100)
        builder.iter_end(iteration)
    if rnr:
        interface.prefetch_state.end()
        interface.end()
    return builder.build()


def measure_entries_per_second(trace, prefetcher_name=None, repeats=3):
    """Best-of-``repeats`` trace entries consumed per second."""
    config = SystemConfig.experiment()
    entries = len(trace)
    best = 0.0
    for _ in range(repeats):
        prefetcher = (
            make_prefetcher(prefetcher_name) if prefetcher_name else None
        )
        sim = SimulationEngine(config, prefetcher)
        began = time.perf_counter()
        sim.run(trace)
        elapsed = time.perf_counter() - began
        best = max(best, entries / elapsed)
    return best


MULTICORE_CORES = 4


def build_multicore_traces(cores=MULTICORE_CORES, accesses_per_core=20_000):
    """One differently-seeded demand trace per core (SPMD-shaped load)."""
    return [
        build_trace(accesses=accesses_per_core, rnr=False, seed=7 + idx)
        for idx in range(cores)
    ]


def measure_multicore_entries_per_second(repeats=3, cores=MULTICORE_CORES):
    """Best-of-``repeats`` total trace entries/s through MulticoreEngine."""
    from repro.sim.multicore import MulticoreEngine

    config = SystemConfig.experiment(cores=cores)
    traces = build_multicore_traces(cores)
    entries = sum(len(trace) for trace in traces)
    best = 0.0
    for _ in range(repeats):
        multicore = MulticoreEngine(config)
        began = time.perf_counter()
        multicore.run(traces)
        elapsed = time.perf_counter() - began
        best = max(best, entries / elapsed)
    return best


def run_suite(repeats=3):
    """{scenario: entries/sec} for the demand, RnR, and multicore paths."""
    demand = build_trace(rnr=False)
    rnr = build_trace(rnr=True)
    return {
        "demand": measure_entries_per_second(demand, None, repeats),
        "rnr": measure_entries_per_second(rnr, "rnr", repeats),
        "multicore": measure_multicore_entries_per_second(repeats),
    }


def fig06_rows(scale):
    """The Fig-6 (app, input) matrix the sweep acquires traces for."""
    from repro.experiments.runner import APPS, inputs_for

    return [
        (app, input_name) for app in APPS for input_name in inputs_for(app)
    ]


def measure_trace_acquisition(scale=None, repeats=3):
    """Trace build vs warm-store mmap load over the Fig-6 rows.

    Builds every row's RnR trace once in-process and publishes it to a
    throwaway :class:`TraceStore` (timed together), then times ``repeats``
    warm passes loading the whole matrix back from the store (mmap +
    CRC verification + directive decode — the full cost a sweep worker
    pays).  Returns entries/sec for both paths plus their ratio.
    """
    from repro.experiments.runner import ExperimentRunner

    if scale is None:
        scale = os.environ.get("REPRO_BENCH_SCALE", "bench")
    runner = ExperimentRunner(scale=scale)
    rows = fig06_rows(scale)
    entries = 0
    keys = []
    with tempfile.TemporaryDirectory(prefix="rnr-bench-store-") as tmp:
        store = TraceStore(tmp)
        build_began = time.perf_counter()
        for app, input_name in rows:
            trace = runner.workload(app, input_name).build_trace(rnr=True)
            entries += len(trace)
            key = trace_key(
                app=app,
                input_name=input_name,
                scale=scale,
                iterations=runner.iterations,
                seed=runner.seed,
                window=runner.window_size,
                rnr=True,
            )
            store.put(key, trace)
            keys.append(key)
        # The timed build includes put(), as a cold sweep's does, so the
        # ratio below is a cold build-and-publish against a warm load.
        build_elapsed = time.perf_counter() - build_began

        best_load = float("inf")
        for _ in range(repeats):
            began = time.perf_counter()
            for key in keys:
                loaded = store.get(key)
                loaded.close()
            best_load = min(best_load, time.perf_counter() - began)

    build_rate = entries / build_elapsed
    load_rate = entries / best_load
    return {
        "scale": scale,
        "rows": len(rows),
        "entries": entries,
        "build_entries_per_second": build_rate,
        "store_load_entries_per_second": load_rate,
        "speedup": load_rate / build_rate,
    }


def write_baseline(results, trace_acquisition=None, path=BASELINE_PATH):
    payload = {
        "unit": "trace entries per second",
        "entries_per_second": {k: round(v, 1) for k, v in results.items()},
    }
    if trace_acquisition is not None:
        acq = dict(trace_acquisition)
        for field in (
            "build_entries_per_second",
            "store_load_entries_per_second",
        ):
            acq[field] = round(acq[field], 1)
        acq["speedup"] = round(acq["speedup"], 2)
        payload["trace_acquisition"] = acq
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_baseline(path=BASELINE_PATH):
    try:
        return json.loads(path.read_text())["entries_per_second"]
    except (OSError, ValueError, KeyError):
        return None


def load_trace_acquisition_baseline(path=BASELINE_PATH):
    try:
        return json.loads(path.read_text())["trace_acquisition"]
    except (OSError, ValueError, KeyError):
        return None


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
def test_engine_entries_per_second(benchmark):
    trace = build_trace(rnr=False)
    config = SystemConfig.experiment()
    entries = len(trace)
    stats = benchmark.pedantic(
        lambda: SimulationEngine(config).run(trace), rounds=3, iterations=1
    )
    assert stats.instructions == trace.instructions
    rate = entries / benchmark.stats.stats.min
    benchmark.extra_info["entries_per_second"] = round(rate, 1)
    baseline = load_baseline()
    if baseline and "demand" in baseline:
        floor = baseline["demand"] * (1.0 - REGRESSION_TOLERANCE)
        assert rate >= floor, (
            f"engine throughput regressed: {rate:.0f} entries/s vs "
            f"baseline {baseline['demand']:.0f} (floor {floor:.0f})"
        )


def test_engine_rnr_entries_per_second(benchmark):
    trace = build_trace(rnr=True)
    config = SystemConfig.experiment()
    entries = len(trace)
    stats = benchmark.pedantic(
        lambda: SimulationEngine(config, make_prefetcher("rnr")).run(trace),
        rounds=3,
        iterations=1,
    )
    assert stats.prefetch.issued > 0
    rate = entries / benchmark.stats.stats.min
    benchmark.extra_info["entries_per_second"] = round(rate, 1)
    baseline = load_baseline()
    if baseline and "rnr" in baseline:
        floor = baseline["rnr"] * (1.0 - REGRESSION_TOLERANCE)
        assert rate >= floor, (
            f"rnr engine throughput regressed: {rate:.0f} entries/s vs "
            f"baseline {baseline['rnr']:.0f} (floor {floor:.0f})"
        )


def test_engine_multicore_entries_per_second(benchmark):
    """k-way-merge multicore scheduler throughput, with regression floor."""
    from repro.sim.multicore import MulticoreEngine

    config = SystemConfig.experiment(cores=MULTICORE_CORES)
    traces = build_multicore_traces()
    entries = sum(len(trace) for trace in traces)
    benchmark.pedantic(
        lambda: MulticoreEngine(config).run(traces), rounds=3, iterations=1
    )
    rate = entries / benchmark.stats.stats.min
    benchmark.extra_info["entries_per_second"] = round(rate, 1)
    baseline = load_baseline()
    if baseline and "multicore" in baseline:
        floor = baseline["multicore"] * (1.0 - REGRESSION_TOLERANCE)
        assert rate >= floor, (
            f"multicore throughput regressed: {rate:.0f} entries/s vs "
            f"baseline {baseline['multicore']:.0f} (floor {floor:.0f})"
        )


def test_trace_store_load_vs_rebuild(benchmark):
    """Warm store loads must beat rebuilds by >= STORE_SPEEDUP_FLOOR.

    Benchmarks one warm full-matrix load pass; the build-vs-load ratio is
    taken from the same measurement the standalone run records.
    """
    acq = measure_trace_acquisition(repeats=1)
    from repro.experiments.runner import ExperimentRunner

    runner = ExperimentRunner(scale=acq["scale"])
    with tempfile.TemporaryDirectory(prefix="rnr-bench-store-") as tmp:
        store = TraceStore(tmp)
        keys = []
        for app, input_name in fig06_rows(acq["scale"]):
            key = trace_key(
                app=app,
                input_name=input_name,
                scale=acq["scale"],
                iterations=runner.iterations,
                seed=runner.seed,
                window=runner.window_size,
                rnr=True,
            )
            store.put(key, runner.workload(app, input_name).build_trace(rnr=True))
            keys.append(key)

        def load_all():
            for key in keys:
                store.get(key).close()

        benchmark.pedantic(load_all, rounds=3, iterations=1)
    load_rate = acq["entries"] / benchmark.stats.stats.min
    benchmark.extra_info["store_load_entries_per_second"] = round(load_rate, 1)
    speedup = load_rate / acq["build_entries_per_second"]
    benchmark.extra_info["speedup_vs_rebuild"] = round(speedup, 2)
    assert speedup >= STORE_SPEEDUP_FLOOR, (
        f"warm trace-store load only {speedup:.1f}x faster than rebuild "
        f"({load_rate:,.0f} vs {acq['build_entries_per_second']:,.0f} "
        f"entries/s); floor is {STORE_SPEEDUP_FLOOR}x"
    )


def floor_report(results, baseline):
    """Lines comparing measured rates against the regression floor.

    Always produces output: with no committed baseline (fresh clone,
    deleted ``BENCH_engine.json``) it says so explicitly and shows the
    floor each measured rate would set, instead of silently printing
    nothing and letting the reader assume the check passed.
    """
    lines = []
    if not baseline:
        lines.append(
            f"no baseline at {BASELINE_PATH.name}; regression floor "
            f"({100 * (1 - REGRESSION_TOLERANCE):.0f}% of baseline) not enforced"
        )
        for scenario, rate in results.items():
            would = rate * (1.0 - REGRESSION_TOLERANCE)
            lines.append(
                f"{scenario:>8}: floor would be {would:,.0f} entries/s "
                "once this run is committed as the baseline"
            )
        return lines
    for scenario, rate in results.items():
        old = baseline.get(scenario)
        if not old:
            lines.append(f"{scenario:>8}: no baseline entry; floor not enforced")
            continue
        floor = old * (1.0 - REGRESSION_TOLERANCE)
        verdict = "ok" if rate >= floor else "REGRESSION"
        lines.append(
            f"{scenario:>8}: {rate / old:.2f}x vs baseline {old:,.0f} "
            f"(floor {floor:,.0f}) {verdict}"
        )
    return lines


def trace_acquisition_report(acq, baseline):
    """Lines for the build-vs-store comparison (floor-report style)."""
    lines = [
        f"trace acquisition over {acq['rows']} Fig-6 rows "
        f"({acq['entries']:,} entries, scale={acq['scale']}):",
        f"   build: {acq['build_entries_per_second']:>12,.0f} entries/s",
        f"    load: {acq['store_load_entries_per_second']:>12,.0f} entries/s "
        f"({acq['speedup']:.1f}x; floor {STORE_SPEEDUP_FLOOR:.0f}x "
        f"{'ok' if acq['speedup'] >= STORE_SPEEDUP_FLOOR else 'REGRESSION'})",
    ]
    if not baseline:
        lines.append(
            "    no trace_acquisition baseline in "
            f"{BASELINE_PATH.name}; drift not checked, only the "
            f"{STORE_SPEEDUP_FLOOR:.0f}x floor"
        )
    else:
        old = baseline.get("speedup")
        if old:
            lines.append(
                f"    speedup vs baseline: {acq['speedup'] / old:.2f}x "
                f"(baseline {old:.1f}x)"
            )
    return lines


def delta_report(results, acq, baseline, acq_baseline):
    """Per-section speedup/slowdown table vs the committed baseline.

    Complements :func:`floor_report` (pass/fail only): every section of
    ``BENCH_engine.json`` gets a baseline -> measured row with the ratio,
    so a run that passes the floor but quietly lost 20 % is still visible.
    """
    rows = []
    for scenario, rate in results.items():
        old = (baseline or {}).get(scenario)
        rows.append((scenario, old, rate))
    if acq is not None:
        for field, label in (
            ("build_entries_per_second", "acq:build"),
            ("store_load_entries_per_second", "acq:load"),
        ):
            rows.append((label, (acq_baseline or {}).get(field), acq[field]))
    lines = ["section            baseline     measured    delta"]
    for name, old, new in rows:
        if old:
            ratio = new / old
            verdict = f"{ratio:.2f}x {'faster' if ratio >= 1.0 else 'SLOWER'}"
            lines.append(
                f"{name:<15} {old:>12,.0f} {new:>12,.0f}    {verdict}"
            )
        else:
            lines.append(f"{name:<15} {'--':>12} {new:>12,.0f}    (new section)")
    return lines


def main():
    results = run_suite()
    for scenario, rate in results.items():
        print(f"{scenario:>17}: {rate:>12,.0f} trace entries/s")
    baseline = load_baseline()
    for line in floor_report(results, baseline):
        print(line)
    acq = measure_trace_acquisition()
    acq_baseline = load_trace_acquisition_baseline()
    for line in trace_acquisition_report(acq, acq_baseline):
        print(line)
    print()
    for line in delta_report(results, acq, baseline, acq_baseline):
        print(line)
    path = write_baseline(results, acq)
    print(f"baseline written to {path}")


if __name__ == "__main__":
    main()
