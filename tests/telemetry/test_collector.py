"""End-to-end: a real simulated run exporting validated artifacts."""

import json
import random

import pytest

from repro.config import SystemConfig
from repro.prefetchers import make_prefetcher
from repro.rnr.api import RnRInterface
from repro.sim.engine import SimulationEngine
from repro.telemetry.check import CheckFailure, check_cell_dir, check_tree
from repro.telemetry.collector import NULL_COLLECTOR, TelemetryCollector
from repro.telemetry.config import TelemetryConfig
from repro.trace import AddressSpace, TraceBuilder


def build_gather_trace(iterations=3, accesses=400, rnr=True, window=8):
    rng = random.Random(11)
    indices = [rng.randrange(8192) for _ in range(accesses)]
    space = AddressSpace()
    data = space.alloc("data", 8192, 8)
    builder = TraceBuilder()
    interface = RnRInterface(builder, space, default_window=window)
    if rnr:
        interface.init()
        interface.addr_base.set(data)
        interface.addr_base.enable(data)
    for iteration in range(iterations):
        if rnr:
            if iteration == 0:
                interface.prefetch_state.start()
            else:
                interface.prefetch_state.replay()
        builder.iter_begin(iteration)
        for index in indices:
            builder.work(5)
            builder.load(data.addr(index), pc=0x100)
        builder.iter_end(iteration)
    if rnr:
        interface.prefetch_state.end()
        interface.end()
    return builder.build()


def run_collected(trace, prefetcher_name, **config_kwargs):
    config_kwargs.setdefault("sample_interval", 2_000)
    config_kwargs.setdefault("trace_events", True)
    collector = TelemetryCollector(TelemetryConfig(**config_kwargs))
    prefetcher = make_prefetcher(prefetcher_name) if prefetcher_name else None
    stats = SimulationEngine(
        SystemConfig.tiny(), prefetcher, collector=collector
    ).run(trace)
    return stats, collector


class TestRnRRun:
    @pytest.fixture(scope="class")
    def exported(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("telemetry")
        stats, collector = run_collected(build_gather_trace(), "rnr")
        cell_dir = collector.export(root / "gather" / "tiny" / "rnr", "gather/tiny/rnr")
        return stats, collector, root, cell_dir

    def test_interval_deltas_reconcile_with_final_stats(self, exported):
        stats, collector, _, _ = exported
        assert collector.sampler.totals() == stats.flat_counters()
        assert len(collector.sampler.rows) > 1

    def test_artifacts_pass_schema_check(self, exported):
        _, _, _, cell_dir = exported
        for name in ("summary.json", "events.jsonl", "timeseries.csv", "trace.json"):
            assert (cell_dir / name).exists()
        flags = check_cell_dir(cell_dir)
        assert flags["rows"] > 1
        assert flags["phase_span"], "iter phases must appear as Chrome spans"
        assert flags["window_span"], "replay windows must carry pacing args"

    def test_check_tree_enforces_expectations(self, exported):
        _, _, root, _ = exported
        summary = check_tree(root, ["phase-span", "window-span"])
        assert "1 cell dir(s)" in summary

    def test_summary_has_per_window_lifecycle(self, exported):
        stats, _, _, cell_dir = exported
        summary = json.loads((cell_dir / "summary.json").read_text())
        windows = summary["windows"]
        rnr_windows = {w: s for w, s in windows.items() if int(w) >= 0}
        assert rnr_windows, "an RnR run must attribute prefetches to windows"
        assert sum(s["issued"] for s in windows.values()) == stats.prefetch.issued
        assert summary["final"]["instructions"] == stats.instructions

    def test_events_cover_the_lifecycle(self, exported):
        _, collector, _, _ = exported
        kinds = {event["ev"] for event in collector.log.events}
        assert {"run.begin", "run.end", "phase.begin", "phase.end"} <= kinds
        assert "pf.issue" in kinds
        assert "rnr.window.record" in kinds
        assert "rnr.replay.begin" in kinds
        assert "rnr.window.enter" in kinds

    def test_corrupted_timeseries_fails_reconciliation(self, exported, tmp_path):
        _, collector, _, _ = exported
        cell_dir = collector.export(tmp_path / "cell", "cell")
        series = cell_dir / "timeseries.csv"
        lines = series.read_text().splitlines()
        fields = lines[1].split(",")
        fields[1] = str(int(fields[1]) + 1)  # break one interval delta
        lines[1] = ",".join(fields)
        series.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckFailure, match="do not reconcile"):
            check_cell_dir(cell_dir)


class TestBaselinePrefetcherRun:
    def test_non_rnr_prefetches_attributed_to_source(self, tmp_path):
        stats, collector = run_collected(
            build_gather_trace(rnr=False), "nextline", trace_events=False
        )
        assert stats.prefetch.issued > 0
        summary = collector.summary("cell")
        assert summary["windows"].keys() == {"-1"}
        issues = [e for e in collector.log.events if e["ev"] == "pf.issue"]
        assert issues and all(e["source"] == "nextline" for e in issues)
        cell_dir = collector.export(tmp_path / "cell", "cell")
        assert not (cell_dir / "trace.json").exists()
        check_cell_dir(cell_dir)


class TestPrefetchFillLevels:
    """The lifecycle tracer sees every prefetch, whichever level it fills
    (the LLC destination is the Section III ablation)."""

    @pytest.mark.parametrize("level", ["l2", "llc"])
    @pytest.mark.parametrize("prefetcher", ["nextline", "rnr"])
    def test_tracer_totals_match_stats(self, prefetcher, level):
        collector = TelemetryCollector(TelemetryConfig(sample_interval=2_000))
        stats = SimulationEngine(
            SystemConfig.tiny(),
            make_prefetcher(prefetcher),
            prefetch_fill_level=level,
            collector=collector,
        ).run(build_gather_trace(rnr=prefetcher == "rnr"))
        windows = collector.tracer.windows.values()
        assert stats.prefetch.issued > 0
        if prefetcher == "nextline":
            assert stats.prefetch.dropped > 0
        assert sum(w.issued for w in windows) == stats.prefetch.issued
        assert sum(w.late for w in windows) == stats.prefetch.late
        assert sum(w.dropped for w in windows) == stats.prefetch.dropped
        assert sum(w.used for w in windows) == stats.prefetch.useful


class TestNullPath:
    def test_null_collector_runs_identically(self):
        trace = build_gather_trace(iterations=2, accesses=150)
        config = SystemConfig.tiny()
        default = SimulationEngine(config, make_prefetcher("rnr")).run(trace)
        nulled = SimulationEngine(
            config, make_prefetcher("rnr"), collector=NULL_COLLECTOR
        ).run(trace)
        assert nulled.as_dict() == default.as_dict()

    def test_instrumented_run_matches_uninstrumented_stats(self):
        """Observation must not perturb the simulation's numbers."""
        trace = build_gather_trace(iterations=2, accesses=150)
        plain = SimulationEngine(SystemConfig.tiny(), make_prefetcher("rnr")).run(trace)
        observed, _ = run_collected(trace, "rnr", trace_events=False)
        assert observed.as_dict() == plain.as_dict()
