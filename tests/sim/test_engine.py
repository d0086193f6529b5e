"""Tests for the single-core simulation engine."""

import gc
import weakref

import pytest

from repro.config import LINE_SIZE, SystemConfig
from repro.prefetchers import make_prefetcher
from repro.prefetchers.nextline import NextLinePrefetcher
from repro.sim.engine import SimulationEngine
from repro.telemetry.collector import NullCollector, TelemetryCollector
from repro.telemetry.config import TelemetryConfig
from repro.trace.builder import TraceBuilder


def stream_trace(lines=100, iterations=1, work=4):
    builder = TraceBuilder()
    for it in range(iterations):
        builder.iter_begin(it)
        for line in range(lines):
            builder.work(work)
            builder.load(line * LINE_SIZE, pc=0x10)
        builder.iter_end(it)
    return builder.build()


class TestBasicRun:
    def test_instruction_and_cycle_accounting(self, tiny_config):
        trace = stream_trace(lines=50)
        stats = SimulationEngine(tiny_config).run(trace)
        assert stats.instructions == trace.instructions
        assert stats.cycles > 0
        assert 0 < stats.ipc <= tiny_config.core.width

    def test_stores_counted(self, tiny_config):
        builder = TraceBuilder()
        builder.store(0, pc=1)
        builder.load(64, pc=1)
        stats = SimulationEngine(tiny_config).run(builder.build())
        assert stats.l1d.demand_accesses == 2

    def test_deterministic(self, tiny_config):
        trace = stream_trace(lines=80)
        a = SimulationEngine(tiny_config).run(trace)
        b = SimulationEngine(SystemConfig.tiny()).run(trace)
        assert a.cycles == b.cycles
        assert a.l2.demand_misses == b.l2.demand_misses

    def test_empty_trace(self, tiny_config):
        from repro.trace.trace import Trace

        stats = SimulationEngine(tiny_config).run(Trace())
        assert stats.cycles == 0
        assert stats.instructions == 0


class TestPhases:
    def test_iteration_phases_recorded(self, tiny_config):
        trace = stream_trace(lines=30, iterations=3)
        stats = SimulationEngine(tiny_config).run(trace)
        assert [p.name for p in stats.phases] == ["iter0", "iter1", "iter2"]
        assert all(p.instructions > 0 for p in stats.phases)
        assert sum(p.cycles for p in stats.phases) <= stats.cycles

    def test_first_iteration_has_cold_misses(self, tiny_config):
        trace = stream_trace(lines=8, iterations=2)
        stats = SimulationEngine(tiny_config).run(trace)
        assert stats.phases[0].l2_demand_misses >= stats.phases[1].l2_demand_misses

    def test_unbalanced_phases_rejected(self, tiny_config):
        builder = TraceBuilder()
        builder.iter_end(0)
        with pytest.raises(ValueError):
            SimulationEngine(tiny_config).run(builder.build())

    def test_mismatched_phases_rejected(self, tiny_config):
        builder = TraceBuilder()
        builder.iter_begin(0)
        builder.iter_end(1)
        with pytest.raises(ValueError):
            SimulationEngine(tiny_config).run(builder.build())


class TestLoopDispatch:
    """``run`` picks exactly one of three loops per run."""

    def test_engine_defines_three_loops(self):
        loops = sorted(name for name in vars(SimulationEngine) if name.startswith("_run_"))
        assert loops == ["_run_hooks_fast", "_run_slim_fast", "_run_straight"]

    @pytest.mark.parametrize(
        "prefetcher, backend, telemetry, expected",
        [
            (None, "fast", False, "_run_slim_fast"),
            ("rnr", "fast", False, "_run_hooks_fast"),
            (None, "straight", False, "_run_straight"),
            ("rnr", "straight", False, "_run_straight"),
            (None, "fast", True, "_run_straight"),
            ("rnr", "fast", True, "_run_straight"),
            # An explicit NullCollector takes the default run's loop, which
            # the paired <2% timing guards in tests/telemetry rest on.
            (None, "fast", "null", "_run_slim_fast"),
            ("rnr", "fast", "null", "_run_hooks_fast"),
        ],
    )
    def test_loop_choice(self, prefetcher, backend, telemetry, expected,
                         tiny_config, monkeypatch):
        # Wrap every loop by name prefix, as the figure-cell benchmark's
        # loop probe does.
        calls = []
        for name, loop in list(vars(SimulationEngine).items()):
            if name.startswith("_run_"):
                monkeypatch.setattr(SimulationEngine, name, _counting(name, loop, calls))
        if telemetry == "null":
            collector = NullCollector()
        elif telemetry:
            collector = TelemetryCollector(TelemetryConfig(out_dir=None, sample_interval=500))
        else:
            collector = None
        engine = SimulationEngine(
            tiny_config,
            make_prefetcher(prefetcher) if prefetcher else None,
            collector=collector,
            engine=backend,
        )
        engine.run(stream_trace(lines=50))
        assert calls == [expected]


def _counting(name, loop, calls):
    def wrapped(self, *args):
        calls.append(name)
        return loop(self, *args)

    return wrapped


class TestPrefetcherIntegration:
    def test_prefetcher_reduces_stream_misses(self, tiny_config):
        trace = stream_trace(lines=200)
        baseline = SimulationEngine(SystemConfig.tiny()).run(trace)
        prefetched = SimulationEngine(
            SystemConfig.tiny(), NextLinePrefetcher(degree=2)
        ).run(trace)
        assert prefetched.prefetch.useful > 0
        assert prefetched.cycles < baseline.cycles

    def test_prefetcher_sees_directives(self, tiny_config):
        seen = []

        class Spy(NextLinePrefetcher):
            def on_directive(self, op, args, cycle):
                seen.append(op)

        builder = TraceBuilder()
        builder.directive("custom.op", 1)
        builder.load(0, pc=1)
        SimulationEngine(tiny_config, Spy()).run(builder.build())
        assert "custom.op" in seen


class TestPhaseTraffic:
    def test_phase_traffic_attribution(self, tiny_config):
        """Off-chip lines are attributed to the iteration that caused
        them: a cold first iteration moves lines, a cached second moves
        almost none."""
        trace = stream_trace(lines=40, iterations=2)
        stats = SimulationEngine(tiny_config).run(trace)
        first, second = stats.phases
        assert first.demand_lines >= 40 - 5
        assert second.demand_lines <= first.demand_lines
        assert first.offchip_lines == (
            first.demand_lines + first.prefetch_lines + first.metadata_lines
        )

    def test_prefetch_lines_attributed(self, tiny_config):
        trace = stream_trace(lines=120)
        stats = SimulationEngine(tiny_config, NextLinePrefetcher(degree=2)).run(trace)
        assert stats.phases[0].prefetch_lines > 0


class TestReferenceCycles:
    """A dropped engine's caches are freed by reference counting alone.

    Engines are built per figure cell, so a hierarchy that only the cyclic
    collector can free holds its caches past the cell.  RnR engines keep
    a hierarchy <-> prefetcher cycle through the unused-prefetch
    classifier, so only prefetchers without one are checked.
    """

    @pytest.mark.parametrize("prefetcher", [None, "nextline"])
    def test_dropped_engine_frees_its_hierarchy(self, tiny_config, prefetcher):
        trace = stream_trace(lines=80)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            pf = make_prefetcher(prefetcher) if prefetcher else None
            engine = SimulationEngine(tiny_config, pf)
            engine.run(trace)
            hierarchy = weakref.ref(engine.hierarchy)
            del engine, pf
            assert hierarchy() is None
        finally:
            if was_enabled:
                gc.enable()
