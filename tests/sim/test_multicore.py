"""Tests for the lockstep multicore engine."""

import pytest

from repro.config import LINE_SIZE, SystemConfig
from repro.sim.engine import SimulationEngine
from repro.sim.multicore import MulticoreEngine
from repro.trace.builder import TraceBuilder


def core_trace(base_line, lines=60, work=4):
    builder = TraceBuilder()
    builder.iter_begin(0)
    for i in range(lines):
        builder.work(work)
        builder.load((base_line + i) * LINE_SIZE, pc=0x10)
    builder.iter_end(0)
    return builder.build()


class TestMulticore:
    def test_runs_all_cores(self):
        config = SystemConfig.tiny(cores=2)
        engine = MulticoreEngine(config)
        results = engine.run([core_trace(0), core_trace(10_000)])
        assert len(results) == 2
        assert all(stats.instructions > 0 for stats in results)
        assert all(stats.cycles > 0 for stats in results)

    def test_trace_count_must_match_cores(self):
        engine = MulticoreEngine(SystemConfig.tiny(cores=2))
        with pytest.raises(ValueError):
            engine.run([core_trace(0)])

    def test_prefetcher_list_validated(self):
        with pytest.raises(ValueError):
            MulticoreEngine(SystemConfig.tiny(cores=2), prefetchers=[None])

    def test_shared_llc_is_shared(self):
        """Both cores touching the same data: the second core hits in the
        LLC the first core warmed."""
        config = SystemConfig.tiny(cores=2)
        engine = MulticoreEngine(config)
        engine.run([core_trace(0), core_trace(0)])
        total_llc_misses = sum(e.stats.llc.demand_misses for e in engine.engines)
        solo = SimulationEngine(SystemConfig.tiny()).run(core_trace(0))
        # Two cores, same 60 lines: misses well below 2x a solo run.
        assert total_llc_misses < 2 * solo.llc.demand_misses

    def test_memory_contention_slows_cores(self):
        """Distinct working sets contend on the single memory channel, so
        a core runs slower than it would alone."""
        config = SystemConfig.tiny(cores=4)
        engine = MulticoreEngine(config)
        traces = [core_trace(i * 100_000, lines=150) for i in range(4)]
        results = engine.run(traces)
        solo = SimulationEngine(SystemConfig.tiny()).run(core_trace(0, lines=150))
        assert max(stats.cycles for stats in results) > solo.cycles

    def test_aggregate_merges(self):
        config = SystemConfig.tiny(cores=2)
        engine = MulticoreEngine(config)
        results = engine.run([core_trace(0), core_trace(10_000)])
        total = engine.aggregate()
        assert total.instructions == sum(r.instructions for r in results)
        assert total.cycles == max(r.cycles for r in results)
        assert len(total.phases) == 2

    def test_empty_trace_core_finishes(self):
        from repro.trace.trace import Trace

        config = SystemConfig.tiny(cores=2)
        engine = MulticoreEngine(config)
        results = engine.run([core_trace(0), Trace()])
        assert results[0].instructions > 0
        assert results[1].instructions == 0


class TestTraceCoercion:
    """run() takes Trace objects; a MappedTrace is one."""

    def test_mapped_trace_input(self, tmp_path):
        from repro.trace.binfmt import read_trace, write_trace

        config = SystemConfig.tiny(cores=2)
        traces = [core_trace(0), core_trace(10_000)]
        mapped = [
            read_trace(write_trace(trace, tmp_path / f"core{i}.rnrt"))
            for i, trace in enumerate(traces)
        ]
        direct = MulticoreEngine(config).run(traces)
        via_map = MulticoreEngine(config).run(mapped)
        assert [s.as_dict() for s in via_map] == \
            [s.as_dict() for s in direct]
