"""Golden parity: the fast backend is bit-identical to the straight one.

The inlined L1-hit fast path, the allocation-free miss path, and the
k-way-merge multicore scheduler are pure speedups — every ``SimStats``
field must match the straight-line reference loops exactly.  Backends are
forced through the shared resolver (``--engine`` / ``RNR_ENGINE``; see
``repro.sim.backend``), so this suite pins the contract that keeps the
two implementations interchangeable:

* every registry prefetcher, and no prefetcher, fast vs straight on two
  fixed seeded RnR-instrumented traces — a random, nearly all-miss
  stream and a locality stream of long L1-hit runs:
  ``SimStats.as_dict()`` equality;
* RnR replay-window flips between long hit runs, context switches
  (pause, cache pollution, resume) at several cadences inside hit runs,
  and traces too short to reach a steady state;
* telemetry: an enabled collector runs the straight loop under either
  backend, with the same sampled time series, and its stats equal a
  collector-free fast run;
* a 1-core :class:`MulticoreEngine` vs a plain :class:`SimulationEngine`
  on the same trace: exact equality (the merge scheduler degenerates to
  the single-core loop);
* 1-, 2- and 4-core runs, including a mixed rnr/stream/rnr-combined/bare
  fleet and a 2-core co-run for every registry prefetcher, fast vs
  straight: exact equality (scheduling order and shared-controller
  contention are part of the simulated result).
"""

import pytest

from repro.config import SystemConfig
from repro.prefetchers import PREFETCHERS, make_prefetcher
from repro.rnr.api import RnRInterface
from repro.sim.engine import ENGINE_ENV, SimulationEngine
from repro.sim.multicore import MulticoreEngine
from repro.sim.os_model import emit_context_switch
from repro.telemetry.collector import TelemetryCollector
from repro.telemetry.config import TelemetryConfig
from repro.trace import AddressSpace, Trace, TraceBuilder

ACCESSES = 6_000
FOOTPRINT = 16_384
CORES = 4


def build_parity_trace(seed=7, accesses=ACCESSES, rnr=True, window=4):
    """Fixed seeded two-iteration trace with RnR directives (bench shape)."""
    import random

    rng = random.Random(seed)
    space = AddressSpace()
    array = space.alloc("x", FOOTPRINT, 8)
    indices = [rng.randrange(FOOTPRINT) for _ in range(accesses // 2)]
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
            if index % 7 == 0:
                builder.store(array.addr(index), pc=0x200)
            else:
                builder.load(array.addr(index), pc=0x100)
        builder.iter_end(iteration)
    if rnr:
        interface.prefetch_state.end()
        interface.end()
    return builder.build()


def build_locality_trace(seed=3, accesses=ACCESSES, rnr=True, window=4,
                         hot_lines=24, cold_every=400, switch_every=None):
    """Seeded trace with an L1-resident hot set plus a cold-miss tail.

    The random ``build_parity_trace`` stream is nearly all L1 misses.
    This shape — long hit runs over ``hot_lines`` resident lines broken by
    periodic cold misses — drives the fast loops' inlined L1-hit path and
    its deferred hit counters instead.  ``switch_every`` adds a context
    switch (half the private caches displaced) after every that many
    accesses.
    """
    import random

    rng = random.Random(seed)
    space = AddressSpace()
    hot = space.alloc("hot", hot_lines * 8, 8)
    cold = space.alloc("cold", 32_768, 8)
    builder = TraceBuilder()
    interface = RnRInterface(builder, space, default_window=window)
    if rnr:
        interface.init()
        interface.addr_base.set(hot)
        interface.addr_base.enable(hot)
    n_hot = hot_lines * 8
    for iteration in range(2):
        if rnr:
            if iteration == 0:
                interface.prefetch_state.start()
            else:
                interface.prefetch_state.replay()
        builder.iter_begin(iteration)
        for i in range(accesses // 2):
            builder.work(rng.randrange(7))
            if i % cold_every == cold_every - 1:
                builder.load(cold.addr(rng.randrange(32_768)), pc=0x300)
            elif i % 11 == 0:
                builder.store(hot.addr((i * 5) % n_hot), pc=0x200)
            else:
                builder.load(hot.addr((i * 3) % n_hot), pc=0x100)
            if switch_every and i % switch_every == switch_every - 1:
                emit_context_switch(builder, interface if rnr else None,
                                    away_cycles=2_000, pollution=0.5)
        builder.iter_end(iteration)
    if rnr:
        interface.prefetch_state.end()
        interface.end()
    return builder.build()


@pytest.fixture(scope="module")
def rnr_trace():
    return build_parity_trace()


@pytest.fixture(scope="module")
def locality_trace():
    return build_locality_trace()


def run_single(trace, prefetcher_name, backend, monkeypatch, collector=None):
    """One single-core run with ``backend`` forced through ``RNR_ENGINE``."""
    monkeypatch.setenv(ENGINE_ENV, backend)
    prefetcher = make_prefetcher(prefetcher_name) if prefetcher_name else None
    engine = SimulationEngine(
        SystemConfig.experiment(), prefetcher, collector=collector
    )
    engine.run(trace)
    return engine.stats.as_dict()


class TestFastVsStraight:
    @pytest.mark.parametrize("name", sorted(PREFETCHERS))
    def test_registry_prefetcher_parity(self, name, rnr_trace, monkeypatch):
        fast = run_single(rnr_trace, name, "fast", monkeypatch)
        straight = run_single(rnr_trace, name, "straight", monkeypatch)
        assert fast == straight

    def test_no_prefetcher_parity(self, rnr_trace, monkeypatch):
        fast = run_single(rnr_trace, None, "fast", monkeypatch)
        straight = run_single(rnr_trace, None, "straight", monkeypatch)
        assert fast == straight

    @pytest.mark.parametrize("name", [None] + sorted(PREFETCHERS))
    def test_locality_trace_parity(self, name, locality_trace, monkeypatch):
        # Long L1-hit runs: the inlined hit path and deferred counters.
        fast = run_single(locality_trace, name, "fast", monkeypatch)
        straight = run_single(locality_trace, name, "straight", monkeypatch)
        assert fast == straight

    @pytest.mark.parametrize("window", [1, 2])
    def test_rnr_window_boundary(self, window, monkeypatch):
        # A tiny window plus frequent cold misses flips the recorder and
        # replayer windows many times between long runs of inlined hits.
        trace = build_locality_trace(seed=19, window=window, cold_every=150)
        fast = run_single(trace, "rnr", "fast", monkeypatch)
        straight = run_single(trace, "rnr", "straight", monkeypatch)
        assert fast == straight
        # The run must have exercised replay, not just recording.
        assert straight["rnr"]["struct_reads"] > 0

    @pytest.mark.parametrize("name", ["rnr", "ghb", "rnr-combined"])
    @pytest.mark.parametrize("every", [64, 256, 1024])
    def test_context_switch_cadence(self, every, name, monkeypatch):
        # Each switch lands mid hit run: the fast loops flush their
        # deferred hit counters at the directives, then keep probing the
        # same L1 set dicts the switch just invalidated lines from.
        accesses = 3_000
        trace = build_locality_trace(seed=41, accesses=accesses,
                                     switch_every=every)
        fast = run_single(trace, name, "fast", monkeypatch)
        straight = run_single(trace, name, "straight", monkeypatch)
        assert fast == straight
        if name == "rnr":
            # One pause per switch, over two iterations of accesses // 2.
            assert straight["rnr"]["pauses"] == 2 * (accesses // 2 // every)

    @pytest.mark.parametrize(
        "trace",
        [
            Trace(),
            build_locality_trace(accesses=4),
            build_parity_trace(seed=11, accesses=120),
        ],
        ids=["empty", "4-accesses", "120-accesses"],
    )
    def test_short_traces(self, trace, monkeypatch):
        fast = run_single(trace, "stream", "fast", monkeypatch)
        straight = run_single(trace, "stream", "straight", monkeypatch)
        assert fast == straight

    def test_telemetry_collector_parity(self, rnr_trace, monkeypatch,
                                        tmp_path):
        # An enabled collector runs the straight loop under either
        # backend: the stats and the sampled rows must agree, and the
        # stats must equal a collector-free run of the fast loop.
        def collected(backend):
            collector = TelemetryCollector(
                TelemetryConfig(out_dir=str(tmp_path / backend),
                                sample_interval=2000)
            )
            stats = run_single(
                rnr_trace, "rnr", backend, monkeypatch, collector=collector
            )
            return stats, collector.sampler.rows

        fast_stats, fast_rows = collected("fast")
        straight_stats, straight_rows = collected("straight")
        assert fast_stats == straight_stats
        assert len(fast_rows) > 1
        assert fast_rows == straight_rows
        assert fast_stats == run_single(rnr_trace, "rnr", "fast", monkeypatch)


class TestMulticoreParity:
    @pytest.mark.parametrize("name", [None, "rnr", "stream"])
    def test_one_core_matches_single_engine(self, name, rnr_trace,
                                            monkeypatch):
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        config = SystemConfig.experiment(cores=1)
        prefetcher = make_prefetcher(name) if name else None
        multi = MulticoreEngine(
            config, prefetchers=[prefetcher] if prefetcher else None
        )
        (multi_stats,) = multi.run([rnr_trace])

        single_pf = make_prefetcher(name) if name else None
        single = SimulationEngine(config, single_pf)
        single.run(rnr_trace)
        assert multi_stats.as_dict() == single.stats.as_dict()

    def run_multicore(self, traces, backend, prefetcher_names, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        config = SystemConfig.experiment(cores=len(traces))
        prefetchers = [
            make_prefetcher(name) if name else None
            for name in prefetcher_names
        ]
        engine = MulticoreEngine(config, prefetchers=prefetchers,
                                 engine=backend)
        return [stats.as_dict() for stats in engine.run(traces)]

    def assert_fast_matches_straight(self, traces, names, monkeypatch):
        fast = self.run_multicore(traces, "fast", names, monkeypatch)
        straight = self.run_multicore(traces, "straight", names, monkeypatch)
        assert fast == straight

    def test_n_core_fast_vs_straight(self, monkeypatch):
        traces = [
            build_parity_trace(seed=7 + idx, accesses=3_000)
            for idx in range(CORES)
        ]
        self.assert_fast_matches_straight(traces, ["rnr"] * CORES,
                                          monkeypatch)

    @pytest.mark.parametrize("cores", [1, 2, 4])
    def test_locality_n_core_fast_vs_straight(self, cores, monkeypatch):
        # Hit-run-heavy traces, with staggered cold misses desynchronizing
        # the cores' merge turns.
        traces = [
            build_locality_trace(seed=11 + idx, accesses=3_000,
                                 cold_every=211 + 13 * idx)
            for idx in range(cores)
        ]
        self.assert_fast_matches_straight(traces, ["rnr"] * cores,
                                          monkeypatch)

    @pytest.mark.parametrize("name", [None] + sorted(PREFETCHERS))
    def test_two_core_prefetcher_parity(self, name, monkeypatch):
        # Every prefetcher's hooks under the merge scheduler: a hit-run
        # core co-running with a nearly all-miss core.
        traces = [
            build_locality_trace(seed=43, accesses=3_000, cold_every=131),
            build_parity_trace(seed=47, accesses=2_000),
        ]
        self.assert_fast_matches_straight(traces, [name, name], monkeypatch)

    def test_mixed_fleet_fast_vs_straight(self, monkeypatch):
        # Hooked (rnr, rnr-combined), hook-free (stream), and bare cores
        # mixed in one merge.
        traces = [
            build_locality_trace(seed=23, accesses=3_000),
            build_parity_trace(seed=29, accesses=2_000),
            build_locality_trace(seed=31, accesses=3_000, cold_every=97),
            build_parity_trace(seed=37, accesses=2_000),
        ]
        self.assert_fast_matches_straight(
            traces, ["rnr", "stream", "rnr-combined", None], monkeypatch
        )
