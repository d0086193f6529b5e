"""Integration: SPMD workload traces on the multicore engine.

Per-core traces are served through a :class:`~repro.trace.store.TraceStore`
— built once per (iterations, rnr, window) combination, published to the
content-addressed store, and mapped back as zero-copy ``MappedTrace``
objects — exercising the same acquisition path the sweep harness uses.
"""

import pytest

from repro.config import SystemConfig
from repro.graphs.generators import community_graph
from repro.prefetchers import make_prefetcher
from repro.sim.multicore import MulticoreEngine
from repro.trace.binfmt import MappedTrace
from repro.trace.store import TraceStore, trace_key
from repro.workloads.spmd import build_spmd_traces

CORES = 4


@pytest.fixture(scope="module")
def graph():
    return community_graph(512, num_communities=4, avg_degree=6,
                           intra_fraction=0.9, seed=7)


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    return TraceStore(tmp_path_factory.mktemp("spmd-traces"))


def store_keys(iterations, rnr, window):
    return [
        trace_key(app="pagerank-spmd", input_name="community512",
                  scale=f"core{part}of{CORES}", iterations=iterations,
                  seed=7, window=window, rnr=rnr)
        for part in range(CORES)
    ]


def served_traces(store, graph, iterations, rnr, window=16):
    """Build-once, store-served per-core traces (mmap-backed on hits)."""
    keys = store_keys(iterations, rnr, window)
    if store.get(keys[0]) is None:
        built = build_spmd_traces(graph, CORES, iterations=iterations,
                                  rnr=rnr, window_size=window)
        for key, trace in zip(keys, built):
            store.put(key, trace)
    traces = [store.get(key) for key in keys]
    assert all(trace is not None for trace in traces)
    return traces


class TestSpmdOnMulticore:
    def test_baseline_runs_all_partitions(self, graph, store):
        config = SystemConfig.tiny(cores=CORES)
        engine = MulticoreEngine(config)
        traces = served_traces(store, graph, iterations=2, rnr=False)
        assert all(isinstance(t, MappedTrace) for t in traces)
        results = engine.run(traces)
        assert all(stats.instructions > 0 for stats in results)
        total_gathers = sum(t.num_loads for t in traces)
        assert total_gathers > graph.num_edges  # gathers + streams

    def test_per_core_rnr_records_independently(self, graph, store):
        """Section V-E: per-core RnR state records each partition's own
        miss sequence."""
        config = SystemConfig.tiny(cores=CORES)
        prefetchers = [make_prefetcher("rnr") for _ in range(CORES)]
        engine = MulticoreEngine(config, prefetchers=prefetchers)
        traces = served_traces(store, graph, iterations=2, rnr=True,
                               window=4)
        results = engine.run(traces)
        for stats in results:
            assert stats.rnr.sequence_entries > 0
        # Sequences differ across partitions (different vertex ranges).
        entries = [stats.rnr.sequence_entries for stats in results]
        assert len(set(entries)) > 1

    def test_rnr_prefetches_on_every_core(self, graph, store):
        config = SystemConfig.tiny(cores=CORES)
        prefetchers = [make_prefetcher("rnr") for _ in range(CORES)]
        engine = MulticoreEngine(config, prefetchers=prefetchers)
        traces = served_traces(store, graph, iterations=3, rnr=True,
                               window=4)
        results = engine.run(traces)
        assert all(stats.prefetch.issued > 0 for stats in results)
