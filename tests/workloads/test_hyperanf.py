"""Tests for the Hyper-ANF workload."""

import pytest

from repro.graphs.generators import uniform_random
from repro.trace.record import KIND_LOAD
from repro.workloads.hyperanf import PC_GATHER, HyperAnfWorkload


@pytest.fixture(scope="module")
def graph():
    return uniform_random(200, 4, seed=3)


class TestNumerics:
    def test_neighbourhood_function_monotone(self, graph):
        workload = HyperAnfWorkload(graph, iterations=4)
        workload.build_trace(rnr=False)
        history = workload.neighbourhood_history
        assert len(history) == 5  # initial + 4 iterations
        for earlier, later in zip(history, history[1:]):
            assert later >= earlier - 1e-6

    def test_estimates_reachability_on_path_graph(self):
        """On a bidirectional path, t iterations reach ~t-hop balls."""
        from repro.graphs.csr import CSRGraph

        n = 64
        edges = [(i, i + 1) for i in range(n - 1)]
        edges += [(i + 1, i) for i in range(n - 1)]
        path = CSRGraph.from_edges(n, edges)
        workload = HyperAnfWorkload(path, iterations=3)
        workload.build_trace(rnr=False)
        # After 3 iterations each interior vertex reaches ~7 vertices.
        final = workload.neighbourhood_history[-1]
        assert 0.4 * 7 * n < final < 2.5 * 7 * n


class TestTraceShape:
    def test_one_gather_per_edge(self, graph):
        workload = HyperAnfWorkload(graph, iterations=2)
        trace = workload.build_trace(rnr=False)
        gathers = sum(
            1
            for r in trace.memory_references()
            if r.kind == KIND_LOAD and r.pc == PC_GATHER
        )
        assert gathers == 2 * graph.num_edges

    def test_gathers_hit_sketch_arrays(self, graph):
        workload = HyperAnfWorkload(graph, iterations=2)
        trace = workload.build_trace(rnr=False)
        hll_a = workload.region("hll_a")
        hll_b = workload.region("hll_b")
        for record in trace.memory_references():
            if record.pc == PC_GATHER:
                assert hll_a.contains(record.addr) or hll_b.contains(record.addr)

    def test_sketch_base_swap_directives(self, graph):
        workload = HyperAnfWorkload(graph, iterations=3)
        trace = workload.build_trace(rnr=True)
        ops = [d.op for d in trace.directives() if d.op.startswith("rnr.addr_base")]
        assert ops.count("rnr.addr_base.set") == 2
        assert ops.count("rnr.addr_base.enable") >= 3

    def test_identical_stream_with_and_without_rnr(self, graph):
        workload = HyperAnfWorkload(graph, iterations=2)
        without = [
            (r.kind, r.addr) for r in workload.build_trace(rnr=False).memory_references()
        ]
        with_rnr = [
            (r.kind, r.addr) for r in workload.build_trace(rnr=True).memory_references()
        ]
        assert without == with_rnr


class TestCallbacks:
    def test_edge_line_values_are_destinations(self, graph):
        workload = HyperAnfWorkload(graph, iterations=2)
        workload.build_trace(rnr=False)
        edges = workload.region("edges")
        values = workload.edge_line_values(edges.base // 64)
        expected = [int(dst) for _, dst in workload.edge_pairs[:8]]
        assert values == expected
