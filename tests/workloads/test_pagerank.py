"""Tests for the PageRank workload (Algorithm 1)."""

import numpy as np
import pytest

from repro.graphs.generators import uniform_random
from repro.trace.record import KIND_LOAD
from repro.workloads.pagerank import DAMPING, PC_GATHER, PageRankWorkload


@pytest.fixture(scope="module")
def graph():
    return uniform_random(256, 4, seed=2)


class TestNumerics:
    def test_matches_reference_power_iteration(self, graph):
        workload = PageRankWorkload(graph, iterations=3)
        workload.build_trace(rnr=False)
        # Reference: same pull recurrence with dense matrices.
        n = graph.num_vertices
        out_deg = np.maximum(graph.degrees(), 1)
        ranks = np.full(n, 1.0 / n)
        in_graph = workload.in_graph
        for _ in range(3):
            contrib = ranks / out_deg
            sums = np.zeros(n)
            dest = np.repeat(np.arange(n), in_graph.degrees())
            np.add.at(sums, dest, contrib[in_graph.targets])
            ranks = (1 - DAMPING) / n + DAMPING * sums
        assert np.allclose(workload.ranks, ranks)

    def test_error_decreases(self, graph):
        workload = PageRankWorkload(graph, iterations=5)
        workload.build_trace(rnr=False)
        errors = workload.error_history
        assert errors[-1] < errors[0]

    def test_rejects_single_iteration(self, graph):
        with pytest.raises(ValueError):
            PageRankWorkload(graph, iterations=1)


class TestTraceShape:
    def test_one_gather_per_in_edge(self, graph):
        workload = PageRankWorkload(graph, iterations=2)
        trace = workload.build_trace(rnr=False)
        gathers = sum(
            1
            for r in trace.memory_references()
            if r.kind == KIND_LOAD and r.pc == PC_GATHER
        )
        assert gathers == 2 * graph.num_edges

    def test_gathers_land_in_rank_arrays(self, graph):
        workload = PageRankWorkload(graph, iterations=2)
        trace = workload.build_trace(rnr=False)
        p_a = workload.region("p_a")
        p_b = workload.region("p_b")
        for record in trace.memory_references():
            if record.pc == PC_GATHER:
                assert p_a.contains(record.addr) or p_b.contains(record.addr)

    def test_rnr_directives_follow_algorithm_1(self, graph):
        workload = PageRankWorkload(graph, iterations=3)
        trace = workload.build_trace(rnr=True)
        ops = [d.op for d in trace.directives() if d.op.startswith("rnr.")]
        assert ops[0] == "rnr.init"
        assert ops.count("rnr.addr_base.set") == 2  # p_curr and p_next
        assert "rnr.state.start" in ops
        assert ops.count("rnr.state.replay") == 2
        # The per-iteration base swap (Algorithm 1 lines 31-32).
        assert ops.count("rnr.addr_base.enable") >= 3
        assert ops[-1] == "rnr.end"

    def test_trace_without_rnr_has_no_rnr_directives(self, graph):
        workload = PageRankWorkload(graph, iterations=2)
        trace = workload.build_trace(rnr=False)
        assert all(not d.op.startswith("rnr.") for d in trace.directives())

    def test_droplet_descriptors_always_present(self, graph):
        workload = PageRankWorkload(graph, iterations=2)
        trace = workload.build_trace(rnr=False)
        ops = [d.op for d in trace.directives()]
        assert "droplet.edges" in ops
        assert "droplet.values" in ops

    def test_reference_stream_identical_with_and_without_rnr(self, graph):
        """The RnR annotations must not perturb the memory accesses."""
        workload = PageRankWorkload(graph, iterations=2)
        without = [
            (r.kind, r.addr) for r in workload.build_trace(rnr=False).memory_references()
        ]
        with_rnr = [
            (r.kind, r.addr) for r in workload.build_trace(rnr=True).memory_references()
        ]
        assert without == with_rnr


class TestCallbacks:
    def test_edge_line_values(self, graph):
        workload = PageRankWorkload(graph, iterations=2)
        workload.build_trace(rnr=False)
        targets = workload.region("targets")
        values = workload.edge_line_values(targets.base // 64)
        assert values == [int(v) for v in workload.in_graph.targets[:16]]

    def test_input_bytes(self, graph):
        workload = PageRankWorkload(graph, iterations=2)
        assert workload.input_bytes > graph.num_edges * 4
