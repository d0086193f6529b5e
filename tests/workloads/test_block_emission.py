"""Block emission reproduces the per-element loops byte for byte.

Every workload that emits its trace as numpy blocks is built next to its
per-element oracle (``loop_oracle.py``), with RnR on and off, and the two
traces must have identical packed columns and directive tables.
"""

import numpy as np
import pytest

from repro.graphs.csr import CSRGraph
from repro.graphs.datasets import GRAPH_NAMES, make_graph
from repro.graphs.generators import uniform_random
from repro.graphs.partition import partition_bfs, partition_vertex_ranges
from repro.sparse.csr_matrix import CSRMatrix
from repro.sparse.datasets import MATRIX_NAMES, make_matrix
from repro.sparse.generators import banded_random
from repro.workloads import (
    BeliefPropagationWorkload,
    HyperAnfWorkload,
    LabelPropagationWorkload,
    PageRankWorkload,
    SpCGWorkload,
    SpMVWorkload,
    base,
)
from repro.workloads.spmd import _PartitionedPageRank
from tests.workloads.loop_oracle import ORACLES

GRAPH_WORKLOADS = [
    PageRankWorkload,
    HyperAnfWorkload,
    LabelPropagationWorkload,
    BeliefPropagationWorkload,
]
MATRIX_WORKLOADS = [SpCGWorkload, SpMVWorkload]
ITERATIONS = 2
WINDOW = 16

#: Hand-made graphs: one vertex (with a self-loop, since belief
#: propagation needs an edge to register its message arrays), and a
#: graph where most vertices have no in-edges and some no edges at all,
#: so pull PageRank and the symmetrized kernels walk empty rows.
EDGE_GRAPHS = {
    "one-vertex": CSRGraph.from_edges(1, [(0, 0)]),
    "zero-in-degree": CSRGraph.from_edges(
        40,
        [(0, v) for v in range(1, 20, 2)] + [(v, 3) for v in range(20, 30)],
    ),
}


def _graph(name):
    return EDGE_GRAPHS[name] if name in EDGE_GRAPHS else make_graph(name, "test")


def _empty_row_matrix():
    """Symmetric, diagonally dominant, with rows (and columns) 0, 7 and
    the last one empty."""
    n = 24
    empty = {0, 7, n - 1}
    entries = []
    for i in range(n):
        if i in empty:
            continue
        entries.append((i, i, 4.0))
        j = i + 3
        if j < n and j not in empty:
            entries += [(i, j, -1.0), (j, i, -1.0)]
    rows, cols, values = zip(*entries)
    return CSRMatrix.from_coo((n, n), rows, cols, values)


def _matrix(name):
    return _empty_row_matrix() if name == "empty-row" else make_matrix(name, "test")


def assert_same_trace(cls, *args, rnr):
    blocked = cls(*args).build_trace(rnr=rnr)
    looped = ORACLES[cls](*args).build_trace(rnr=rnr)
    assert len(blocked) == len(looped)
    assert [bytes(column) for column in blocked.packed_columns()] == [
        bytes(column) for column in looped.packed_columns()
    ]
    assert blocked.directive_table() == looped.directive_table()


@pytest.mark.parametrize("rnr", [True, False], ids=["rnr", "no-rnr"])
@pytest.mark.parametrize("name", list(GRAPH_NAMES) + list(EDGE_GRAPHS))
@pytest.mark.parametrize("cls", GRAPH_WORKLOADS, ids=lambda cls: cls.name)
def test_graph_workloads_match_loops(cls, name, rnr):
    assert_same_trace(cls, _graph(name), ITERATIONS, WINDOW, rnr=rnr)


@pytest.mark.parametrize("rnr", [True, False], ids=["rnr", "no-rnr"])
@pytest.mark.parametrize("name", list(MATRIX_NAMES) + ["empty-row"])
@pytest.mark.parametrize("cls", MATRIX_WORKLOADS, ids=lambda cls: cls.name)
def test_matrix_workloads_match_loops(cls, name, rnr):
    assert_same_trace(cls, _matrix(name), ITERATIONS, WINDOW, rnr=rnr)


@pytest.mark.parametrize("rnr", [True, False], ids=["rnr", "no-rnr"])
@pytest.mark.parametrize("name", list(GRAPH_NAMES) + list(EDGE_GRAPHS))
def test_spmd_partitions_match_loops(name, rnr):
    graph = _graph(name)
    parts = min(4, graph.num_vertices)
    for vertices in partition_vertex_ranges(partition_bfs(graph, parts), parts):
        if vertices.size:
            assert_same_trace(
                _PartitionedPageRank, graph, vertices, ITERATIONS, WINDOW, rnr=rnr
            )


@pytest.mark.parametrize("rnr", [True, False], ids=["rnr", "no-rnr"])
def test_spmd_unsorted_partition_matches_loops(rnr):
    # Revisits lines out of order and jumps back: every touch compares
    # with the previous touch, not with index - 1.
    vertices = np.array([5, 3, 100, 101, 7, 900, 6, 1535], dtype=np.int64)
    graph = make_graph("amazon", "test")
    assert_same_trace(_PartitionedPageRank, graph, vertices, ITERATIONS, WINDOW, rnr=rnr)


@pytest.mark.parametrize("block", [1, 7, 100])
@pytest.mark.parametrize(
    "cls", GRAPH_WORKLOADS + MATRIX_WORKLOADS + [_PartitionedPageRank],
    ids=lambda cls: cls.__name__,
)
def test_small_blocks_match_loops(cls, block, monkeypatch):
    """Block boundaries fall inside rows' worth of touches, between a
    cursor's touches of one line, and (block 1) around every row."""
    monkeypatch.setattr(base, "BLOCK_TOUCHES", block)
    if cls in MATRIX_WORKLOADS:
        args = (banded_random(200, bands=(1, 4, 32), seed=3),)
    elif cls is _PartitionedPageRank:
        graph = uniform_random(200, avg_degree=5, seed=3)
        args = (graph, np.array([9, 8, 150, 10, 11, 199, 0]))
    else:
        args = (uniform_random(200, avg_degree=5, seed=3),)
    assert_same_trace(cls, *args, ITERATIONS, WINDOW, rnr=True)


def test_edge_cases_have_empty_rows():
    """The hand-made inputs really exercise empty rows."""
    in_degrees = EDGE_GRAPHS["zero-in-degree"].transpose().degrees()
    assert (in_degrees == 0).sum() > 20
    assert (EDGE_GRAPHS["zero-in-degree"].symmetrized().degrees() == 0).any()
    assert (np.diff(_empty_row_matrix().indptr) == 0).sum() == 3
