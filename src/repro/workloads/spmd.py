"""SPMD partitioned execution (paper Section VI).

The paper runs every application as Single Program Multiple Data: the
input is partitioned (METIS, 4 parts), each worker core executes the same
kernel over its own partition, and per-core RnR state records each
partition's miss sequence independently (Section V-E).

``build_spmd_traces`` slices a graph workload by partition and produces
one trace per core, all sharing one virtual address space — the shared
arrays are at the same addresses in every trace, only the vertex ranges
differ.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.graphs.partition import partition_bfs, partition_vertex_ranges
from repro.trace.trace import Trace
from repro.workloads.base import StreamCursor, emit_interleaved
from repro.workloads.pagerank import PC_NORM_LOAD, PC_NORM_STORE, PageRankWorkload


class _PartitionedPageRank(PageRankWorkload):
    """PageRank over a subset of destination vertices (one SPMD worker)."""

    def __init__(
        self,
        graph: CSRGraph,
        vertices: np.ndarray,
        iterations: int,
        window_size: int,
    ):
        super().__init__(graph, iterations, window_size)
        self._vertices = np.asarray(vertices, dtype=np.int64)

    def _run_iteration(self, iteration: int) -> None:
        vertices = self._vertices
        p_curr = self.region(self._curr_name)
        p_next = self.region(self._next_name)
        self._pull(vertices)
        emit_interleaved(
            self.builder,
            [
                (StreamCursor(p_next, PC_NORM_LOAD, work_per_elem=2), vertices),
                (
                    StreamCursor(p_curr, PC_NORM_STORE, work_per_elem=2, is_store=True),
                    vertices,
                ),
            ],
        )

        # The numerics are advanced once per *global* iteration by worker 0;
        # each worker's trace only covers its own partition's accesses.
        if int(self._vertices[0]) == self._numerics_owner:
            self._advance_numerics()

    _numerics_owner = -1  # set by build_spmd_traces on exactly one worker


def build_spmd_traces(
    graph: CSRGraph,
    cores: int = 4,
    iterations: int = 3,
    window_size: int = 16,
    rnr: bool = True,
    assignment: Optional[np.ndarray] = None,
) -> List[Trace]:
    """Partition ``graph`` and build one PageRank trace per worker core.

    Every worker annotates its own RnR regions (per-core architectural
    state), and each reads the shared ``p_curr`` — mostly from its own
    partition thanks to the partitioner's locality, as the paper argues.
    """
    if assignment is None:
        assignment = partition_bfs(graph, cores)
    ranges: Sequence[np.ndarray] = partition_vertex_ranges(assignment, cores)
    traces: List[Trace] = []
    for part, vertices in enumerate(ranges):
        if vertices.size == 0:
            traces.append(Trace())
            continue
        worker = _PartitionedPageRank(graph, vertices, iterations, window_size)
        worker._numerics_owner = int(vertices[0]) if part == 0 else -2
        traces.append(worker.build_trace(rnr=rnr))
    return traces
