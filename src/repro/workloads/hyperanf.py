"""Edge-centric Hyper-ANF with RnR annotations (from X-Stream [44]).

Every iteration streams the edge list and unions the source vertex's
HyperLogLog sketch with the destination's: ``hll_next[u] |= hll_curr[v]``.
The edge stream is regular; the sketch reads ``hll_curr[v]`` are the
repeating irregular gathers RnR targets.  Like PageRank, the current/next
sketch arrays swap base pointers each iteration.

Each sketch is 16 one-byte registers, so a vertex sketch is a 16-byte
element (4 per cache line) — the same "element smaller than a line"
regime as the paper's vertex data.
"""

from __future__ import annotations

import numpy as np

from repro.config import LINE_SIZE
from repro.graphs.csr import CSRGraph
from repro.workloads.base import Gather, StreamCursor, Workload, emit_interleaved
from repro.workloads.hll import HllArray

PC_EDGES = 0x500
PC_GATHER = 0x504
PC_UNION_LOAD = 0x508
PC_UNION_STORE = 0x50C
PC_COPY_LOAD = 0x510
PC_COPY_STORE = 0x514

SKETCH_BYTES = 16  # 16 registers x 1 byte


class HyperAnfWorkload(Workload):
    name = "hyperanf"

    def __init__(self, graph: CSRGraph, iterations: int = 3, window_size: int = 16):
        super().__init__(iterations, window_size)
        self.graph = graph
        self.edge_pairs = graph.edge_pairs()
        self.neighbourhood_history: list = []

    # ------------------------------------------------------------------
    def _allocate(self) -> None:
        num_vertices = self.graph.num_vertices
        num_edges = max(1, self.graph.num_edges)
        self.space.alloc("edges", num_edges, 8)  # (src, dst) as 2 x 4 B
        self.space.alloc("hll_a", num_vertices, SKETCH_BYTES)
        self.space.alloc("hll_b", num_vertices, SKETCH_BYTES)
        self._curr_name = "hll_a"
        self._next_name = "hll_b"
        self._hll = HllArray.singletons(num_vertices)
        self.neighbourhood_history = [self._hll.neighbourhood_function()]

    def _setup_rnr(self) -> None:
        num_vertices = self.graph.num_vertices
        self.rnr.addr_base.set(self.region("hll_a"), num_vertices)
        self.rnr.addr_base.set(self.region("hll_b"), num_vertices)
        self.rnr.addr_base.enable(self.region(self._curr_name))

    def emit_droplet_descriptors(self) -> None:
        """Emit droplet.edges/droplet.values directives."""
        edges = self.region("edges")
        self.builder.directive("droplet.edges", edges.base, edges.size)
        for name in ("hll_a", "hll_b"):
            region = self.region(name)
            self.builder.directive(
                "droplet.values", region.base, region.size, region.element_size
            )

    # ------------------------------------------------------------------
    def _run_iteration(self, iteration: int) -> None:
        hll_curr = self.region(self._curr_name)
        hll_next = self.region(self._next_name)

        # Copy phase: sketches only grow, so hll_next starts as a copy of
        # hll_curr before this iteration's unions land in it.
        vertices = np.arange(self.graph.num_vertices)
        emit_interleaved(
            self.builder,
            [
                (StreamCursor(hll_curr, PC_COPY_LOAD), vertices),
                (StreamCursor(hll_next, PC_COPY_STORE, is_store=True), vertices),
            ],
        )

        # Scatter/union phase over the edge stream (src-major order, so
        # hll_next[u] accesses are nearly sequential; hll_curr[v] is the
        # irregular gather).  The union store's work includes the
        # 16-register max-merge (8 instructions) before it.
        src = self.edge_pairs[:, 0]
        emit_interleaved(
            self.builder,
            [
                (StreamCursor(self.region("edges"), PC_EDGES), np.arange(len(src))),
                (Gather(hll_curr, PC_GATHER, work=2), self.edge_pairs[:, 1]),
                (StreamCursor(hll_next, PC_UNION_LOAD, work_per_elem=2), src),
                (
                    StreamCursor(
                        hll_next, PC_UNION_STORE, work_per_elem=2 + 8, is_store=True
                    ),
                    src,
                ),
            ],
        )

        self._advance_numerics()

    def _advance_numerics(self) -> None:
        new_hll = self._hll.copy()
        if self.edge_pairs.size:
            src = self.edge_pairs[:, 0]
            dst = self.edge_pairs[:, 1]
            np.maximum.at(new_hll.registers, src, self._hll.registers[dst])
        self._hll = new_hll
        self.neighbourhood_history.append(self._hll.neighbourhood_function())

    def _after_iteration(self, iteration: int, rnr_enabled: bool) -> None:
        self._curr_name, self._next_name = self._next_name, self._curr_name
        if rnr_enabled and iteration < self.iterations - 1:
            self.rnr.addr_base.disable(self.region(self._next_name))
            self.rnr.addr_base.enable(self.region(self._curr_name))

    # ------------------------------------------------------------------
    @property
    def input_bytes(self) -> int:
        """Footprint of the input data in bytes."""
        return (
            self.graph.num_edges * 8
            + self.graph.num_vertices * SKETCH_BYTES * 2
        )

    def edge_line_values(self, line_addr: int) -> list:
        """DROPLET: destination vertex ids inside one edge-array line."""
        edges = self.region("edges")
        base_addr = line_addr * LINE_SIZE
        first = max(0, (base_addr - edges.base) // 8)
        last = min(self.graph.num_edges, first + LINE_SIZE // 8)
        return [int(dst) for _, dst in self.edge_pairs[first:last]]
