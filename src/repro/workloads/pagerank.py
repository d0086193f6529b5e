"""Vertex-centric pull PageRank with RnR annotations (paper Algorithm 1,
from Ligra [48]).

Per iteration, each destination vertex pulls ``p_curr[s] / deg+(s)`` from
every in-neighbour ``s`` (the contribution is pre-divided by out-degree in
the normalise phase, the standard Ligra formulation, so the inner loop
performs exactly one irregular gather per edge).  The gathers into
``p_curr`` are the repeating irregular pattern RnR records; the CSR
offsets/targets walks are regular streams.

The paper's out-of-place update means ``p_curr`` and ``p_next`` swap base
pointers every iteration (Algorithm 1 line 33); the workload emits the
corresponding ``AddrBase.disable``/``enable`` swap (lines 31-32), which
exercises RnR's base+offset replay across swapped bases.
"""

from __future__ import annotations

import numpy as np

from repro.config import LINE_SIZE
from repro.graphs.csr import CSRGraph
from repro.workloads.base import (
    Gather,
    StreamCursor,
    Workload,
    emit_interleaved,
    emit_rows,
)

PC_OFFSETS = 0x400
PC_TARGETS = 0x404
PC_GATHER = 0x408
PC_PNEXT = 0x40C
PC_NORM_LOAD = 0x410
PC_NORM_STORE = 0x414
PC_DEG = 0x418

DAMPING = 0.85


class PageRankWorkload(Workload):
    name = "pagerank"

    def __init__(self, graph: CSRGraph, iterations: int = 3, window_size: int = 16):
        super().__init__(iterations, window_size)
        self.graph = graph
        self.in_graph = graph.transpose()
        self.ranks: np.ndarray = np.empty(0)
        self.error_history: list = []

    # ------------------------------------------------------------------
    def _allocate(self) -> None:
        num_vertices = self.graph.num_vertices
        num_edges = self.in_graph.num_edges
        self.space.alloc("offsets", num_vertices + 1, 8)
        self.space.alloc("targets", max(1, num_edges), 4)
        self.space.alloc("out_deg", num_vertices, 4)
        self.space.alloc("p_a", num_vertices, 8)
        self.space.alloc("p_b", num_vertices, 8)
        self._curr_name = "p_a"
        self._next_name = "p_b"
        # Numerical state: value arrays hold rank / out-degree (the value
        # actually gathered in the inner loop).
        out_deg = np.maximum(self.graph.degrees(), 1).astype(np.float64)
        self._out_deg = out_deg
        self.ranks = np.full(num_vertices, 1.0 / num_vertices)
        self._contrib = self.ranks / out_deg
        self.error_history = []

    def _setup_rnr(self) -> None:
        num_vertices = self.graph.num_vertices
        self.rnr.addr_base.set(self.region("p_a"), num_vertices)
        self.rnr.addr_base.set(self.region("p_b"), num_vertices)
        self.rnr.addr_base.enable(self.region(self._curr_name))

    def emit_droplet_descriptors(self) -> None:
        """Emit droplet.edges/droplet.values directives."""
        targets = self.region("targets")
        self.builder.directive("droplet.edges", targets.base, targets.size)
        for name in ("p_a", "p_b"):
            region = self.region(name)
            self.builder.directive(
                "droplet.values", region.base, region.size, region.element_size
            )

    # ------------------------------------------------------------------
    def _run_iteration(self, iteration: int) -> None:
        vertices = np.arange(self.in_graph.num_vertices)
        p_curr = self.region(self._curr_name)
        p_next = self.region(self._next_name)
        self._pull(vertices)

        # Normalise phase (PRNormalize): stream over both vectors.
        emit_interleaved(
            self.builder,
            [
                (StreamCursor(p_next, PC_NORM_LOAD, work_per_elem=2), vertices),
                (StreamCursor(self.region("out_deg"), PC_DEG), vertices),
                (
                    StreamCursor(p_curr, PC_NORM_STORE, work_per_elem=2, is_store=True),
                    vertices,
                ),
            ],
        )

        self._advance_numerics()

    def _pull(self, vertices: np.ndarray) -> None:
        """Edge phase: each destination vertex pulls its in-neighbours'
        contributions."""
        p_curr = self.region(self._curr_name)
        p_next = self.region(self._next_name)
        emit_rows(
            self.builder,
            vertices,
            self.in_graph.offsets,
            StreamCursor(self.region("offsets"), PC_OFFSETS),
            [
                (StreamCursor(self.region("targets"), PC_TARGETS), None),
                (Gather(p_curr, PC_GATHER, work=2), self.in_graph.targets),
            ],
            StreamCursor(p_next, PC_PNEXT, work_per_elem=2, is_store=True),
        )

    def _advance_numerics(self) -> None:
        """The actual PageRank step the trace above executes."""
        in_graph = self.in_graph
        num_vertices = in_graph.num_vertices
        dest_per_edge = np.repeat(np.arange(num_vertices), in_graph.degrees())
        sums = np.bincount(
            dest_per_edge,
            weights=self._contrib[in_graph.targets],
            minlength=num_vertices,
        )
        new_ranks = (1.0 - DAMPING) / num_vertices + DAMPING * sums
        self.error_history.append(float(np.abs(new_ranks - self.ranks).sum()))
        self.ranks = new_ranks
        self._contrib = new_ranks / self._out_deg

    def _after_iteration(self, iteration: int, rnr_enabled: bool) -> None:
        # Out-of-place update: swap the role of the two rank arrays and,
        # when RnR is on, swap the enabled boundary register with it.
        self._curr_name, self._next_name = self._next_name, self._curr_name
        if rnr_enabled and iteration < self.iterations - 1:
            self.rnr.addr_base.disable(self.region(self._next_name))
            self.rnr.addr_base.enable(self.region(self._curr_name))

    # ------------------------------------------------------------------
    @property
    def input_bytes(self) -> int:
        """Footprint of the input data in bytes."""
        return self.graph.input_bytes + self.graph.num_vertices * 8 * 2

    def edge_line_values(self, line_addr: int) -> list:
        """DROPLET's view of the edge-array data in one cache line."""
        targets = self.region("targets")
        base_addr = line_addr * LINE_SIZE
        first = max(0, (base_addr - targets.base) // 4)
        last = min(self.in_graph.num_edges, first + LINE_SIZE // 4)
        return [int(v) for v in self.in_graph.targets[first:last]]
