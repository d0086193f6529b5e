"""Community detection by label propagation (paper Section II's
"community detection" [31], GPU-accelerated label propagation).

Synchronous label propagation: each vertex adopts the most frequent label
among its neighbours.  Reading ``labels_curr[neighbour]`` is the repeating
irregular gather; unlike PageRank the *data* converges (labels stop
changing) while the access *pattern* stays fixed — exactly the situation
RnR's record/replay exploits.
"""

from __future__ import annotations


import numpy as np

from repro.graphs.csr import CSRGraph
from repro.workloads.base import Gather, StreamCursor, Workload, emit_rows

PC_OFFSETS = 0x800
PC_TARGETS = 0x804
PC_GATHER = 0x808
PC_LABEL_STORE = 0x80C


class LabelPropagationWorkload(Workload):
    """Synchronous label propagation over a symmetrized graph."""

    name = "label_propagation"

    def __init__(self, graph: CSRGraph, iterations: int = 3, window_size: int = 16):
        super().__init__(iterations, window_size)
        self.graph = graph.symmetrized()
        self.labels: np.ndarray = np.empty(0)
        self.changes_history: list = []

    # ------------------------------------------------------------------
    def _allocate(self) -> None:
        num_vertices = self.graph.num_vertices
        num_edges = max(1, self.graph.num_edges)
        self.space.alloc("offsets", num_vertices + 1, 8)
        self.space.alloc("targets", num_edges, 4)
        self.space.alloc("labels_a", num_vertices, 4)
        self.space.alloc("labels_b", num_vertices, 4)
        self._curr_name = "labels_a"
        self._next_name = "labels_b"
        self.labels = np.arange(num_vertices, dtype=np.int64)
        self.changes_history = []

    def _setup_rnr(self) -> None:
        num_vertices = self.graph.num_vertices
        self.rnr.addr_base.set(self.region("labels_a"), num_vertices)
        self.rnr.addr_base.set(self.region("labels_b"), num_vertices)
        self.rnr.addr_base.enable(self.region(self._curr_name))

    def emit_droplet_descriptors(self) -> None:
        """Emit droplet.edges/droplet.values directives."""
        targets = self.region("targets")
        self.builder.directive("droplet.edges", targets.base, targets.size)
        for name in ("labels_a", "labels_b"):
            region = self.region(name)
            self.builder.directive(
                "droplet.values", region.base, region.size, region.element_size
            )

    # ------------------------------------------------------------------
    def _run_iteration(self, iteration: int) -> None:
        # The label store's work includes the argmax over the
        # neighbour-label histogram (4 instructions) before it.
        emit_rows(
            self.builder,
            np.arange(self.graph.num_vertices),
            self.graph.offsets,
            StreamCursor(self.region("offsets"), PC_OFFSETS),
            [
                (StreamCursor(self.region("targets"), PC_TARGETS), None),
                (
                    Gather(self.region(self._curr_name), PC_GATHER, work=2),
                    self.graph.targets,
                ),
            ],
            StreamCursor(
                self.region(self._next_name),
                PC_LABEL_STORE,
                work_per_elem=4 + 3,
                is_store=True,
            ),
        )

        self._advance_numerics()

    def _advance_numerics(self) -> None:
        """One synchronous sweep: adopt the plurality neighbour label
        (deterministic tie-break: smallest label id).

        Vectorised: (vertex, neighbour-label) pairs are sorted so equal
        pairs are adjacent, run-lengths counted, and per vertex the first
        maximal run (i.e. the smallest label among the most frequent)
        selected."""
        num_vertices = self.graph.num_vertices
        degrees = self.graph.degrees()
        if self.graph.num_edges == 0:
            self.changes_history.append(0)
            return
        dest = np.repeat(np.arange(num_vertices, dtype=np.int64), degrees)
        neighbour_labels = self.labels[self.graph.targets]
        keys = dest * (num_vertices + 1) + neighbour_labels
        keys.sort()
        # Run-length encode the sorted (vertex, label) keys.
        boundaries = np.concatenate(([True], keys[1:] != keys[:-1]))
        run_keys = keys[boundaries]
        run_counts = np.diff(np.concatenate((np.nonzero(boundaries)[0], [keys.size])))
        run_vertices = run_keys // (num_vertices + 1)
        run_labels = run_keys % (num_vertices + 1)
        # Per vertex: pick the run with the max count; ties resolve to the
        # smallest label because runs are label-sorted and argmax-by-scan
        # keeps the first maximum.
        new_labels = self.labels.copy()
        order = np.lexsort((run_labels, -run_counts, run_vertices))
        sorted_vertices = run_vertices[order]
        first = np.concatenate(([True], sorted_vertices[1:] != sorted_vertices[:-1]))
        new_labels[sorted_vertices[first]] = run_labels[order][first]
        self.changes_history.append(int(np.sum(new_labels != self.labels)))
        self.labels = new_labels

    def _after_iteration(self, iteration: int, rnr_enabled: bool) -> None:
        self._curr_name, self._next_name = self._next_name, self._curr_name
        if rnr_enabled and iteration < self.iterations - 1:
            self.rnr.addr_base.disable(self.region(self._next_name))
            self.rnr.addr_base.enable(self.region(self._curr_name))

    # ------------------------------------------------------------------
    @property
    def input_bytes(self) -> int:
        """Footprint of the input data in bytes."""
        return self.graph.input_bytes + self.graph.num_vertices * 4 * 2

    @property
    def num_communities(self) -> int:
        """Distinct labels after the simulated iterations."""
        return int(np.unique(self.labels).size)

    def edge_line_values(self, line_addr: int) -> list:
        """Vertex ids stored in one edge-array cache line (DROPLET)."""
        targets = self.region("targets")
        base_addr = line_addr * 64
        if not targets.contains(base_addr):
            return []
        first = (base_addr - targets.base) // 4
        last = min(self.graph.num_edges, first + 16)
        return [int(v) for v in self.graph.targets[first:last]]
