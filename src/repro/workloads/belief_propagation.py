"""Loopy belief propagation over a pairwise MRF on a graph (paper
Section II: one of the "iterative graph algorithms" with repeating
irregular access patterns [28]).

Binary-state sum-product BP in log-space: every iteration recomputes each
directed edge's message from the incoming messages of the source vertex.
Message reads ``msg_curr[rev_edge]`` follow the graph structure — the
repeating irregular gather — while the edge list itself streams.

Like PageRank, messages are double-buffered, so ``msg_curr``/``msg_next``
swap bases each iteration and the workload exercises RnR's base-swap
replay.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.workloads.base import Gather, StreamCursor, Workload, emit_interleaved

PC_EDGES = 0x700
PC_GATHER = 0x704
PC_MSG_STORE = 0x708
PC_BELIEF_LOAD = 0x70C
PC_BELIEF_STORE = 0x710
PC_REVERSE = 0x714

MESSAGE_BYTES = 8  # one float64 log-odds per directed edge


class BeliefPropagationWorkload(Workload):
    """Sum-product BP with binary states, parametrised by edge coupling."""

    name = "belief_propagation"

    def __init__(
        self,
        graph: CSRGraph,
        iterations: int = 3,
        window_size: int = 16,
        coupling: float = 0.3,
        prior_seed: int = 5,
    ):
        super().__init__(iterations, window_size)
        self.graph = graph.symmetrized()
        self.coupling = coupling
        self.prior_seed = prior_seed
        # Directed-edge layout: edge e = (src(e) -> dst(e)) in CSR order.
        self._edge_src = np.repeat(
            np.arange(self.graph.num_vertices), self.graph.degrees()
        )
        self._edge_dst = self.graph.targets.astype(np.int64)
        self._reverse = self._build_reverse_index()
        self.beliefs: np.ndarray = np.empty(0)
        self.residual_history: list = []

    def _build_reverse_index(self) -> np.ndarray:
        """reverse[e] = index of the edge dst(e) -> src(e).

        The symmetrized graph guarantees every edge has its reverse."""
        num_vertices = self.graph.num_vertices
        keys = self._edge_src * num_vertices + self._edge_dst
        reverse_keys = self._edge_dst * num_vertices + self._edge_src
        order = np.argsort(keys)
        positions = np.searchsorted(keys[order], reverse_keys)
        reverse = order[positions]
        if not np.array_equal(keys[reverse], reverse_keys):
            raise ValueError("graph is not symmetric; BP needs reverse edges")
        return reverse

    # ------------------------------------------------------------------
    def _allocate(self) -> None:
        num_edges = max(1, self.graph.num_edges)
        num_vertices = self.graph.num_vertices
        self.space.alloc("edges", num_edges, 8)
        self.space.alloc("reverse", num_edges, 4)
        self.space.alloc("msg_a", num_edges, MESSAGE_BYTES)
        self.space.alloc("msg_b", num_edges, MESSAGE_BYTES)
        self.space.alloc("prior", num_vertices, 8)
        self.space.alloc("belief", num_vertices, 8)
        self._curr_name = "msg_a"
        self._next_name = "msg_b"
        rng = np.random.default_rng(self.prior_seed)
        self._prior = rng.uniform(-0.5, 0.5, size=num_vertices)
        self._messages = np.zeros(num_edges)
        self.beliefs = self._prior.copy()
        self.residual_history = []

    def _setup_rnr(self) -> None:
        num_edges = self.graph.num_edges
        self.rnr.addr_base.set(self.region("msg_a"), num_edges)
        self.rnr.addr_base.set(self.region("msg_b"), num_edges)
        self.rnr.addr_base.enable(self.region(self._curr_name))

    def emit_droplet_descriptors(self) -> None:
        """Emit droplet.edges/droplet.values directives."""
        edges = self.region("edges")
        self.builder.directive("droplet.edges", edges.base, edges.size)
        for name in ("msg_a", "msg_b"):
            region = self.region(name)
            self.builder.directive(
                "droplet.values", region.base, region.size, region.element_size
            )

    # ------------------------------------------------------------------
    def _run_iteration(self, iteration: int) -> None:
        # Message update: msg_next[e] = f(prior[src] + sum(in msgs) -
        # msg_curr[rev(e)]).  The gather msg_curr[rev(e)] is irregular
        # because the reverse-edge index permutes the edge space.
        msg_curr = self.region(self._curr_name)
        msg_next = self.region(self._next_name)
        edges = np.arange(self.graph.num_edges)
        emit_interleaved(
            self.builder,
            [
                (StreamCursor(self.region("edges"), PC_EDGES), edges),
                (StreamCursor(self.region("reverse"), PC_REVERSE), edges),
                (Gather(msg_curr, PC_GATHER, work=3), self._reverse),
                (
                    StreamCursor(msg_next, PC_MSG_STORE, work_per_elem=3, is_store=True),
                    edges,
                ),
            ],
        )

        # Belief update: stream vertices, fold in incident messages.
        vertices = np.arange(self.graph.num_vertices)
        emit_interleaved(
            self.builder,
            [
                (StreamCursor(self.region("prior"), PC_BELIEF_LOAD), vertices),
                (
                    StreamCursor(
                        self.region("belief"),
                        PC_BELIEF_STORE,
                        work_per_elem=2,
                        is_store=True,
                    ),
                    vertices,
                ),
            ],
        )

        self._advance_numerics()

    def _advance_numerics(self) -> None:
        """One synchronous log-space BP sweep (binary states)."""
        num_vertices = self.graph.num_vertices
        incoming = np.zeros(num_vertices)
        np.add.at(incoming, self._edge_dst, self._messages)
        # Outgoing message on edge e excludes the reverse message.
        pre = self._prior[self._edge_src] + (
            incoming[self._edge_src] - self._messages[self._reverse]
        )
        new_messages = np.tanh(pre / 2.0)
        new_messages = 2.0 * np.arctanh(
            np.clip(np.tanh(self.coupling) * new_messages, -0.999999, 0.999999)
        )
        residual = float(np.abs(new_messages - self._messages).max())
        self.residual_history.append(residual)
        self._messages = new_messages
        incoming = np.zeros(num_vertices)
        np.add.at(incoming, self._edge_dst, self._messages)
        self.beliefs = self._prior + incoming

    def _after_iteration(self, iteration: int, rnr_enabled: bool) -> None:
        self._curr_name, self._next_name = self._next_name, self._curr_name
        if rnr_enabled and iteration < self.iterations - 1:
            self.rnr.addr_base.disable(self.region(self._next_name))
            self.rnr.addr_base.enable(self.region(self._curr_name))

    # ------------------------------------------------------------------
    @property
    def input_bytes(self) -> int:
        """Footprint of the input data in bytes."""
        return self.graph.num_edges * (8 + 4 + 2 * MESSAGE_BYTES)

    def edge_line_values(self, line_addr: int) -> list:
        """Reverse-edge indices in one cache line (DROPLET's view)."""
        reverse = self.region("reverse")
        base_addr = line_addr * 64
        if not reverse.contains(base_addr):
            return []
        first = (base_addr - reverse.base) // 4
        last = min(self.graph.num_edges, first + 16)
        return [int(r) for r in self._reverse[first:last]]
