"""Per-element trace emission: the oracle for the block-emitting workloads.

Each class here overrides one workload's ``_run_iteration`` with the
straight Python loop that walks the kernel one touched element at a
time, through a per-touch :class:`LoopCursor`.  The workloads in
``repro.workloads`` emit the same references as numpy blocks; their
traces must be byte-identical to these (``test_block_emission.py``).
"""

from __future__ import annotations

from repro.config import LINE_SIZE
from repro.trace.address_space import Region
from repro.trace.builder import TraceBuilder
from repro.workloads import (
    BeliefPropagationWorkload,
    HyperAnfWorkload,
    LabelPropagationWorkload,
    PageRankWorkload,
    SpCGWorkload,
    SpMVWorkload,
)
from repro.workloads import belief_propagation as bp
from repro.workloads import hyperanf, label_propagation, pagerank, spcg, spmv
from repro.workloads.spmd import _PartitionedPageRank


class LoopCursor:
    """Line-compressed emission one touch at a time: ``touch(i)`` emits a
    reference when element ``i``'s line differs from the previous touch's
    and otherwise charges the touch as gap work."""

    def __init__(
        self,
        builder: TraceBuilder,
        region: Region,
        pc: int,
        work_per_elem: int = 1,
        is_store: bool = False,
    ):
        self._builder = builder
        self._region = region
        self._pc = pc
        self._work = work_per_elem
        self._emit = builder.store if is_store else builder.load
        self._last_line = -1

    def touch(self, index: int) -> None:
        address = self._region.addr(index)
        line = address // LINE_SIZE
        if line != self._last_line:
            self._builder.work(self._work)
            self._emit(address, self._pc)
            self._last_line = line
        else:
            self._builder.work(self._work + 1)


def loop_stream(builder, region, start, count, pc, work_per_elem, is_store):
    """One reference per line of a sequential walk, charging the line's
    other element touches to that reference."""
    if count <= 0:
        return
    first = region.addr(start)
    last = region.addr(start + count - 1)
    emit = builder.store if is_store else builder.load
    elems_per_line = max(1, LINE_SIZE // region.element_size)
    line = first // LINE_SIZE
    last_line = last // LINE_SIZE
    remaining = count
    while line <= last_line:
        covered = min(remaining, elems_per_line)
        builder.work(covered * work_per_elem + (covered - 1))
        emit(line * LINE_SIZE, pc)
        remaining -= covered
        line += 1


class LoopPageRank(PageRankWorkload):
    def _run_iteration(self, iteration: int) -> None:
        builder = self.builder
        in_graph = self.in_graph
        num_vertices = in_graph.num_vertices
        p_curr = self.region(self._curr_name)
        p_next = self.region(self._next_name)
        offsets_cursor = LoopCursor(builder, self.region("offsets"), pagerank.PC_OFFSETS)
        targets_cursor = LoopCursor(builder, self.region("targets"), pagerank.PC_TARGETS)
        pnext_cursor = LoopCursor(
            builder, p_next, pagerank.PC_PNEXT, work_per_elem=2, is_store=True
        )
        in_offsets = in_graph.offsets
        in_targets = in_graph.targets
        for dest in range(num_vertices):
            offsets_cursor.touch(dest)
            start, end = in_offsets[dest], in_offsets[dest + 1]
            for edge in range(start, end):
                targets_cursor.touch(edge)
                builder.work(2)
                builder.load(p_curr.addr(int(in_targets[edge])), pagerank.PC_GATHER)
            pnext_cursor.touch(dest)

        deg_cursor = LoopCursor(builder, self.region("out_deg"), pagerank.PC_DEG)
        next_load = LoopCursor(builder, p_next, pagerank.PC_NORM_LOAD, work_per_elem=2)
        curr_store = LoopCursor(
            builder, p_curr, pagerank.PC_NORM_STORE, work_per_elem=2, is_store=True
        )
        for vertex in range(num_vertices):
            next_load.touch(vertex)
            deg_cursor.touch(vertex)
            curr_store.touch(vertex)

        self._advance_numerics()


class LoopPartitionedPageRank(_PartitionedPageRank):
    def _run_iteration(self, iteration: int) -> None:
        builder = self.builder
        in_graph = self.in_graph
        p_curr = self.region(self._curr_name)
        p_next = self.region(self._next_name)
        offsets_cursor = LoopCursor(builder, self.region("offsets"), pagerank.PC_OFFSETS)
        targets_cursor = LoopCursor(builder, self.region("targets"), pagerank.PC_TARGETS)
        pnext_cursor = LoopCursor(
            builder, p_next, pagerank.PC_PNEXT, work_per_elem=2, is_store=True
        )
        in_offsets = in_graph.offsets
        in_targets = in_graph.targets
        for dest in self._vertices:
            offsets_cursor.touch(int(dest))
            start, end = in_offsets[dest], in_offsets[dest + 1]
            for edge in range(start, end):
                targets_cursor.touch(int(edge))
                builder.work(2)
                builder.load(p_curr.addr(int(in_targets[edge])), pagerank.PC_GATHER)
            pnext_cursor.touch(int(dest))

        next_load = LoopCursor(builder, p_next, pagerank.PC_NORM_LOAD, work_per_elem=2)
        curr_store = LoopCursor(
            builder, p_curr, pagerank.PC_NORM_STORE, work_per_elem=2, is_store=True
        )
        for vertex in self._vertices:
            next_load.touch(int(vertex))
            curr_store.touch(int(vertex))

        if int(self._vertices[0]) == self._numerics_owner:
            self._advance_numerics()


class LoopHyperAnf(HyperAnfWorkload):
    def _run_iteration(self, iteration: int) -> None:
        builder = self.builder
        hll_curr = self.region(self._curr_name)
        hll_next = self.region(self._next_name)
        edges_cursor = LoopCursor(builder, self.region("edges"), hyperanf.PC_EDGES)
        union_load = LoopCursor(builder, hll_next, hyperanf.PC_UNION_LOAD, work_per_elem=2)
        union_store = LoopCursor(
            builder, hll_next, hyperanf.PC_UNION_STORE, work_per_elem=2, is_store=True
        )
        copy_load = LoopCursor(builder, hll_curr, hyperanf.PC_COPY_LOAD)
        copy_store = LoopCursor(builder, hll_next, hyperanf.PC_COPY_STORE, is_store=True)
        for vertex in range(self.graph.num_vertices):
            copy_load.touch(vertex)
            copy_store.touch(vertex)
        for edge_index, (src, dst) in enumerate(self.edge_pairs):
            edges_cursor.touch(edge_index)
            builder.work(2)
            builder.load(hll_curr.addr(int(dst)), hyperanf.PC_GATHER)
            union_load.touch(int(src))
            builder.work(8)
            union_store.touch(int(src))

        self._advance_numerics()


class LoopSpCG(SpCGWorkload):
    def _run_iteration(self, iteration: int) -> None:
        builder = self.builder
        matrix = self.matrix
        n = matrix.num_rows
        p_region = self.region("p")
        indptr_cursor = LoopCursor(builder, self.region("indptr"), spcg.PC_INDPTR)
        indices_cursor = LoopCursor(builder, self.region("indices"), spcg.PC_INDICES)
        values_cursor = LoopCursor(builder, self.region("values"), spcg.PC_VALUES)
        ap_cursor = LoopCursor(
            builder, self.region("ap"), spcg.PC_AP_STORE, work_per_elem=2, is_store=True
        )
        indptr = matrix.indptr
        indices = matrix.indices
        for row in range(n):
            indptr_cursor.touch(row)
            for element in range(indptr[row], indptr[row + 1]):
                indices_cursor.touch(element)
                values_cursor.touch(element)
                builder.work(2)
                builder.load(p_region.addr(int(indices[element])), spcg.PC_GATHER)
            ap_cursor.touch(row)

        for name, is_store in (
            ("p", False),
            ("ap", False),
            ("x", True),
            ("r", True),
            ("r", False),
            ("p", True),
        ):
            loop_stream(builder, self.region(name), 0, n, spcg.PC_VEC, 2, is_store)

        self._advance_numerics()


class LoopSpMV(SpMVWorkload):
    def _run_iteration(self, iteration: int) -> None:
        builder = self.builder
        matrix = self.matrix
        x_region = self.region("x")
        indptr_cursor = LoopCursor(builder, self.region("indptr"), spmv.PC_INDPTR)
        indices_cursor = LoopCursor(builder, self.region("indices"), spmv.PC_INDICES)
        values_cursor = LoopCursor(builder, self.region("values"), spmv.PC_VALUES)
        y_cursor = LoopCursor(
            builder, self.region("y"), spmv.PC_Y_STORE, work_per_elem=2, is_store=True
        )
        indptr = matrix.indptr
        indices = matrix.indices
        for row in range(matrix.num_rows):
            indptr_cursor.touch(row)
            for element in range(indptr[row], indptr[row + 1]):
                indices_cursor.touch(int(element))
                values_cursor.touch(int(element))
                builder.work(2)
                builder.load(x_region.addr(int(indices[element])), spmv.PC_GATHER)
            y_cursor.touch(row)
        self.y = matrix.spmv(self._x)


class LoopLabelPropagation(LabelPropagationWorkload):
    def _run_iteration(self, iteration: int) -> None:
        builder = self.builder
        labels_curr = self.region(self._curr_name)
        labels_next = self.region(self._next_name)
        offsets_cursor = LoopCursor(builder, self.region("offsets"), label_propagation.PC_OFFSETS)
        targets_cursor = LoopCursor(builder, self.region("targets"), label_propagation.PC_TARGETS)
        store_cursor = LoopCursor(
            builder, labels_next, label_propagation.PC_LABEL_STORE, work_per_elem=3, is_store=True
        )
        offsets = self.graph.offsets
        targets = self.graph.targets
        for vertex in range(self.graph.num_vertices):
            offsets_cursor.touch(vertex)
            for edge in range(offsets[vertex], offsets[vertex + 1]):
                targets_cursor.touch(int(edge))
                builder.work(2)
                builder.load(labels_curr.addr(int(targets[edge])), label_propagation.PC_GATHER)
            builder.work(4)
            store_cursor.touch(vertex)

        self._advance_numerics()


class LoopBeliefPropagation(BeliefPropagationWorkload):
    def _run_iteration(self, iteration: int) -> None:
        builder = self.builder
        msg_curr = self.region(self._curr_name)
        msg_next = self.region(self._next_name)
        edges_cursor = LoopCursor(builder, self.region("edges"), bp.PC_EDGES)
        reverse_cursor = LoopCursor(builder, self.region("reverse"), bp.PC_REVERSE)
        store_cursor = LoopCursor(
            builder, msg_next, bp.PC_MSG_STORE, work_per_elem=3, is_store=True
        )
        for edge in range(self.graph.num_edges):
            edges_cursor.touch(edge)
            reverse_cursor.touch(edge)
            builder.work(3)
            builder.load(msg_curr.addr(int(self._reverse[edge])), bp.PC_GATHER)
            store_cursor.touch(edge)

        prior_cursor = LoopCursor(builder, self.region("prior"), bp.PC_BELIEF_LOAD)
        belief_cursor = LoopCursor(
            builder, self.region("belief"), bp.PC_BELIEF_STORE, work_per_elem=2,
            is_store=True,
        )
        for vertex in range(self.graph.num_vertices):
            prior_cursor.touch(vertex)
            belief_cursor.touch(vertex)

        self._advance_numerics()


#: Each block-emitting workload class and its per-element oracle.
ORACLES = {
    PageRankWorkload: LoopPageRank,
    _PartitionedPageRank: LoopPartitionedPageRank,
    HyperAnfWorkload: LoopHyperAnf,
    SpCGWorkload: LoopSpCG,
    SpMVWorkload: LoopSpMV,
    LabelPropagationWorkload: LoopLabelPropagation,
    BeliefPropagationWorkload: LoopBeliefPropagation,
}
