"""Standalone repeated SpMV (the paper's Fig 2 motivating example).

``y = A @ x`` repeated with the same matrix: the row pointer, column and
value arrays stream; the dense-vector gather ``x[col[j]]`` is the
irregular pattern.  Unlike spCG there are no vector-update phases — this
is the minimal kernel the paper opens with, useful for microbenchmarks
and for isolating the gather behaviour from CG's dense phases.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csr_matrix import CSRMatrix
from repro.workloads.base import Gather, StreamCursor, Workload, emit_rows

PC_INDPTR = 0x900
PC_INDICES = 0x904
PC_VALUES = 0x908
PC_GATHER = 0x90C
PC_Y_STORE = 0x910


class SpMVWorkload(Workload):
    """Repeated sparse matrix-vector multiplication."""

    name = "spmv"

    def __init__(
        self,
        matrix: CSRMatrix,
        iterations: int = 3,
        window_size: int = 16,
        x_seed: int = 11,
    ):
        super().__init__(iterations, window_size)
        self.matrix = matrix
        self.x_seed = x_seed
        self.y: np.ndarray = np.empty(0)

    # ------------------------------------------------------------------
    def _allocate(self) -> None:
        rows = self.matrix.num_rows
        cols = self.matrix.num_cols
        nnz = max(1, self.matrix.nnz)
        self.space.alloc("indptr", rows + 1, 8)
        self.space.alloc("indices", nnz, 4)
        self.space.alloc("values", nnz, 8)
        self.space.alloc("x", cols, 8)
        self.space.alloc("y", rows, 8)
        rng = np.random.default_rng(self.x_seed)
        self._x = rng.standard_normal(cols)
        self.y = np.zeros(rows)

    def _setup_rnr(self) -> None:
        self.rnr.addr_base.set(self.region("x"), self.matrix.num_cols)
        self.rnr.addr_base.enable(self.region("x"))

    # ------------------------------------------------------------------
    def _run_iteration(self, iteration: int) -> None:
        matrix = self.matrix
        emit_rows(
            self.builder,
            np.arange(matrix.num_rows),
            matrix.indptr,
            StreamCursor(self.region("indptr"), PC_INDPTR),
            [
                (StreamCursor(self.region("indices"), PC_INDICES), None),
                (StreamCursor(self.region("values"), PC_VALUES), None),
                (Gather(self.region("x"), PC_GATHER, work=2), matrix.indices),
            ],
            StreamCursor(self.region("y"), PC_Y_STORE, work_per_elem=2, is_store=True),
        )
        self.y = matrix.spmv(self._x)

    # ------------------------------------------------------------------
    @property
    def input_bytes(self) -> int:
        """Footprint of the input data in bytes."""
        return self.matrix.input_bytes + self.matrix.num_cols * 8

    @property
    def x(self) -> np.ndarray:
        """The dense input vector."""
        return self._x
