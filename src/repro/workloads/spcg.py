"""Sparse conjugate gradient with RnR annotations (spCG from Adept [23],
Fig 2 of the paper).

Each CG iteration runs one SpMV ``Ap = A @ p`` plus a handful of dense
vector operations.  With the matrix in CSR, the row pointers, column
indices, and values stream sequentially; the gather ``p[col[j]]`` is the
repeating irregular pattern (the sparsity structure is fixed across
iterations, so the gather sequence repeats exactly even though ``p``'s
*values* change — precisely the case RnR exploits).

Unlike the graph workloads, ``p`` keeps the same base address every
iteration, so no boundary-register swap is needed.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csr_matrix import CSRMatrix
from repro.workloads.base import (
    Gather,
    StreamCursor,
    Workload,
    emit_rows,
    emit_stream,
)

PC_INDPTR = 0x600
PC_INDICES = 0x604
PC_VALUES = 0x608
PC_GATHER = 0x60C
PC_AP_STORE = 0x610
PC_VEC = 0x614


class SpCGWorkload(Workload):
    name = "spcg"

    def __init__(
        self,
        matrix: CSRMatrix,
        iterations: int = 3,
        window_size: int = 16,
        rhs_seed: int = 7,
    ):
        if matrix.num_rows != matrix.num_cols:
            raise ValueError(f"spCG needs a square matrix, got {matrix.shape}")
        super().__init__(iterations, window_size)
        self.matrix = matrix
        self.rhs_seed = rhs_seed
        self.residual_history: list = []

    # ------------------------------------------------------------------
    def _allocate(self) -> None:
        n = self.matrix.num_rows
        nnz = max(1, self.matrix.nnz)
        self.space.alloc("indptr", n + 1, 8)
        self.space.alloc("indices", nnz, 4)
        self.space.alloc("values", nnz, 8)
        self.space.alloc("x", n, 8)
        self.space.alloc("r", n, 8)
        self.space.alloc("p", n, 8)
        self.space.alloc("ap", n, 8)
        # Numerical CG state (same recurrence as repro.sparse.cg).
        rng = np.random.default_rng(self.rhs_seed)
        self._b = rng.standard_normal(n)
        self._x = np.zeros(n)
        self._r = self._b.copy()
        self._p = self._r.copy()
        self._rs_old = float(self._r @ self._r)
        b_norm = float(np.linalg.norm(self._b)) or 1.0
        self._b_norm = b_norm
        self.residual_history = [float(np.sqrt(self._rs_old)) / b_norm]

    def _setup_rnr(self) -> None:
        self.rnr.addr_base.set(self.region("p"), self.matrix.num_rows)
        self.rnr.addr_base.enable(self.region("p"))

    # ------------------------------------------------------------------
    def _run_iteration(self, iteration: int) -> None:
        builder = self.builder
        matrix = self.matrix
        n = matrix.num_rows

        # SpMV: Ap = A @ p
        emit_rows(
            builder,
            np.arange(n),
            matrix.indptr,
            StreamCursor(self.region("indptr"), PC_INDPTR),
            [
                (StreamCursor(self.region("indices"), PC_INDICES), None),
                (StreamCursor(self.region("values"), PC_VALUES), None),
                (Gather(self.region("p"), PC_GATHER, work=2), matrix.indices),
            ],
            StreamCursor(self.region("ap"), PC_AP_STORE, work_per_elem=2, is_store=True),
        )

        # Vector phase: alpha = rs / (p . Ap); x += alpha p; r -= alpha Ap;
        # beta = rs' / rs; p = r + beta p.  Six dense streams over n.
        for name, is_store in (
            ("p", False),
            ("ap", False),
            ("x", True),
            ("r", True),
            ("r", False),
            ("p", True),
        ):
            emit_stream(builder, self.region(name), n, PC_VEC, 2, is_store)

        self._advance_numerics()

    def _advance_numerics(self) -> None:
        ap = self.matrix.spmv(self._p)
        denominator = float(self._p @ ap)
        if denominator <= 0.0:
            raise ArithmeticError("matrix is not SPD along the search direction")
        alpha = self._rs_old / denominator
        self._x = self._x + alpha * self._p
        self._r = self._r - alpha * ap
        rs_new = float(self._r @ self._r)
        self.residual_history.append(float(np.sqrt(rs_new)) / self._b_norm)
        self._p = self._r + (rs_new / self._rs_old) * self._p
        self._rs_old = rs_new

    # ------------------------------------------------------------------
    @property
    def input_bytes(self) -> int:
        """Footprint of the input data in bytes."""
        return self.matrix.input_bytes + self.matrix.num_rows * 8

    @property
    def solution(self) -> np.ndarray:
        """The current CG iterate x."""
        return self._x

    @property
    def rhs(self) -> np.ndarray:
        """The right-hand-side vector b."""
        return self._b
