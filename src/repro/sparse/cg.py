"""Conjugate gradient solver (the spCG algorithm of Adept [23] /
HPCG [20], Section II).

This is the *reference* numerical implementation used to validate the
traced workload in :mod:`repro.workloads.spcg`, which re-runs the same
recurrence while emitting the memory-access trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.sparse.csr_matrix import CSRMatrix


@dataclass
class CGResult:
    x: np.ndarray
    iterations: int
    converged: bool
    residuals: List[float]


def conjugate_gradient(
    matrix: CSRMatrix,
    b: np.ndarray,
    tol: float = 1e-8,
    max_iterations: int = 500,
) -> CGResult:
    """Solve A x = b for SPD A; returns the solution and residual history."""
    if matrix.num_rows != matrix.num_cols:
        raise ValueError(f"CG needs a square matrix, got {matrix.shape}")
    b = np.asarray(b, dtype=np.float64)
    if b.size != matrix.num_rows:
        raise ValueError(f"b has {b.size} entries, need {matrix.num_rows}")

    x = np.zeros_like(b)
    r = b - matrix.spmv(x)
    p = r.copy()
    rs_old = float(r @ r)
    b_norm = float(np.linalg.norm(b)) or 1.0
    residuals = [float(np.sqrt(rs_old)) / b_norm]

    for iteration in range(1, max_iterations + 1):
        ap = matrix.spmv(p)
        denominator = float(p @ ap)
        if denominator <= 0.0:
            # Matrix not SPD along p; bail out as non-converged.
            return CGResult(x, iteration - 1, False, residuals)
        alpha = rs_old / denominator
        x = x + alpha * p
        r = r - alpha * ap
        rs_new = float(r @ r)
        residuals.append(float(np.sqrt(rs_new)) / b_norm)
        if residuals[-1] <= tol:
            return CGResult(x, iteration, True, residuals)
        p = r + (rs_new / rs_old) * p
        rs_old = rs_new

    return CGResult(x, max_iterations, False, residuals)
