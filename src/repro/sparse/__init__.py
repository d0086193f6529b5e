"""Sparse-matrix substrate: CSR matrices, structure-class generators
standing in for the paper's SuiteSparse inputs, SpMV, and the conjugate
gradient solver used by the spCG workload."""

from repro.sparse.csr_matrix import CSRMatrix
from repro.sparse.generators import (
    banded_random,
    contact_map,
    kkt_system,
    stencil_3d,
)
from repro.sparse.cg import CGResult, conjugate_gradient
from repro.sparse import datasets

__all__ = [
    "CGResult",
    "CSRMatrix",
    "banded_random",
    "conjugate_gradient",
    "contact_map",
    "datasets",
    "kkt_system",
    "stencil_3d",
]
