"""Tests for the spCG workload."""

import numpy as np
import pytest

from repro.sparse.cg import conjugate_gradient
from repro.sparse.generators import stencil_3d
from repro.trace.record import KIND_LOAD
from repro.workloads.spcg import PC_GATHER, SpCGWorkload


@pytest.fixture(scope="module")
def matrix():
    return stencil_3d(6, 6, 6)


class TestNumerics:
    def test_matches_reference_cg(self, matrix):
        workload = SpCGWorkload(matrix, iterations=5, rhs_seed=7)
        workload.build_trace(rnr=False)
        reference = conjugate_gradient(
            matrix, workload.rhs, tol=0.0, max_iterations=5
        )
        assert np.allclose(workload.solution, reference.x)
        assert np.allclose(workload.residual_history, reference.residuals[:6])

    def test_residual_decreases(self, matrix):
        workload = SpCGWorkload(matrix, iterations=6)
        workload.build_trace(rnr=False)
        assert workload.residual_history[-1] < workload.residual_history[0]

    def test_rejects_rectangular(self):
        from repro.sparse.csr_matrix import CSRMatrix

        rect = CSRMatrix.from_coo((2, 3), np.array([0]), np.array([0]), np.array([1.0]))
        with pytest.raises(ValueError):
            SpCGWorkload(rect)


class TestTraceShape:
    def test_one_gather_per_nonzero(self, matrix):
        workload = SpCGWorkload(matrix, iterations=2)
        trace = workload.build_trace(rnr=False)
        gathers = sum(
            1
            for r in trace.memory_references()
            if r.kind == KIND_LOAD and r.pc == PC_GATHER
        )
        assert gathers == 2 * matrix.nnz

    def test_gathers_hit_p_vector(self, matrix):
        workload = SpCGWorkload(matrix, iterations=2)
        trace = workload.build_trace(rnr=False)
        p = workload.region("p")
        for record in trace.memory_references():
            if record.pc == PC_GATHER:
                assert p.contains(record.addr)

    def test_no_base_swap_needed(self, matrix):
        """Unlike the graph workloads, p's base is stable: a single
        AddrBase.set and no mid-run enable/disable churn."""
        workload = SpCGWorkload(matrix, iterations=3)
        trace = workload.build_trace(rnr=True)
        ops = [d.op for d in trace.directives() if d.op.startswith("rnr.addr_base")]
        assert ops == ["rnr.addr_base.set", "rnr.addr_base.enable"]

    def test_identical_stream_with_and_without_rnr(self, matrix):
        workload = SpCGWorkload(matrix, iterations=2)
        without = [
            (r.kind, r.addr) for r in workload.build_trace(rnr=False).memory_references()
        ]
        with_rnr = [
            (r.kind, r.addr) for r in workload.build_trace(rnr=True).memory_references()
        ]
        assert without == with_rnr

    def test_gather_sequence_repeats_across_iterations(self, matrix):
        """The fixed sparsity makes the gather address sequence identical
        in every iteration — the property RnR exploits."""
        workload = SpCGWorkload(matrix, iterations=2)
        trace = workload.build_trace(rnr=False)
        per_iter = []
        current = None
        for entry in trace:
            if getattr(entry, "op", None) == "iter.begin":
                current = []
            elif getattr(entry, "op", None) == "iter.end":
                per_iter.append(current)
                current = None
            elif current is not None and entry.kind == KIND_LOAD and entry.pc == PC_GATHER:
                current.append(entry.addr)
        assert per_iter[0] == per_iter[1]
