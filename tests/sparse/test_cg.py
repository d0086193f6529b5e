"""Tests for the conjugate gradient solver."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sparse.cg import conjugate_gradient
from repro.sparse.csr_matrix import CSRMatrix
from repro.sparse.generators import stencil_3d


class TestConvergence:
    def test_identity_converges_immediately(self):
        matrix = CSRMatrix.from_dense(np.eye(8))
        b = np.arange(8, dtype=float)
        result = conjugate_gradient(matrix, b)
        assert result.converged
        assert result.iterations <= 1
        assert np.allclose(result.x, b)

    def test_stencil_solves(self):
        matrix = stencil_3d(5, 5, 5)
        rng = np.random.default_rng(1)
        b = rng.standard_normal(125)
        result = conjugate_gradient(matrix, b, tol=1e-10, max_iterations=500)
        assert result.converged
        assert np.allclose(matrix.spmv(result.x), b, atol=1e-6)

    def test_residuals_recorded_and_final_below_tol(self):
        matrix = stencil_3d(4, 4, 4)
        b = np.ones(64)
        result = conjugate_gradient(matrix, b, tol=1e-8)
        assert result.residuals[0] == pytest.approx(1.0)
        assert result.residuals[-1] <= 1e-8

    def test_max_iterations_respected(self):
        matrix = stencil_3d(6, 6, 6)
        b = np.ones(216)
        result = conjugate_gradient(matrix, b, tol=1e-300, max_iterations=3)
        assert not result.converged
        assert result.iterations == 3

    def test_non_spd_detected(self):
        matrix = CSRMatrix.from_dense(np.array([[1.0, 0.0], [0.0, -1.0]]))
        result = conjugate_gradient(matrix, np.array([0.0, 1.0]))
        assert not result.converged

    def test_dimension_checks(self):
        matrix = stencil_3d(2, 2, 2)
        with pytest.raises(ValueError):
            conjugate_gradient(matrix, np.ones(3))
        rect = CSRMatrix.from_coo((2, 3), np.array([0]), np.array([0]), np.array([1.0]))
        with pytest.raises(ValueError):
            conjugate_gradient(rect, np.ones(2))


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=20), st.integers(min_value=0, max_value=99))
    def test_solves_random_spd_systems(self, n, seed):
        rng = np.random.default_rng(seed)
        factor = rng.standard_normal((n, n))
        spd = factor @ factor.T + n * np.eye(n)
        matrix = CSRMatrix.from_dense(spd)
        b = rng.standard_normal(n)
        result = conjugate_gradient(matrix, b, tol=1e-10, max_iterations=10 * n)
        assert result.converged
        assert np.allclose(spd @ result.x, b, atol=1e-6)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=50))
    def test_residuals_reach_tolerance(self, seed):
        matrix = stencil_3d(4, 4, 4)
        rng = np.random.default_rng(seed)
        b = rng.standard_normal(64)
        result = conjugate_gradient(matrix, b, tol=1e-9, max_iterations=400)
        assert result.converged
        assert min(result.residuals) <= 1e-9
