"""Unit and property tests for the dense linear-algebra kernels."""

import numpy as np
import pytest

from lipbound.errors import NotConverged, NotPositiveDefinite
from lipbound.linalg import (
    cholesky,
    gamma_matrix,
    gram,
    row_abs_sums,
    scaled_row_sums,
    spectral_norm,
    spectral_upper_bound,
    top_eigenvalue,
)


def random_spd(rng, n):
    A = rng.standard_normal((n, n))
    return A @ A.T + 0.1 * np.eye(n)


class TestCholesky:
    def test_identity(self):
        L = cholesky(np.eye(2))
        np.testing.assert_array_equal(L, np.eye(2))

    def test_diagonal_square_roots(self):
        L = cholesky(np.diag([4.0, 9.0]))
        np.testing.assert_array_equal(L, np.diag([2.0, 3.0]))

    def test_singular_boundary_case_rejected(self):
        # hand elimination: second pivot is 0.25 - 0.25 = 0
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.array([[1.0, -0.5], [-0.5, 0.25]]))

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_reconstruction_on_random_spd(self):
        rng = np.random.default_rng(42)
        for n in (1, 2, 3, 5, 8, 20, 50):
            S = random_spd(rng, n)
            L = cholesky(S)
            assert np.all(np.diag(L) > 0)
            assert np.all(np.triu(L, 1) == 0)
            err = np.max(np.abs(L @ L.T - S))
            assert err <= 1e-10 * (1.0 + np.max(np.abs(S)))


class TestGammaMatrix:
    def test_scalar(self):
        G = gamma_matrix(np.array([[2.0]]), np.eye(1))
        np.testing.assert_array_equal(G, [[4.0]])

    def test_scalar_inverse(self):
        G = gamma_matrix(np.eye(1), cholesky(np.array([[4.0]])))
        np.testing.assert_allclose(G, [[0.25]])

    def test_row_vector(self):
        G = gamma_matrix(np.array([[1.0, 1.0]]), np.eye(2))
        np.testing.assert_allclose(G, [[2.0]])

    def test_symmetric_and_psd_on_random_inputs(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m, n = rng.integers(1, 9, size=2)
            W = rng.standard_normal((m, n))
            L = cholesky(random_spd(rng, int(n)))
            G = gamma_matrix(W, L)
            # exact: gamma_matrix relies on the Gram product's symmetry
            np.testing.assert_array_equal(G, G.T)
            shift = 1e-12 * (1.0 + np.abs(G).max())
            cholesky(G + shift * np.eye(G.shape[0]))


class TestTopEigenvalue:
    def test_dominant_diagonal(self):
        assert top_eigenvalue(np.diag([3.0, 1.0])) == 3.0

    def test_two_by_two(self):
        # eigenvalues {1, 3} by characteristic polynomial
        assert abs(top_eigenvalue(np.array([[2.0, 1.0], [1.0, 2.0]])) - 3.0) <= 1e-14

    def test_zero_matrix(self):
        assert top_eigenvalue(np.zeros((3, 3))) == 0.0

    def test_start_vector_in_kernel(self):
        # all-ones is in the kernel; eigenvalues are {0, 2}
        sigma = top_eigenvalue(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert abs(sigma - 2.0) <= 1e-14

    def test_nan_entry_not_converged(self):
        with pytest.raises(NotConverged):
            top_eigenvalue(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    def test_far_outside_square_root_of_float_range(self):
        # squaring 1e160 overflows; LAPACK's internal scaling must not
        assert top_eigenvalue(np.diag([1e160, 1.0])) == 1e160

    def test_against_dense_eigensolver(self):
        rng = np.random.default_rng(3)
        for n in list(range(1, 7)) + [64]:
            for _ in range(10):
                A = rng.standard_normal((n, n))
                S = A @ A.T
                top = float(np.linalg.eigvalsh(S)[-1])
                assert abs(top_eigenvalue(S) - top) <= 1e-12 * max(top, 1.0)


class TestRowSums:
    def test_simple(self):
        np.testing.assert_array_equal(
            row_abs_sums(np.array([[2.0, 1.0], [1.0, 2.0]])), [3.0, 3.0]
        )

    def test_zero(self):
        np.testing.assert_array_equal(row_abs_sums(np.zeros((3, 3))), np.zeros(3))

    def test_absolute_values(self):
        np.testing.assert_array_equal(
            row_abs_sums(np.array([[1.0, -2.0], [3.0, 0.0]])), [3.0, 3.0]
        )

    def test_scaled_with_unit_scaling_matches(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(1, 8))
            G = rng.standard_normal((n, n))
            np.testing.assert_array_equal(
                scaled_row_sums(G, np.ones(n)), row_abs_sums(G)
            )

    def test_scaled_hand_case(self):
        G = np.array([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(scaled_row_sums(G, np.array([1.0, 2.0])), [4.0, 2.5])

    def test_scaled_diagonal_independent_of_q(self):
        G = np.diag([3.0, 5.0])
        for q in ([1.0, 1.0], [0.2, 7.0]):
            np.testing.assert_allclose(scaled_row_sums(G, np.array(q)), [3.0, 5.0])


class TestPsdCheck:
    def test_identity_no_shift(self):
        np.testing.assert_array_equal(cholesky(np.eye(3)), np.eye(3))

    def test_singular_psd_passes_small_shift(self):
        # det = 9 - 9 = 0: exactly singular PSD, factored once shifted
        S = np.array([[0.25, -3.0], [-3.0, 36.0]])
        L = cholesky(S + 1e-9 * np.eye(2))
        np.testing.assert_allclose(L @ L.T, S, atol=1e-8)

    def test_indefinite_fails(self):
        # eigenvalues {3, -1}
        S = np.array([[1.0, 2.0], [2.0, 1.0]])
        np.testing.assert_allclose(np.linalg.eigvalsh(S), [-1.0, 3.0])
        with pytest.raises(NotPositiveDefinite):
            cholesky(S + 1e-9 * np.eye(2))


class TestSpectralUpperBound:
    def test_tight_on_constant_row_sums(self):
        assert spectral_upper_bound(np.array([[2.0, 1.0], [1.0, 2.0]])) == 3.0

    def test_diagonal(self):
        assert spectral_upper_bound(np.diag([5.0, 1.0])) == 5.0

    def test_permutation(self):
        assert spectral_upper_bound(np.array([[0.0, 1.0], [1.0, 0.0]])) == 1.0

    def test_dominates_top_eigenvalue(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 10))
            G = random_spd(rng, n)
            sigma = top_eigenvalue(G)
            assert spectral_upper_bound(G) >= sigma * (1.0 - 1e-12)


class TestSpectralNorm:
    def test_gram_exactly_symmetric(self):
        # spectral_norm and the certified product bound rely on this
        rng = np.random.default_rng(13)
        for shape in ((3, 5), (5, 3), (1, 4), (7, 7), (40, 64), (64, 40)):
            G = gram(rng.standard_normal(shape))
            assert G.shape == (min(shape),) * 2
            np.testing.assert_array_equal(G, G.T)

    def test_rectangular(self):
        rng = np.random.default_rng(9)
        for shape in ((3, 5), (5, 3), (1, 4), (4, 4)):
            W = rng.standard_normal(shape)
            expect = float(np.linalg.svd(W, compute_uv=False)[0])
            assert abs(spectral_norm(W) - expect) <= 1e-8 * max(expect, 1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [2.0**600, 2.0**-600], ids=["2**600", "2**-600"])
    def test_exact_where_the_gram_product_leaves_float_range(self, scale):
        assert spectral_norm(scale * np.eye(3)) == scale
        assert spectral_norm(scale * np.ones((1, 4))) == 2.0 * scale
