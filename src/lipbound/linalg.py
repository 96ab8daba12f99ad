"""Dense symmetric linear-algebra kernels.

Everything here operates on float64 numpy arrays at desk scale; there is no
sparse path and no iterative solver: factorizations and eigenvalues come
straight from LAPACK.

The kernels trust their callers and check nothing but LAPACK's own status.
Every matrix must be float64 and finite, square where the kernel takes a
square matrix, and exactly symmetric where its name or docstring says
symmetric: ``cholesky`` reads only the lower triangle, ``top_eigenvalue``
only the upper, and the row sums read both.  A triangular factor is read
from its lower triangle only.  Networks are checked once where they are
built (``Network``), and the recursion checks its own intermediates.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dpotrf, dsyevr, dtrtrs

from .errors import NotConverged, NotPositiveDefinite


def cholesky(S: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L with L @ L.T == S, for symmetric S.

    Raises NotPositiveDefinite if any pivot is non-positive, which is how
    the recursion signals that a multiplier choice violated strict
    feasibility.
    """
    c, info = dpotrf(S, lower=1, clean=1)
    if info > 0:
        raise NotPositiveDefinite(
            f"leading minor of order {info} is not positive definite"
        )
    if info < 0:  # pragma: no cover - LAPACK argument error
        raise ValueError(f"dpotrf: illegal argument {-info}")
    return c


def gamma_matrix(W: np.ndarray, L: np.ndarray) -> np.ndarray:
    """Propagated quadratic form W M^{-1} W.T given the Cholesky factor of M.

    Computed as X.T @ X with L @ X = W.T (one LAPACK ``dtrtrs`` call), so
    M is never inverted explicitly and the result is PSD by construction.
    numpy forms X.T @ X with one ``syrk`` call and mirrors its triangle, so
    the result is exactly symmetric, as the row sums and eigen-solves
    downstream require.
    """
    X, info = dtrtrs(L, W.T, lower=1)
    if info != 0:  # pragma: no cover - a Cholesky factor has no zero pivot
        raise ValueError(f"dtrtrs: info={info}")
    return X.T @ X


def top_eigenvalue(S: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric matrix.

    One LAPACK ``dsyevr`` call that computes only the top eigenvalue and no
    eigenvectors.  LAPACK scales the matrix internally, so entries far
    outside the square root of the float range do not overflow.  Raises
    NotConverged if LAPACK reports failure (``info > 0``).
    """
    n = S.shape[0]
    w, _, _, _, info = dsyevr(S, compute_v=0, range="I", il=n, iu=n)
    if info > 0:
        raise NotConverged(f"dsyevr failed to converge (info={info})")
    if info < 0:  # pragma: no cover - LAPACK argument error
        raise ValueError(f"dsyevr: illegal argument {-info}")
    return float(w[0])


def gram(W: np.ndarray) -> np.ndarray:
    """The smaller of the two Gram matrices W @ W.T and W.T @ W.

    Both come from one ``syrk`` call, so the result is exactly symmetric.
    """
    return W @ W.T if W.shape[0] <= W.shape[1] else W.T @ W


def pow2_scaled(W: np.ndarray) -> tuple:
    """(W / 2**e, e) with 2**e just above W's largest entry: exact, safe to square."""
    e = math.frexp(float(np.abs(W).max()))[1]
    return np.ldexp(W, -e), e


def spectral_norm(W: np.ndarray) -> float:
    """Largest singular value of a (possibly rectangular) matrix."""
    scaled, e = pow2_scaled(W)
    return math.ldexp(math.sqrt(max(top_eigenvalue(gram(scaled)), 0.0)), e)


def row_abs_sums(G: np.ndarray) -> np.ndarray:
    """Per-row sums of absolute values (Gershgorin radii plus diagonal)."""
    return np.abs(G).sum(axis=1)


def scaled_row_sums(G: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row absolute sums of Q^{-1} |G| Q for a positive diagonal scaling q."""
    # summed with the same kernel as row_abs_sums so unit scaling matches
    # it bit-exactly
    return (np.abs(G) * q[None, :]).sum(axis=1) / q


def spectral_upper_bound(G: np.ndarray) -> float:
    """Rigorous upper bound on sigma_max of a symmetric matrix.

    Uses max row-absolute-sum, which dominates the spectral radius; this is
    the certified-mode replacement for the floating-point eigen-solve,
    whose rounding can land on either side of sigma_max.
    """
    return float(np.max(row_abs_sums(G), initial=0.0))
