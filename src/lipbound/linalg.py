"""Dense symmetric linear-algebra kernels.

Everything here operates on row-major float64 numpy arrays at desk scale;
there is no sparse path and no iterative solver: factorizations and
eigenvalues come straight from LAPACK.  All functions are pure, so values
are safe to share across threads.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrf, dsyevr

from .errors import (
    DimensionMismatch,
    NonPositiveScaling,
    NotConverged,
    NotPositiveDefinite,
)

# Relative symmetry tolerance for inputs declared symmetric.
SYMMETRY_RTOL = 1e-10


def _require_square(A: np.ndarray) -> None:
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {A.shape}")


def _require_symmetric(S: np.ndarray) -> None:
    if S.size == 0:
        return
    scale = float(np.max(np.abs(S)))
    if float(np.max(np.abs(S - S.T))) > SYMMETRY_RTOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")


def cholesky(S: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L with L @ L.T == S.

    Raises NotPositiveDefinite if any pivot is non-positive, which is how
    the recursion signals that a multiplier choice violated strict
    feasibility.
    """
    S = np.ascontiguousarray(S, dtype=np.float64)
    _require_square(S)
    _require_symmetric(S)
    if S.shape[0] == 0:
        return S.copy()
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

    Computed as X.T @ X with L @ X = W.T, so M is never inverted explicitly
    and the result is PSD by construction.  Symmetrized before returning
    because the row-sum and eigen-solve logic downstream assumes exact
    symmetry.
    """
    W = np.asarray(W, dtype=np.float64)
    L = np.asarray(L, dtype=np.float64)
    if W.ndim != 2 or L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise DimensionMismatch("W must be 2-D and L square")
    if W.shape[1] != L.shape[0]:
        raise DimensionMismatch(
            f"W has {W.shape[1]} columns but the factor has dimension {L.shape[0]}"
        )
    X = solve_triangular(L, W.T, lower=True)
    G = X.T @ X
    return 0.5 * (G + G.T)


def top_eigenvalue(S: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric matrix.

    One LAPACK ``dsyevr`` call that computes only the top eigenvalue and no
    eigenvectors.  LAPACK scales the matrix internally, so entries far
    outside the square root of the float range do not overflow.  Raises
    NotConverged if LAPACK reports failure (``info > 0``), which is also
    how a NaN entry surfaces.
    """
    S = np.asarray(S, dtype=np.float64)
    _require_square(S)
    _require_symmetric(S)
    n = S.shape[0]
    if n == 0:
        return 0.0
    w, _, _, _, info = dsyevr(S, compute_v=0, range="I", il=n, iu=n)
    if info > 0:
        raise NotConverged(f"dsyevr failed to converge (info={info})")
    if info < 0:  # pragma: no cover - LAPACK argument error
        raise ValueError(f"dsyevr: illegal argument {-info}")
    return float(w[0])


def spectral_norm(W: np.ndarray) -> float:
    """Largest singular value of a (possibly rectangular) matrix.

    Top eigenvalue of the smaller of the two Gram matrices.
    """
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2:
        raise DimensionMismatch("expected a 2-D matrix")
    G = W @ W.T if W.shape[0] <= W.shape[1] else W.T @ W
    sigma = top_eigenvalue(0.5 * (G + G.T))
    return math.sqrt(max(sigma, 0.0))


def row_abs_sums(G: np.ndarray) -> np.ndarray:
    """Per-row sums of absolute values (Gershgorin radii plus diagonal)."""
    G = np.asarray(G, dtype=np.float64)
    _require_square(G)
    return np.abs(G).sum(axis=1)


def scaled_row_sums(G: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row absolute sums of Q^{-1} |G| Q for a positive diagonal scaling q."""
    G = np.asarray(G, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    _require_square(G)
    if q.ndim != 1 or q.shape[0] != G.shape[0]:
        raise DimensionMismatch("scaling vector length must match the matrix")
    if np.any(q <= 0.0) or not np.all(np.isfinite(q)):
        raise NonPositiveScaling("scaling entries must be strictly positive")
    # summed with the same kernel as row_abs_sums so unit scaling matches
    # it bit-exactly
    return (np.abs(G) * q[None, :]).sum(axis=1) / q


def spectral_upper_bound(G: np.ndarray) -> float:
    """Rigorous upper bound on sigma_max of a symmetric matrix.

    Uses max row-absolute-sum, which dominates the spectral radius; this is
    the certified-mode replacement for the floating-point eigen-solve,
    whose rounding can land on either side of sigma_max.
    """
    G = np.asarray(G, dtype=np.float64)
    _require_square(G)
    _require_symmetric(G)
    if G.size == 0:
        return 0.0
    return float(np.max(row_abs_sums(G)))
