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

numpy and scipy each bundle an OpenBLAS with its own thread pool, and every
layer step hands work from one to the other, so on import this module pins
every loaded OpenBLAS to one thread (see ``_pin_openblas_threads``).
"""

from __future__ import annotations

import ctypes
import math
import os

import numpy as np
from scipy.linalg.lapack import dpotrf, dsyevr, dtrtrs

from .errors import NotConverged, NotPositiveDefinite

# Either variable, when set, is the user's thread count and is left in force.
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _openblas_libraries() -> list:
    """(file name, handle) of every OpenBLAS this process has mapped.

    Read from ``/proc/self/maps``, so empty on a platform without it.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return []
    libraries = []
    for path in paths:
        try:
            libraries.append((os.path.basename(path), ctypes.CDLL(path)))
        except OSError:  # not a loadable library, e.g. a deleted file
            continue
    return libraries


def _openblas_function(lib, stem: str, restype, argtypes: list):
    """OpenBLAS's ``openblas_<stem>`` under the prefix and suffix of its build.

    numpy's copy exports ``scipy_openblas_<stem>64_``, scipy's
    ``scipy_openblas_<stem>``, a system OpenBLAS ``openblas_<stem>``.
    None where the library exports none of these.
    """
    for prefix in ("", "scipy_"):
        for suffix in ("", "64_"):
            fn = getattr(lib, f"{prefix}openblas_{stem}{suffix}", None)
            if fn is not None:
                fn.restype, fn.argtypes = restype, argtypes
                return fn
    return None


def openblas_threads() -> list:
    """Each loaded OpenBLAS: its file name, build configuration and thread count."""
    found = []
    for name, lib in _openblas_libraries():
        threads = _openblas_function(lib, "get_num_threads", ctypes.c_int, [])
        config = _openblas_function(lib, "get_config", ctypes.c_char_p, [])
        if threads is not None:
            entry = {"library": name, "threads": threads()}
            if config is not None:
                entry["config"] = config().decode(errors="replace")
            found.append(entry)
    return found


def _pin_openblas_threads() -> None:
    """Set every loaded OpenBLAS to one thread, unless the user set a count.

    Two pools on the same cores spin against each other: on 2 cores, a
    10-point ``gc`` sweep at width 160 runs five times faster with one
    thread each than with two.  The count holds for the whole process,
    library callers included.  Does nothing off Linux or with a BLAS other
    than OpenBLAS.
    """
    if any(os.environ.get(var) for var in _THREAD_VARIABLES):
        return
    for _, lib in _openblas_libraries():
        set_threads = _openblas_function(lib, "set_num_threads", None, [ctypes.c_int])
        if set_threads is not None:
            set_threads(1)


_pin_openblas_threads()


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
