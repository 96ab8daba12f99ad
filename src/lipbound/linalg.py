"""Dense symmetric linear-algebra kernels.

Everything here operates on float64 numpy arrays at desk scale; there is no
sparse path and no iterative solver: factorizations and eigenvalues come
straight from LAPACK.

The kernels trust their callers and check nothing but LAPACK's own status
and the shapes they hand to it.  Every matrix must be float64 and finite,
square where the kernel takes a square matrix, and exactly symmetric where
its name or docstring says symmetric: ``cholesky`` reads only the lower
triangle, ``top_eigenvalue`` only the upper, and the row sums read both.  A
triangular factor is read from its lower triangle only.  Networks are
checked once where they are built (``Network``), and the recursion checks
its own intermediates.

LAPACK is numpy's own: numpy 2 wheels bundle an ILP64 OpenBLAS whose
symbols carry a ``scipy_`` prefix and a ``64_`` suffix, and the LAPACKE
routines below are bound from it through ctypes, column-major with 64-bit
integers, so LAPACKE hands each call straight to LAPACK.  The library is
reached through numpy's extension module, whose symbol lookup searches the
libraries it links.  Import fails, naming the symbol, where numpy's BLAS
lacks one of them (an MKL or Accelerate build of numpy, say).

That OpenBLAS runs on one thread unless the user set a count, in
``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` (an empty value sets none).
This module is the one that knows about numpy's OpenBLAS, and the package
imports it first.  Where numpy is not imported yet, numpy is imported here
with ``OPENBLAS_NUM_THREADS=1`` for the moment of its import, so its
OpenBLAS loads with one thread and starts no worker; the environment is
then put back as it was.  Where numpy was imported before, the count is set
to one on import (``_pin_openblas_threads``).
"""

from __future__ import annotations

import os
import sys

# Either variable, when set, is the user's thread count and is left in force.
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _user_sets_threads() -> bool:
    """Whether the user set an OpenBLAS thread count (an empty value sets none)."""
    return any(os.environ.get(var) for var in _THREAD_VARIABLES)


if "numpy" not in sys.modules and not _user_sets_threads():
    # OpenBLAS reads the variable once, when it loads; an idle worker
    # spins for about 0.13 s of CPU in every process
    _saved = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        if _saved is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = _saved

import ctypes  # noqa: E402

import numpy as np  # noqa: E402
from numpy._core import _multiarray_umath  # noqa: E402

from .errors import NotConverged, NotPositiveDefinite  # noqa: E402

_NUMPY_BLAS = ctypes.CDLL(_multiarray_umath.__file__)
_COL_MAJOR = 102
_INT, _DOUBLE, _PTR, _CHAR = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p, ctypes.c_char


def _bind(symbol: str, restype, argtypes: list):
    """``symbol`` from numpy's BLAS; ImportError naming it if missing."""
    try:
        fn = getattr(_NUMPY_BLAS, symbol)
    except AttributeError:
        raise ImportError(
            f"numpy's BLAS exports no {symbol}: lipbound needs the OpenBLAS "
            "bundled with numpy>=2.0"
        ) from None
    fn.restype, fn.argtypes = restype, argtypes
    return fn


def _lapacke(routine: str, argtypes: list):
    """LAPACKE's ``<routine>_work``: no NaN scan, no workspace allocation."""
    return _bind(f"scipy_LAPACKE_{routine}_work64_", _INT, [ctypes.c_int, *argtypes])


_dpotrf = _lapacke("dpotrf", [_CHAR, _INT, _PTR, _INT])
_dlaset = _lapacke("dlaset", [_CHAR, _INT, _INT, _DOUBLE, _DOUBLE, _PTR, _INT])
_dtrtrs = _lapacke("dtrtrs", [_CHAR, _CHAR, _CHAR, _INT, _INT, _PTR, _INT, _PTR, _INT])
_dsyevr = _lapacke("dsyevr", [
    _CHAR, _CHAR, _CHAR, _INT, _PTR, _INT, _DOUBLE, _DOUBLE, _INT, _INT, _DOUBLE,
    _PTR, _PTR, _PTR, _INT, _PTR, _PTR, _INT, _PTR, _INT,
])
_set_num_threads = _bind("scipy_openblas_set_num_threads64_", None, [ctypes.c_int])
_get_num_threads = _bind("scipy_openblas_get_num_threads64_", ctypes.c_int, [])
_get_config = _bind("scipy_openblas_get_config64_", ctypes.c_char_p, [])


def openblas_threads() -> dict:
    """numpy's OpenBLAS: its thread count and build configuration."""
    return {"threads": _get_num_threads(),
            "config": _get_config().decode(errors="replace")}


def _pin_openblas_threads() -> None:
    """Set numpy's OpenBLAS to one thread, unless the user set a count.

    The recursion's calls are small and come one after another, so a
    second thread mostly spins: on 2 cores, ``compute --method best`` on a
    depth-10 width-64 net takes 1.6 s of CPU time at two threads against
    1.05 s at one, in the same wall time.  The count holds for the whole
    process, library callers included.  Where this module loaded numpy at
    one thread this changes nothing; where numpy came first, its pool's
    workers were started at load and stay, but are no longer handed work.
    """
    if not _user_sets_threads():
        _set_num_threads(1)


_pin_openblas_threads()


def _order(S: np.ndarray) -> int:
    """n of a non-empty n x n matrix; ValueError for any other shape."""
    if S.ndim != 2 or S.shape[0] != S.shape[1] or S.shape[0] == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {S.shape}")
    return S.shape[0]


def cholesky(S: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """Lower Cholesky factor L with L @ L.T == S, for symmetric S.

    L is Fortran-ordered with its strict upper triangle exactly 0.  With
    ``overwrite``, S itself, which must then be a Fortran-ordered float64
    array, is factored in place and returned.  Raises NotPositiveDefinite
    if any pivot is non-positive, which is how the recursion signals that
    a multiplier choice violated strict feasibility.
    """
    n = _order(S)
    if not overwrite:
        S = np.array(S, dtype=np.float64, order="F")
    elif S.dtype != np.float64 or not S.flags.f_contiguous:
        raise ValueError("cholesky overwrites only a Fortran-ordered float64 array")
    address = S.ctypes.data
    info = _dpotrf(_COL_MAJOR, b"L", n, address, n)
    if info > 0:
        raise NotPositiveDefinite(
            f"leading minor of order {info} is not positive definite"
        )
    if info < 0:  # pragma: no cover - LAPACK argument error
        raise ValueError(f"dpotrf: illegal argument {-info}")
    if n > 1:
        # L's strict upper triangle is the upper triangle of L[:-1, 1:]
        _dlaset(_COL_MAJOR, b"U", n - 1, n - 1, 0.0, 0.0, address + 8 * n, n)
    return S


def gamma_matrix(W: np.ndarray, L: np.ndarray, work: np.ndarray | None = None,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Propagated quadratic form W M^{-1} W.T given the Cholesky factor of M.

    Computed as X.T @ X with L @ X = W.T (one LAPACK ``dtrtrs`` call), so
    M is never inverted explicitly and the result is PSD by construction.
    numpy forms X.T @ X with one ``syrk`` call and mirrors its triangle, so
    the result is exactly symmetric, as the row sums and eigen-solves
    downstream require.  A caller stepping many layers may hand in the
    arrays to write: ``work``, a Fortran-ordered float64 array of W.T's
    shape, which holds X afterwards, and ``out``, square of W's row count,
    for the result.
    """
    m, n = W.shape
    if L.shape != (n, n):
        raise ValueError(f"factor of shape {L.shape} does not fit W of shape {W.shape}")
    if work is None:
        work = np.array(W.T, dtype=np.float64, order="F")
    elif work.shape != (n, m) or work.dtype != np.float64 or not work.flags.f_contiguous:
        raise ValueError(f"work must be a Fortran-ordered float64 array of shape {(n, m)}")
    else:
        np.copyto(work, W.T)
    L = np.asfortranarray(L, dtype=np.float64)
    info = _dtrtrs(_COL_MAJOR, b"L", b"N", b"N", n, m, L.ctypes.data, n, work.ctypes.data, n)
    if info != 0:  # pragma: no cover - a Cholesky factor has no zero pivot
        raise ValueError(f"dtrtrs: info={info}")
    return np.matmul(work.T, work, out=out)


def top_eigenvalue(S: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric matrix.

    One LAPACK ``dsyevr`` call that computes only the top eigenvalue and no
    eigenvectors.  LAPACK scales the matrix internally, so entries far
    outside the square root of the float range do not overflow.  Raises
    NotConverged if LAPACK reports failure (``info > 0``).
    """
    n = _order(S)
    a = np.array(S, dtype=np.float64, order="F")
    # one buffer of each type: the eigenvalues w (n), the unused vectors
    # z (1) and the workspace (26n); the count found (1), the unused
    # support isuppz (2) and the integer workspace (10n)
    w, ints = np.empty(27 * n + 1), np.empty(10 * n + 3, dtype=np.int64)
    pw, pi = w.ctypes.data, ints.ctypes.data
    info = _dsyevr(
        _COL_MAJOR, b"N", b"I", b"U", n, a.ctypes.data, n, 0.0, 0.0, n, n, 0.0,
        pi, pw, pw + 8 * n, 1, pi + 8, pw + 8 * (n + 1), 26 * n, pi + 24, 10 * n,
    )
    if info > 0:
        raise NotConverged(f"dsyevr failed to converge (info={info})")
    if info < 0:  # pragma: no cover - LAPACK argument error
        raise ValueError(f"dsyevr: illegal argument {-info}")
    return float(w[0])


def gram(W: np.ndarray) -> np.ndarray:
    """The smaller of the two Gram matrices W @ W.T and W.T @ W, of each matrix.

    W is one matrix or a stack of them.  Each Gram matrix comes from one
    ``syrk`` call, so the result is exactly symmetric.
    """
    WT = W.swapaxes(-1, -2)
    return W @ WT if W.shape[-2] <= W.shape[-1] else WT @ W


def spectral_norms(A: np.ndarray, top=None) -> np.ndarray:
    """Largest singular value of a matrix, or of each matrix of a stack.

    Each matrix is divided by the power of two just above its largest
    entry, which is exact, so its Gram matrix can neither overflow nor
    underflow.  ``top`` takes the largest eigenvalue of the Gram matrix
    (or matrices) that it is handed; by default one batched ``eigvalsh``.
    A norm beyond the float range comes back as ``inf``, without a warning.
    """
    with np.errstate(over="ignore"):
        e = np.frexp(np.abs(A).max(axis=(-2, -1)))[1]
        G = gram(np.ldexp(A, -e[..., None, None]))
        t = np.linalg.eigvalsh(G)[..., -1] if top is None else top(G)
        return np.ldexp(np.sqrt(np.maximum(t, 0.0)), e)


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
