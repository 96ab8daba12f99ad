"""Independent verification of computed bounds.

Two routes: (a) check that a multiplier sequence makes the block-tridiagonal
feasibility matrix positive semidefinite, by a shifted block Cholesky of its
unit-diagonal scaling, and (b) sample empirical Jacobian spectral norms,
which lower bound the true Lipschitz constant.  A correct bound must sit
between the empirical maximum and feasibility (the sandwich property).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite, ValidationFailed
from .linalg import cholesky, gamma_matrix
from .network import Network, jacobian_sigma

DEFAULT_RADIUS = 10.0

# Relative slack on the margin and the bound/gamma consistency check; the
# tight scalar case sits exactly on zero margin.
_MARGIN_RTOL = 1e-12
_GAMMA_RTOL = 1e-9

# Shift added to the unit-diagonal scaled feasibility matrix before Cholesky.
_FEASIBILITY_SHIFT = 1e-9


@dataclass
class LmiCertificate:
    dimension: int
    shift_used: float
    psd: bool
    min_pivot_estimate: float
    # block whose factorization failed: k for Lambda_k, depth + 1 for gamma
    failed_block: int | None = None


@dataclass
class ValidationReport:
    bound: float
    empirical_lower: float
    samples: int
    margin: float
    lmi: LmiCertificate


def _checked_lambdas(net: Network, ms) -> list:
    """The multipliers as float arrays, checked against the layer widths."""
    dims = net.dims
    if len(ms.lambdas) != net.depth:
        raise DimensionMismatch(
            f"expected {net.depth} multipliers, got {len(ms.lambdas)}"
        )
    lambdas = [np.asarray(lam, dtype=np.float64) for lam in ms.lambdas]
    for k, lam in enumerate(lambdas):
        if lam.shape != (dims[k + 1],):
            raise DimensionMismatch(
                f"multiplier {k + 1} has shape {lam.shape}, expected ({dims[k + 1]},)"
            )
    return lambdas


def assemble_lipsdp(net: Network, ms) -> np.ndarray:
    """Block-tridiagonal feasibility matrix for a multiplier sequence.

    Diagonal blocks I(n0), 2*Lambda_1, ..., 2*Lambda_l, gamma*I; the
    sub/super-diagonals couple consecutive blocks through -Lambda_k W_k
    and -W_{l+1}.  Exactly symmetric by construction.  Dense, so it serves
    as the small-case oracle; verify_feasibility never forms it.
    """
    dims = net.dims
    l = net.depth
    lambdas = _checked_lambdas(net, ms)
    total = sum(dims)
    S = np.zeros((total, total))
    offsets = np.concatenate(([0], np.cumsum(dims)))

    def block(i, j, B):
        S[offsets[i] : offsets[i] + dims[i], offsets[j] : offsets[j] + dims[j]] = B

    block(0, 0, np.eye(dims[0]))
    for k in range(l):
        lam = lambdas[k]
        block(k + 1, k + 1, np.diag(2.0 * lam))
        coupling = lam[:, None] * net.weights[k]  # Lambda_k W_k
        block(k + 1, k, -coupling)
        block(k, k + 1, -coupling.T)
    W_out = net.weights[l]
    block(l + 1, l + 1, float(ms.gamma) * np.eye(dims[l + 1]))
    block(l + 1, l, -W_out)
    block(l, l + 1, -W_out.T)
    return S


def verify_feasibility(net: Network, ms) -> LmiCertificate:
    """Shifted-Cholesky PSD verdict for the Jacobi-scaled feasibility matrix.

    The check factors D^-1/2 S D^-1/2 + shift*I with D = diag(S); entries
    with d_i <= 0 are left unscaled.  The congruence keeps PSD-ness and
    puts every block on a unit diagonal, so one fixed shift is equally
    small against gamma and against multipliers many orders of magnitude
    below it.  The shift absorbs the rounding of multiplier sequences that
    sit exactly on the PSD boundary, as the recursion's often do.

    S is block-tridiagonal, so its factor is block-bidiagonal and the
    factorization runs one block at a time, never forming S: with
    s_k = d_k^-1/2 and the coupling B_k = s_k (Lambda_k W_k) s_{k-1}
    (W_{l+1} for the output block), block k factors the Schur complement
    diag(d_k s_k^2) + shift*I - B_k (L_{k-1} L_{k-1}^T)^-1 B_k^T, the
    recursion's M_k in scaled form.  That costs O(sum n_k^3).  The first
    block that is not finite or fails to factor makes the verdict; the
    smallest eigenvalue of its unshifted Schur complement is then the
    estimate, so a report off by rounding reads near zero and one off by
    a relative delta in gamma reads about -delta.
    """
    lambdas = _checked_lambdas(net, ms)
    shift = _FEASIBILITY_SHIFT
    total = sum(net.dims)
    l = net.depth
    diags = [2.0 * lam for lam in lambdas]
    diags.append(np.full(net.dims[l + 1], float(ms.gamma)))
    s_prev = np.ones(net.dims[0])
    L = math.sqrt(1.0 + shift) * np.eye(net.dims[0])
    min_pivot = 1.0 + shift
    for k, d in enumerate(diags, start=1):
        s = 1.0 / np.sqrt(np.where(d > 0.0, d, 1.0))
        coupling = net.weights[k - 1]
        if k <= l:
            coupling = lambdas[k - 1][:, None] * coupling
        with np.errstate(over="ignore", invalid="ignore"):
            B = (s[:, None] * coupling) * s_prev[None, :]
            M = (np.diag(d * s * s + shift) - gamma_matrix(B, L)
                 if np.all(np.isfinite(B)) else None)
        if M is None or not np.all(np.isfinite(M)):
            return LmiCertificate(total, shift, False, math.nan, k)
        try:
            L = cholesky(M)
        except NotPositiveDefinite:
            lowest = float(np.linalg.eigvalsh(M)[0])
            return LmiCertificate(total, shift, False, lowest - shift, k)
        min_pivot = min(min_pivot, float(np.diag(L).min()) ** 2)
        s_prev = s
    return LmiCertificate(total, shift, True, min_pivot - shift)


def empirical_lower_bound(
    net: Network,
    n_samples: int,
    radius: float = DEFAULT_RADIUS,
    seed: int = 0,
) -> float:
    """Max Jacobian spectral norm over sampled inputs (plus the origin).

    Points are drawn uniformly from the origin-centered ball.  Each point
    derives its own generator from (seed, index), so sample sets are nested
    in n_samples and the result is monotone nondecreasing in it.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radius must be finite and positive, got {radius}")
    n0 = net.dims[0]
    best = jacobian_sigma(net, np.zeros(n0))
    for i in range(n_samples):
        rng = np.random.default_rng([seed, i])
        direction = rng.standard_normal(n0)
        norm = np.linalg.norm(direction)
        if norm == 0.0:  # pragma: no cover - measure zero
            continue
        r = radius * rng.random() ** (1.0 / n0)
        x = (r / norm) * direction
        best = max(best, jacobian_sigma(net, x))
    return best


def validate(
    net: Network,
    bound: float,
    ms,
    n_samples: int = 200,
    seed: int = 0,
    radius: float = DEFAULT_RADIUS,
) -> ValidationReport:
    """Full independent check of a bound and its certificate ``ms``.

    Reads nothing about how the run was configured.  Raises
    DimensionMismatch if the multipliers do not fit the network.  Fails hard
    (ValidationFailed) if the bound, gamma or a multiplier is not finite, if
    the bound is inconsistent with gamma, if the feasibility matrix is not
    PSD (gamma = 0 with a nonzero output layer never is), or if the
    empirical lower bound exceeds the bound.
    """
    bound = float(bound)
    lambdas = _checked_lambdas(net, ms)
    if not (math.isfinite(bound) and math.isfinite(ms.gamma)):
        raise ValidationFailed(f"non-finite bound {bound} or gamma {ms.gamma}")
    for k, lam in enumerate(lambdas, start=1):
        if not np.all(np.isfinite(lam)):
            raise ValidationFailed(f"non-finite multiplier in layer {k}")
    if abs(bound * bound - ms.gamma) > _GAMMA_RTOL * (1.0 + abs(ms.gamma)):
        raise ValidationFailed(
            f"bound {bound} inconsistent with gamma {ms.gamma}"
        )
    # a PSD matrix with a zero diagonal entry has a zero row
    if ms.gamma == 0.0 and np.any(net.weights[-1] != 0.0):
        raise ValidationFailed("gamma is 0 but the output layer is not zero")
    lmi = verify_feasibility(net, ms)
    if not lmi.psd:
        where = (
            "output" if lmi.failed_block > net.depth else f"layer {lmi.failed_block}"
        )
        raise ValidationFailed(
            f"feasibility matrix not PSD at {where} (min pivot estimate "
            f"{lmi.min_pivot_estimate:.3e})"
        )
    lower = empirical_lower_bound(net, n_samples, radius=radius, seed=seed)
    margin = bound - lower
    if margin < -_MARGIN_RTOL * (1.0 + abs(bound)):
        raise ValidationFailed(
            f"empirical lower bound {lower} exceeds reported bound {bound}"
        )
    return ValidationReport(
        bound=bound,
        empirical_lower=lower,
        samples=n_samples,
        margin=margin,
        lmi=lmi,
    )
