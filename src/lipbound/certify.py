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
from .network import Network, jacobian_norms

DEFAULT_RADIUS = 10.0

# Relative slack on the margin, on the bound against sqrt(gamma) and (in
# the CLI) on a report's two copies of gamma; the tight scalar case sits
# exactly on zero margin.
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


def certifies_nothing(gamma: float, net: Network) -> bool:
    """Whether gamma is not finite, or 0 under a nonzero output layer: no PSD
    feasibility matrix has that, since a zero diagonal entry means a zero row."""
    return not math.isfinite(gamma) or (gamma == 0.0 and bool(np.any(net.weights[-1])))


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


def _check_sampling(n_samples: int, radius: float, seed: int) -> None:
    """ValueError, naming the argument, for a sampling setting that cannot run."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radius must be finite and positive, got {radius}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


def empirical_lower_bound(
    net: Network,
    n_samples: int,
    radius: float = DEFAULT_RADIUS,
    seed: int = 0,
) -> float:
    """Max Jacobian spectral norm over sampled inputs (plus the origin).

    One generator, seeded with ``seed``, fills rows 1.. of an
    (n_samples + 1) x (n0 + 2) array with standard normals, in order; each
    row is scaled to length ``radius`` and cut to its first n0 coordinates,
    a point uniform in the ball.  Row 0 is the origin.  Row i never depends
    on how many rows follow it, in the draw or in ``jacobian_norms``, so
    sample sets are nested in n_samples and the result is monotone in it.
    """
    _check_sampling(n_samples, radius, seed)
    n0 = net.dims[0]
    # uniform on S^{n0+1} cut to n0 coordinates is uniform in B^{n0} (Barthe et al. 2005)
    Z = np.zeros((n_samples + 1, n0 + 2))
    np.random.default_rng(seed).standard_normal(out=Z[1:])
    Z[1:] *= (radius / np.sqrt(np.einsum("ij,ij->i", Z[1:], Z[1:])))[:, None]
    return float(jacobian_norms(net, Z[:, :n0]).max())


def validate(
    net: Network,
    bound: float,
    ms,
    n_samples: int = 200,
    seed: int = 0,
    radius: float = DEFAULT_RADIUS,
) -> ValidationReport:
    """Full independent check of a bound and its certificate ``ms``.

    Reads nothing about how the run was configured.  Raises ValueError
    first if n_samples, radius or seed cannot be sampled with, then
    DimensionMismatch if the multipliers do not fit the network.  Fails hard
    (ValidationFailed) if the bound is not finite, if gamma certifies
    nothing (``certifies_nothing``), if a multiplier is not finite, if the
    bound is inconsistent with gamma, if the feasibility matrix is not PSD,
    or if the empirical lower bound exceeds the bound.
    """
    _check_sampling(n_samples, radius, seed)
    bound = float(bound)
    lambdas = _checked_lambdas(net, ms)
    if not math.isfinite(bound) or certifies_nothing(ms.gamma, net):
        raise ValidationFailed(
            "gamma is 0 but the output layer is not zero"
            if ms.gamma == 0.0 and math.isfinite(bound)
            else f"non-finite bound {bound} or gamma {ms.gamma}"
        )
    for k, lam in enumerate(lambdas, start=1):
        if not np.all(np.isfinite(lam)):
            raise ValidationFailed(f"non-finite multiplier in layer {k}")
    # against sqrt(gamma), as the bound is computed, so the check is relative
    # at any scale, subnormal gammas among them; a negative gamma is left to
    # the feasibility check
    root = math.sqrt(max(ms.gamma, 0.0))
    if not abs(bound - root) <= _GAMMA_RTOL * root:
        raise ValidationFailed(
            f"bound {bound} inconsistent with gamma {ms.gamma}"
        )
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
