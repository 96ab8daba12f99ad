"""Independent verification of computed bounds.

Two routes: (a) assemble the full block-tridiagonal feasibility matrix for
a multiplier sequence, scale it to a unit diagonal and check positive
semidefiniteness by shifted Cholesky, and (b) sample empirical Jacobian
spectral norms, which lower bound the true Lipschitz constant.  A correct
bound must sit between the empirical maximum and feasibility (the sandwich
property).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionCapExceeded, DimensionMismatch, ValidationFailed
from .linalg import shifted_cholesky_report
from .network import Network, jacobian_sigma

DEFAULT_DIM_CAP = 2000
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


@dataclass
class ValidationReport:
    bound: float
    empirical_lower: float
    samples: int
    margin: float
    lmi: LmiCertificate | None = None


def assemble_lipsdp(net: Network, ms) -> np.ndarray:
    """Block-tridiagonal feasibility matrix for a multiplier sequence.

    Diagonal blocks I(n0), 2*Lambda_1, ..., 2*Lambda_l, gamma*I; the
    sub/super-diagonals couple consecutive blocks through -Lambda_k W_k
    and -W_{l+1}.  Exactly symmetric by construction.
    """
    dims = net.dims
    l = net.depth
    if len(ms.lambdas) != l:
        raise DimensionMismatch(
            f"expected {l} multipliers, got {len(ms.lambdas)}"
        )
    lambdas = [np.asarray(lam, dtype=np.float64) for lam in ms.lambdas]
    for k, lam in enumerate(lambdas):
        if lam.shape != (dims[k + 1],):
            raise DimensionMismatch(f"multiplier {k + 1} has wrong dimension")
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


def verify_feasibility(
    net: Network, ms, dim_cap: int = DEFAULT_DIM_CAP
) -> LmiCertificate:
    """Shifted-Cholesky PSD verdict for the Jacobi-scaled feasibility matrix.

    The check factors D^-1/2 S D^-1/2 + shift*I with D = diag(S); entries
    with d_i <= 0 are left unscaled.  The congruence keeps PSD-ness and
    puts every block on a unit diagonal, so one fixed shift is equally
    small against gamma and against multipliers many orders of magnitude
    below it.  The shift absorbs the rounding of multiplier sequences that
    sit exactly on the PSD boundary, as the recursion's often do.
    """
    total = sum(net.dims)
    if total > dim_cap:
        raise DimensionCapExceeded(
            f"total dimension {total} exceeds cap {dim_cap}"
        )
    S = assemble_lipsdp(net, ms)
    d = np.diag(S)
    scale = 1.0 / np.sqrt(np.where(d > 0.0, d, 1.0))
    # in place: S is a fresh (sum n_k)^2 array, 32 MB at depth 30, width 64
    S *= scale[:, None]
    S *= scale[None, :]
    psd, min_pivot = shifted_cholesky_report(S, _FEASIBILITY_SHIFT)
    return LmiCertificate(
        dimension=total,
        shift_used=_FEASIBILITY_SHIFT,
        psd=psd,
        min_pivot_estimate=min_pivot,
    )


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
    report,
    n_samples: int = 200,
    seed: int = 0,
    radius: float = DEFAULT_RADIUS,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> ValidationReport:
    """Full independent check of a bound report.

    Fails hard (ValidationFailed) if the empirical lower bound exceeds the
    reported bound, if the reported bound is inconsistent with its gamma,
    or if the feasibility matrix is not PSD.  The feasibility check is
    skipped when the total dimension exceeds dim_cap; the empirical check
    always runs.
    """
    bound = float(report.bound)
    ms = report.multipliers
    if abs(bound * bound - ms.gamma) > _GAMMA_RTOL * (1.0 + abs(ms.gamma)):
        raise ValidationFailed(
            f"bound {bound} inconsistent with gamma {ms.gamma}"
        )
    lower = empirical_lower_bound(net, n_samples, radius=radius, seed=seed)
    margin = bound - lower
    lmi = None
    if sum(net.dims) <= dim_cap:
        lmi = verify_feasibility(net, ms, dim_cap=dim_cap)
        if not lmi.psd:
            raise ValidationFailed(
                f"feasibility matrix not PSD (min pivot estimate "
                f"{lmi.min_pivot_estimate:.3e})"
            )
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
