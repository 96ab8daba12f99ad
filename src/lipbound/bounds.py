"""Closed-form recursive Lipschitz upper bounds.

The engine initializes M_1 = I, and at each hidden layer forms the
propagated quadratic form G_k = W_k M_k^{-1} W_k^T (via the Cholesky
factor of M_k, never an explicit inverse), picks a positive diagonal
multiplier Lambda_k by one of several strategies, and advances
M_{k+1} = 2 Lambda_k - Lambda_k G_k Lambda_k.  The final bound is
sqrt(sigma_max(W_{l+1} M_{l+1}^{-1} W_{l+1}^T)).

The strategies are one family of closed-form LipSDP feasible points.
``STRATEGIES`` holds one record per method: its rule for Lambda_k, the
open interval its ``c`` must lie in, and its default sweep of (c, theta)
points.

- ``fast``   Lambda = I / sigma_max(G); takes no c and has no sweep
- ``sn``     Lambda = c I / sigma_max(G), c in (0, 2); fast is c = 1
- ``gc``     Gershgorin: Lambda_ii = c / row_abs_sum_i(G), c in (0, 2)
- ``gcs``    scaled Gershgorin with Q = diag(G) (zero entries replaced)
- ``shift``  Lambda_ii = 1 / (G_ii/2 + c * sigma_max(G/2 - diag(G)/2)), c > 1
- ``interp`` convex combination of the sn and gc choices in Lambda^{-1};
             its default sweep covers theta as well as c

``product``, the product of the layer spectral norms, runs no recursion.
``evaluate`` is the one entry point: it runs a method by name at a fixed
c or over a sweep, and ``best`` keeps the smallest bound of every method
that succeeds.

Every run is internally sequential (a data dependency chain), but distinct
configurations only read the shared immutable network and are safe to
execute concurrently.  Reductions are deterministic: the first of equal
bounds wins, in grid order within a sweep and in ``METHODS`` order across
methods.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import AllInfeasible, DefinitenessLost, NotPositiveDefinite
from .linalg import (
    cholesky,
    gamma_matrix,
    gram,
    pow2_scaled,
    row_abs_sums,
    scaled_row_sums,
    spectral_norm,
    spectral_upper_bound,
    top_eigenvalue,
)
from .network import Network


@dataclass(frozen=True)
class Strategy:
    """One method's multiplier rule, its valid c and its default sweep."""

    select: Callable  # (G, cfg) -> (Lambda as a 1-D array, per-layer stat)
    c_range: tuple | None  # open interval for c; None when the rule takes no c
    grid: tuple = ()  # default sweep as (c, theta) points; empty: no sweep


# The multiplier on a coordinate that G leaves at zero (a zero matrix for
# sn, a zero row for gc and gcs): any positive value is feasible there.
FALLBACK_MULTIPLIER = 1.0


def _sn(G, c):
    """Spectral-norm multiplier c / sigma_max(G) on every coordinate."""
    sigma = top_eigenvalue(G)
    n = G.shape[0]
    if sigma <= 0.0:
        return np.full(n, FALLBACK_MULTIPLIER), 0.0
    return np.full(n, c / sigma), sigma


def _row_sum_rule(sums, c):
    """c / row sum, with the fallback on zero rows."""
    lam = np.where(sums > 0.0, c / np.where(sums > 0.0, sums, 1.0),
                   FALLBACK_MULTIPLIER)
    return lam, float(sums.max())


def _gc(G, cfg):
    """Gershgorin multiplier c / row-abs-sum."""
    return _row_sum_rule(row_abs_sums(G), cfg.c)


def _gcs(G, cfg):
    """Diagonally scaled Gershgorin multiplier with Q = diag(G)."""
    diag = np.diag(G)
    # zero diagonal entries take a tiny positive stand-in
    eps = 1e-12 * (1.0 + float(diag.max(initial=0.0)))
    q = np.where(diag > 0.0, diag, eps)
    return _row_sum_rule(scaled_row_sums(G, q), cfg.c)


def _shift(G, cfg):
    """Shifted multiplier 1 / (G_ii/2 + c * sigma_max(G/2 - T)), T = diag(G)/2."""
    t = 0.5 * np.diag(G)
    R = 0.5 * G - np.diag(t)
    # R is symmetric but possibly indefinite: its spectral norm is the
    # larger magnitude of its extreme eigenvalues
    s = float(np.abs(np.linalg.eigvalsh(R)).max(initial=0.0))
    if s > 0.0:
        return 1.0 / (t + cfg.c * s), s
    # G diagonal: Lambda^{-1} = T alone would make M_{k+1} exactly singular,
    # so add a small eta to keep the key inequality strict
    eta = 1e-9 * (1.0 + float(t.max()))
    return 1.0 / (t + eta), 0.0


def _interp(G, cfg):
    """Interpolate Lambda^{-1} between the sn and gc choices (convex set)."""
    # endpoints returned verbatim: a double reciprocal is not bit-exact
    if cfg.theta == 1.0:
        return _sn(G, cfg.c)
    if cfg.theta == 0.0:
        return _gc(G, cfg)
    lam_sn, _ = _sn(G, cfg.c)
    lam_gc, _ = _gc(G, cfg)
    inv = cfg.theta / lam_sn + (1.0 - cfg.theta) / lam_gc
    return 1.0 / inv, float(inv.max())


# c interval edges are covered densely because reported winners sit both in
# the interior and near 2; 1.99 (not 2.0) keeps the key inequality strict.
_C_SWEEP = tuple((round(0.05 * i, 2), 0.5) for i in range(1, 40)) + ((1.99, 0.5),)

# After product, this order is the tie order of best.
STRATEGIES = {
    "fast": Strategy(lambda G, cfg: _sn(G, 1.0), None),
    "sn": Strategy(lambda G, cfg: _sn(G, cfg.c), (0.0, 2.0), _C_SWEEP),
    "gc": Strategy(_gc, (0.0, 2.0), _C_SWEEP),
    "gcs": Strategy(_gcs, (0.0, 2.0), _C_SWEEP),
    "shift": Strategy(
        _shift, (1.0, math.inf),
        tuple((c, 0.5) for c in (1.01, 1.1, 1.3, 1.5, 1.7, 2.0, 3.0, 5.0)),
    ),
    "interp": Strategy(  # theta-major, then c
        _interp, (0.0, 2.0),
        tuple((c, t) for t in (0.25, 0.5, 0.75) for c in (0.5, 1.0, 1.5, 1.9)),
    ),
}

METHODS = ("product",) + tuple(STRATEGIES)


@dataclass
class StrategyConfig:
    """Hyperparameters for a single recursion run."""

    method: str
    c: float = 1.0
    theta: float = 0.5
    certified: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        c_range = self.method != "product" and STRATEGIES[self.method].c_range
        if c_range and not c_range[0] < self.c < c_range[1]:
            raise ValueError(
                f"method {self.method!r} requires c in ({c_range[0]:g}, {c_range[1]:g})"
            )
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")


@dataclass
class MultiplierSequence:
    """Per-layer diagonal multipliers (as 1-D arrays) plus the scalar gamma."""

    lambdas: list
    gamma: float


@dataclass
class BoundReport:
    method: str
    config: StrategyConfig
    bound: float
    per_layer: list
    wall_time: float
    multipliers: MultiplierSequence
    sweep: dict | None = field(default=None)


def run_recursion(net: Network, cfg: StrategyConfig) -> BoundReport:
    """Run the layer recursion under the given strategy.

    Raises DefinitenessLost(layer) if M_{k+1} fails Cholesky, signalling
    that the multiplier choice violated strict feasibility numerically, or
    if an intermediate or the final gamma leaves the float range; sweeps
    treat that c as infeasible.
    """
    if cfg.method not in STRATEGIES:
        raise ValueError(f"method {cfg.method!r} has no per-layer multiplier")
    select = STRATEGIES[cfg.method].select
    t0 = time.perf_counter()
    l = net.depth
    n0 = net.dims[0]
    L = np.eye(n0)
    lambdas = []
    per_layer = []
    for k in range(l):
        # extreme c values can over/underflow on deep nets; treat any
        # non-finite intermediate as a lost-definiteness grid point
        with np.errstate(all="ignore"):
            G = gamma_matrix(net.weights[k], L)
            if not np.all(np.isfinite(G)):
                raise DefinitenessLost(k + 1)
            lam, stat = select(G, cfg)
            M = np.diag(2.0 * lam) - (lam[:, None] * G) * lam[None, :]
        M = 0.5 * (M + M.T)
        if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(M))):
            raise DefinitenessLost(k + 1)
        try:
            L = cholesky(M)
        except NotPositiveDefinite as exc:
            raise DefinitenessLost(k + 1) from exc
        lambdas.append(lam)
        per_layer.append(
            {
                "layer": k + 1,
                "stat": stat,
                "min_m_diag": float(np.min(np.diag(M))),
            }
        )
    with np.errstate(all="ignore"):
        G_out = gamma_matrix(net.weights[l], L)
        if not np.all(np.isfinite(G_out)):
            raise DefinitenessLost(l + 1)
        gamma = spectral_upper_bound(G_out) if cfg.certified else top_eigenvalue(G_out)
    # gamma can only be exactly zero when the output layer itself is zero;
    # otherwise it is an underflow artifact, not a valid bound
    if not math.isfinite(gamma) or (gamma == 0.0 and np.any(net.weights[l] != 0.0)):
        raise DefinitenessLost(l + 1)
    bound = math.sqrt(max(gamma, 0.0))
    return BoundReport(
        method=cfg.method,
        config=cfg,
        bound=bound,
        per_layer=per_layer,
        wall_time=time.perf_counter() - t0,
        multipliers=MultiplierSequence(lambdas, gamma),
    )


def product_bound(net: Network, certified: bool = False) -> BoundReport:
    """Product of per-layer spectral norms.

    The matching LipSDP feasible point is Lambda_k = I / prod_{m<=k}
    sigma_max(W_m)^2 with gamma the squared product, so product reports can
    be verified through the same feasibility machinery.  Raises
    DefinitenessLost(k) if a cumulative product, its multiplier or gamma is
    not finite, or is zero without an all-zero layer.
    """
    t0 = time.perf_counter()
    cfg = StrategyConfig("product", certified=certified)
    sigmas = []
    for W in net.weights:
        if certified:
            scaled, e = pow2_scaled(W)
            sigmas.append(math.ldexp(math.sqrt(spectral_upper_bound(gram(scaled))), e))
        else:
            sigmas.append(spectral_norm(W))
    bound = math.prod(sigmas)

    def check(k, *values):
        if not all(map(math.isfinite, values)) or (
                0.0 in values and 0.0 not in sigmas[:k]):
            raise DefinitenessLost(k)

    lambdas = []
    cum = 1.0
    for k in range(net.depth):
        cum *= sigmas[k] * sigmas[k]  # s ** 2 raises OverflowError
        # zero layers collapse the product; any positive diagonal works there
        lam = 1.0 / cum if cum > 0.0 else 1.0
        check(k + 1, cum, lam)
        lambdas.append(np.full(net.dims[k + 1], lam))
    gamma = bound * bound
    check(net.depth + 1, gamma)
    per_layer = [
        {"layer": k + 1, "stat": s, "min_m_diag": None}
        for k, s in enumerate(sigmas)
    ]
    return BoundReport(
        method="product",
        config=cfg,
        bound=bound,
        per_layer=per_layer,
        wall_time=time.perf_counter() - t0,
        multipliers=MultiplierSequence(lambdas, gamma),
    )


def evaluate(
    net: Network,
    method: str,
    c: float | None = None,
    grid=None,
    grids: dict | None = None,
    jobs: int = 1,
    theta: float = 0.5,
    certified: bool = False,
) -> BoundReport:
    """One bound by method name, as the CLI computes it.

    ``product`` is the product bound.  A method that takes no c runs once,
    as does any method given a fixed ``c``.  Otherwise the method sweeps
    ``grid``, a list of c values each run at ``theta``, or its default
    sweep of (c, theta) points from ``STRATEGIES``: the first of equal
    bounds wins, every point is recorded in the winning report's ``sweep``
    field (with ``theta`` when the default sweep varies it), and points
    that lose definiteness are skipped.  Raises AllInfeasible if every
    point fails.

    ``best`` evaluates every method in ``METHODS`` order and keeps the
    smallest bound, the first of equal bounds winning; a method that fails
    is left out.  ``grids`` may map a method to the c values that replace
    its default sweep there.
    """
    if method == "best":
        grids = grids or {}
        candidates = []
        for m in METHODS:
            try:
                candidates.append(evaluate(net, m, grid=grids.get(m), jobs=jobs,
                                           certified=certified))
            except (DefinitenessLost, AllInfeasible):
                pass
        if not candidates:
            raise AllInfeasible("every method failed")
        return min(candidates, key=lambda r: r.bound)
    if method == "product":
        return product_bound(net, certified=certified)
    if method not in STRATEGIES:
        raise ValueError(f"unknown method {method!r}")
    strategy = STRATEGIES[method]
    if strategy.c_range is None:
        return run_recursion(net, StrategyConfig(method, certified=certified))
    if c is not None:
        return run_recursion(
            net, StrategyConfig(method, c=c, theta=theta, certified=certified)
        )
    points = strategy.grid if grid is None else [(float(v), theta) for v in grid]
    configs = [
        StrategyConfig(method, c=v, theta=t, certified=certified)
        for v, t in points
    ]

    def one(cfg: StrategyConfig):
        try:
            return run_recursion(net, cfg)
        except DefinitenessLost as exc:
            return exc

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(one, configs))
    else:
        results = [one(cfg) for cfg in configs]

    with_theta = len({t for _, t in strategy.grid}) > 1
    trace, skipped = [], []
    for cfg, res in zip(configs, results):
        point = {"c": cfg.c, "theta": cfg.theta} if with_theta else {"c": cfg.c}
        lost = isinstance(res, DefinitenessLost)
        if lost:
            skipped.append([cfg.c, cfg.theta] if with_theta else cfg.c)
        trace.append({**point, "bound": None if lost else res.bound})
    feasible = [r for r in results if not isinstance(r, DefinitenessLost)]
    if not feasible:
        raise AllInfeasible(f"all {len(configs)} grid points infeasible for {method!r}")
    best = min(feasible, key=lambda r: r.bound)
    best.sweep = {"method": method, "points": trace, "skipped": skipped}
    return best


def report_to_dict(report: BoundReport) -> dict:
    cfg = report.config
    return {
        "method": report.method,
        "bound": report.bound,
        "gamma": report.multipliers.gamma,  # repeats multipliers.gamma
        "config": {
            "c": cfg.c,
            "theta": cfg.theta,
            "certified": cfg.certified,
        },
        "wall_time_s": report.wall_time,
        "per_layer": report.per_layer,
        "multipliers": {
            "lambdas": [lam.tolist() for lam in report.multipliers.lambdas],
            "gamma": report.multipliers.gamma,
        },
        "sweep": report.sweep,
    }
