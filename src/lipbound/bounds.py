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
``sweep_c`` runs one method over a list of points, ``best_of`` keeps the
smallest bound of product, fast and every sweep, and ``evaluate`` picks
one of these by name, as the CLI does.

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


def _sn(G, c, d_tilde):
    """Spectral-norm multiplier c / sigma_max(G) on every coordinate."""
    sigma = top_eigenvalue(G)
    n = G.shape[0]
    if sigma <= 0.0:
        return np.full(n, d_tilde), 0.0
    return np.full(n, c / sigma), sigma


def _row_sum_rule(sums, c, d_tilde):
    """c / row sum, with d_tilde on zero rows."""
    lam = np.where(sums > 0.0, c / np.where(sums > 0.0, sums, 1.0), d_tilde)
    return lam, float(sums.max()) if sums.size else 0.0


def _gc(G, cfg):
    """Gershgorin multiplier c / row-abs-sum."""
    return _row_sum_rule(row_abs_sums(G), cfg.c, cfg.d_tilde)


def _gcs(G, cfg):
    """Diagonally scaled Gershgorin multiplier with Q = diag(G)."""
    diag = np.diag(G)
    # zero diagonal entries take a tiny positive stand-in
    eps = 1e-12 * (1.0 + float(diag.max(initial=0.0)))
    q = np.where(diag > 0.0, diag, eps)
    return _row_sum_rule(scaled_row_sums(G, q), cfg.c, cfg.d_tilde)


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
    eta = 1e-9 * (1.0 + (float(t.max()) if t.size else 0.0))
    return 1.0 / (t + eta), 0.0


def _interp(G, cfg):
    """Interpolate Lambda^{-1} between the sn and gc choices (convex set)."""
    # endpoints returned verbatim: a double reciprocal is not bit-exact
    if cfg.theta == 1.0:
        return _sn(G, cfg.c, cfg.d_tilde)
    if cfg.theta == 0.0:
        return _gc(G, cfg)
    lam_sn, _ = _sn(G, cfg.c, cfg.d_tilde)
    lam_gc, _ = _gc(G, cfg)
    inv = cfg.theta / lam_sn + (1.0 - cfg.theta) / lam_gc
    return 1.0 / inv, float(inv.max()) if inv.size else 0.0


# c interval edges are covered densely because reported winners sit both in
# the interior and near 2; 1.99 (not 2.0) keeps the key inequality strict.
_C_SWEEP = tuple((round(0.05 * i, 2), 0.5) for i in range(1, 40)) + ((1.99, 0.5),)

# After product, this order is the tie order of best_of.
STRATEGIES = {
    "fast": Strategy(lambda G, cfg: _sn(G, 1.0, cfg.d_tilde), None),
    "sn": Strategy(lambda G, cfg: _sn(G, cfg.c, cfg.d_tilde), (0.0, 2.0), _C_SWEEP),
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
    d_tilde: float = 1.0
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
        if self.d_tilde <= 0.0:
            raise ValueError("d_tilde must be positive")


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
    gamma: float
    per_layer: list
    wall_time: float
    multipliers: MultiplierSequence
    sweep: dict | None = field(default=None)


def run_recursion(net: Network, cfg: StrategyConfig) -> BoundReport:
    """Run the layer recursion under the given strategy.

    Raises DefinitenessLost(layer) if M_{k+1} fails Cholesky, signalling
    that the multiplier choice violated strict feasibility numerically;
    sweeps treat that c as infeasible.
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
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
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
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        G_out = gamma_matrix(net.weights[l], L)
    if not np.all(np.isfinite(G_out)):
        raise DefinitenessLost(l + 1)
    if cfg.certified:
        gamma = spectral_upper_bound(G_out)
    else:
        gamma = top_eigenvalue(G_out)
    # gamma can only be exactly zero when the output layer itself is zero;
    # otherwise it is an underflow artifact, not a valid bound
    if gamma == 0.0 and np.any(net.weights[l] != 0.0):
        raise DefinitenessLost(l + 1)
    bound = math.sqrt(max(gamma, 0.0))
    return BoundReport(
        method=cfg.method,
        config=cfg,
        bound=bound,
        gamma=gamma,
        per_layer=per_layer,
        wall_time=time.perf_counter() - t0,
        multipliers=MultiplierSequence(lambdas, gamma),
    )


def product_bound(net: Network, certified: bool = False) -> BoundReport:
    """Product of per-layer spectral norms.

    The matching LipSDP feasible point is Lambda_k = I / prod_{m<=k}
    sigma_max(W_m)^2 with gamma the squared product, so product reports can
    be verified through the same feasibility machinery.
    """
    t0 = time.perf_counter()
    cfg = StrategyConfig("product", certified=certified)
    sigmas = []
    for W in net.weights:
        if certified:
            sigmas.append(math.sqrt(spectral_upper_bound(gram(W))))
        else:
            sigmas.append(spectral_norm(W))
    bound = 1.0
    for s in sigmas:
        bound *= s
    lambdas = []
    cum = 1.0
    for k in range(net.depth):
        cum *= sigmas[k] ** 2
        # zero layers collapse the product; any positive diagonal works there
        lambdas.append(np.full(net.dims[k + 1], 1.0 / cum if cum > 0.0 else 1.0))
    gamma = bound * bound
    per_layer = [
        {"layer": k + 1, "stat": s, "min_m_diag": float("nan")}
        for k, s in enumerate(sigmas)
    ]
    return BoundReport(
        method="product",
        config=cfg,
        bound=bound,
        gamma=gamma,
        per_layer=per_layer,
        wall_time=time.perf_counter() - t0,
        multipliers=MultiplierSequence(lambdas, gamma),
    )


def expand_grid(grid) -> list:
    """Accept an explicit sequence or a {'lo','hi','step'} mapping."""
    if isinstance(grid, dict):
        lo, hi, step = float(grid["lo"]), float(grid["hi"]), float(grid["step"])
        if step <= 0 or hi < lo:
            raise ValueError("grid requires step > 0 and hi >= lo")
        n = int(math.floor((hi - lo) / step + 1e-12)) + 1
        return [lo + i * step for i in range(n)]
    return [float(c) for c in grid]


def sweep_c(
    net: Network,
    method: str,
    grid=None,
    jobs: int = 1,
    d_tilde: float = 1.0,
    theta: float = 0.5,
    certified: bool = False,
) -> BoundReport:
    """Evaluate a method over a sweep; return the best report.

    ``grid`` lists c values (a sequence or a {'lo','hi','step'} mapping),
    each run at ``theta``; without it the method's default sweep of (c,
    theta) points from ``STRATEGIES`` runs.  The first of equal bounds
    wins.  Every point is recorded in the winning report's ``sweep`` field,
    with ``theta`` when the method's default sweep varies it; infeasible
    points (DefinitenessLost) are skipped.  Raises AllInfeasible if every
    point fails.
    """
    strategy = STRATEGIES.get(method)
    if strategy is None or not strategy.grid:
        raise ValueError(f"method {method!r} takes no c sweep")
    points = strategy.grid if grid is None else [(c, theta) for c in expand_grid(grid)]
    configs = [
        StrategyConfig(method, c=c, d_tilde=d_tilde, theta=t, certified=certified)
        for c, t in points
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


def best_of(
    net: Network,
    grids: dict | None = None,
    jobs: int = 1,
    d_tilde: float = 1.0,
    certified: bool = False,
) -> BoundReport:
    """Best bound of product and every strategy, swept where it has a grid.

    ``grids`` may map a method to the c values that replace its default
    sweep.  Ties go to the first method in ``METHODS`` order.
    """
    grids = grids or {}
    candidates = [product_bound(net, certified=certified)]
    for method, strategy in STRATEGIES.items():
        if not strategy.grid:
            cfg = StrategyConfig(method, d_tilde=d_tilde, certified=certified)
            candidates.append(run_recursion(net, cfg))
            continue
        try:
            candidates.append(sweep_c(net, method, grids.get(method), jobs=jobs,
                                      d_tilde=d_tilde, certified=certified))
        except AllInfeasible:
            pass
    return min(candidates, key=lambda r: r.bound)


def evaluate(
    net: Network,
    method: str,
    c: float | None = None,
    grid=None,
    jobs: int = 1,
    theta: float = 0.5,
    d_tilde: float = 1.0,
    certified: bool = False,
) -> BoundReport:
    """One bound by method name, as the CLI computes it.

    ``best`` runs ``best_of`` and ``product`` the product bound.  A method
    that takes no c runs once, as does any method given a fixed ``c``;
    otherwise the method sweeps ``grid``, or its default sweep.
    """
    if method == "best":
        return best_of(net, jobs=jobs, d_tilde=d_tilde, certified=certified)
    if method == "product":
        return product_bound(net, certified=certified)
    if method not in STRATEGIES:
        raise ValueError(f"unknown method {method!r}")
    if STRATEGIES[method].c_range is None:
        cfg = StrategyConfig(method, d_tilde=d_tilde, certified=certified)
    elif c is None:
        return sweep_c(net, method, grid, jobs=jobs, d_tilde=d_tilde,
                       theta=theta, certified=certified)
    else:
        cfg = StrategyConfig(method, c=c, theta=theta, d_tilde=d_tilde,
                             certified=certified)
    return run_recursion(net, cfg)


def report_to_dict(report: BoundReport) -> dict:
    cfg = report.config
    return {
        "method": report.method,
        "bound": report.bound,
        "gamma": report.gamma,
        "config": {
            "c": cfg.c,
            "d_tilde": cfg.d_tilde,
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


def report_from_dict(d: dict) -> BoundReport:
    cfg_d = d.get("config", {})
    cfg = StrategyConfig(
        method=d["method"],
        c=cfg_d.get("c", 1.0),
        d_tilde=cfg_d.get("d_tilde", 1.0),
        theta=cfg_d.get("theta", 0.5),
        certified=cfg_d.get("certified", False),
    )
    ms = d.get("multipliers", {})
    multipliers = MultiplierSequence(
        lambdas=[np.asarray(lam, dtype=np.float64) for lam in ms.get("lambdas", [])],
        gamma=float(ms.get("gamma", d["bound"] ** 2)),
    )
    return BoundReport(
        method=d["method"],
        config=cfg,
        bound=float(d["bound"]),
        gamma=float(d.get("gamma", d["bound"] ** 2)),
        per_layer=d.get("per_layer", []),
        wall_time=float(d.get("wall_time_s", 0.0)),
        multipliers=multipliers,
        sweep=d.get("sweep"),
    )
