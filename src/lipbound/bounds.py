"""Closed-form recursive Lipschitz upper bounds.

The engine initializes M_1 = I, and at each hidden layer forms the
propagated quadratic form G_k = W_k M_k^{-1} W_k^T (via the Cholesky
factor of M_k, never an explicit inverse), picks a positive diagonal
multiplier Lambda_k by one of several strategies, and advances
M_{k+1} = 2 Lambda_k - Lambda_k G_k Lambda_k.  The final bound is
sqrt(sigma_max(W_{l+1} M_{l+1}^{-1} W_{l+1}^T)).

Multiplier strategies:

- ``fast``   Lambda = I / sigma_max(G)
- ``sn``     Lambda = c I / sigma_max(G), c in (0, 2); fast is c = 1
- ``gc``     Gershgorin: Lambda_ii = c / row_abs_sum_i(G)
- ``gcs``    scaled Gershgorin with Q = diag(G) (zero entries replaced)
- ``shift``  Lambda_ii = 1 / (G_ii/2 + c * sigma_max(G/2 - diag(G)/2)), c > 1
- ``interp`` convex combination of the sn and gc choices in Lambda^{-1}

Every run is internally sequential (a data dependency chain), but distinct
(method, c) evaluations only read the shared immutable network and are safe
to execute concurrently; sweeps reduce with a fixed deterministic tie order.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import AllInfeasible, DefinitenessLost, NotPositiveDefinite
from .linalg import (
    cholesky,
    gamma_matrix,
    row_abs_sums,
    scaled_row_sums,
    spectral_norm,
    spectral_upper_bound,
    top_eigenvalue,
)
from .network import Network

METHODS = ("product", "fast", "sn", "gc", "gcs", "shift", "interp")

# Tie order when reducing candidate reports to a single best bound.
METHOD_ORDER = {m: i for i, m in enumerate(METHODS)}

# c interval edges are covered densely because reported winners sit both in
# the interior and near 2; 1.99 (not 2.0) keeps the key inequality strict.
DEFAULT_GRIDS = {
    "sn": [round(0.05 * i, 2) for i in range(1, 40)] + [1.99],
    "gc": [round(0.05 * i, 2) for i in range(1, 40)] + [1.99],
    "gcs": [round(0.05 * i, 2) for i in range(1, 40)] + [1.99],
    "shift": [1.01, 1.1, 1.3, 1.5, 1.7, 2.0, 3.0, 5.0],
}


@dataclass
class StrategyConfig:
    """Hyperparameters for a single recursion run."""

    method: str
    c: float = 1.0
    d_tilde: float = 1.0
    epsilon_q: float | None = None
    theta: float = 0.5
    certified: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.method in ("sn", "gc", "gcs", "interp") and not 0.0 < self.c < 2.0:
            raise ValueError(f"method {self.method!r} requires c in (0, 2)")
        if self.method == "shift" and self.c <= 1.0:
            raise ValueError("method 'shift' requires c > 1")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")
        if self.d_tilde <= 0.0:
            raise ValueError("d_tilde must be positive")
        if self.epsilon_q is not None and self.epsilon_q <= 0.0:
            raise ValueError("epsilon_q must be positive")


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


def strategy_sn(G: np.ndarray, c: float, d_tilde: float = 1.0) -> np.ndarray:
    """Spectral-norm multiplier c / sigma_max(G) on every coordinate."""
    lam, _ = _sn_with_stat(G, c, d_tilde)
    return lam


def _sn_with_stat(G, c, d_tilde):
    sigma = top_eigenvalue(G)
    n = G.shape[0]
    if sigma <= 0.0:
        return np.full(n, d_tilde), 0.0
    return np.full(n, c / sigma), sigma


def strategy_gc(G: np.ndarray, c: float, d_tilde: float = 1.0) -> np.ndarray:
    """Gershgorin multiplier c / row-abs-sum, with d_tilde on zero rows."""
    lam, _ = _gc_with_stat(G, c, d_tilde)
    return lam


def _gc_with_stat(G, c, d_tilde):
    sums = row_abs_sums(G)
    lam = np.where(sums > 0.0, c / np.where(sums > 0.0, sums, 1.0), d_tilde)
    return lam, float(sums.max()) if sums.size else 0.0


def strategy_gcs(
    G: np.ndarray,
    c: float,
    epsilon_q: float | None = None,
    d_tilde: float = 1.0,
) -> np.ndarray:
    """Diagonally scaled Gershgorin multiplier with Q = diag(G)."""
    lam, _ = _gcs_with_stat(G, c, epsilon_q, d_tilde)
    return lam


def _gcs_with_stat(G, c, epsilon_q, d_tilde):
    diag = np.diag(G).copy()
    if epsilon_q is None:
        top = float(diag.max()) if diag.size else 0.0
        epsilon_q = 1e-12 * (1.0 + max(top, 0.0))
    q = np.where(diag > 0.0, diag, epsilon_q)
    sums = scaled_row_sums(G, q)
    lam = np.where(sums > 0.0, c / np.where(sums > 0.0, sums, 1.0), d_tilde)
    return lam, float(sums.max()) if sums.size else 0.0


def strategy_shift(G: np.ndarray, c: float) -> np.ndarray:
    """Shifted multiplier 1 / (G_ii/2 + c * sigma_max(G/2 - T)), T = diag(G)/2."""
    lam, _ = _shift_with_stat(G, c)
    return lam


def _shift_with_stat(G, c):
    t = 0.5 * np.diag(G)
    R = 0.5 * G - np.diag(t)
    # R is symmetric but possibly indefinite: its spectral norm is the
    # larger magnitude of its extreme eigenvalues
    s = float(np.abs(np.linalg.eigvalsh(R)).max(initial=0.0))
    if s > 0.0:
        return 1.0 / (t + c * s), s
    # G diagonal: Lambda^{-1} = T alone would make M_{k+1} exactly singular,
    # so add a small eta to keep the key inequality strict
    eta = 1e-9 * (1.0 + (float(t.max()) if t.size else 0.0))
    return 1.0 / (t + eta), 0.0


def strategy_interp(G: np.ndarray, theta: float, cfg: StrategyConfig) -> np.ndarray:
    """Interpolate Lambda^{-1} between the sn and gc choices (convex set)."""
    lam, _ = _interp_with_stat(G, theta, cfg)
    return lam


def _interp_with_stat(G, theta, cfg):
    # endpoints returned verbatim: a double reciprocal is not bit-exact
    if theta == 1.0:
        return _sn_with_stat(G, cfg.c, cfg.d_tilde)
    if theta == 0.0:
        return _gc_with_stat(G, cfg.c, cfg.d_tilde)
    lam_sn, _ = _sn_with_stat(G, cfg.c, cfg.d_tilde)
    lam_gc, _ = _gc_with_stat(G, cfg.c, cfg.d_tilde)
    inv = theta / lam_sn + (1.0 - theta) / lam_gc
    return 1.0 / inv, float(inv.max()) if inv.size else 0.0


def _select_multiplier(G: np.ndarray, cfg: StrategyConfig):
    if cfg.method == "fast":
        return _sn_with_stat(G, 1.0, cfg.d_tilde)
    if cfg.method == "sn":
        return _sn_with_stat(G, cfg.c, cfg.d_tilde)
    if cfg.method == "gc":
        return _gc_with_stat(G, cfg.c, cfg.d_tilde)
    if cfg.method == "gcs":
        return _gcs_with_stat(G, cfg.c, cfg.epsilon_q, cfg.d_tilde)
    if cfg.method == "shift":
        return _shift_with_stat(G, cfg.c)
    if cfg.method == "interp":
        return _interp_with_stat(G, cfg.theta, cfg)
    raise ValueError(f"method {cfg.method!r} has no per-layer multiplier")


def run_recursion(net: Network, cfg: StrategyConfig) -> BoundReport:
    """Run the layer recursion under the given strategy.

    Raises DefinitenessLost(layer) if M_{k+1} fails Cholesky, signalling
    that the multiplier choice violated strict feasibility numerically;
    sweeps treat that c as infeasible.
    """
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
            lam, stat = _select_multiplier(G, cfg)
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
            G = W @ W.T if W.shape[0] <= W.shape[1] else W.T @ W
            sigmas.append(math.sqrt(spectral_upper_bound(0.5 * (G + G.T))))
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
    epsilon_q: float | None = None,
    theta: float = 0.5,
    certified: bool = False,
) -> BoundReport:
    """Evaluate a method over a grid of c values; return the best report.

    Infeasible grid points (DefinitenessLost) are skipped and recorded in
    the winning report's ``sweep`` field.  Raises AllInfeasible if every
    point fails.
    """
    if method not in ("sn", "gc", "gcs", "shift", "interp"):
        raise ValueError(f"method {method!r} takes no c sweep")
    cs = expand_grid(grid) if grid is not None else list(DEFAULT_GRIDS[method])

    def one(c: float):
        cfg = StrategyConfig(
            method,
            c=c,
            d_tilde=d_tilde,
            epsilon_q=epsilon_q,
            theta=theta,
            certified=certified,
        )
        try:
            return run_recursion(net, cfg)
        except DefinitenessLost as exc:
            return exc

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(one, cs))
    else:
        results = [one(c) for c in cs]

    best = None
    trace = []
    skipped = []
    for c, res in zip(cs, results):
        if isinstance(res, DefinitenessLost):
            skipped.append(c)
            trace.append({"c": c, "bound": None})
            continue
        trace.append({"c": c, "bound": res.bound})
        if best is None or res.bound < best.bound:
            best = res
    if best is None:
        raise AllInfeasible(f"all {len(cs)} grid points infeasible for {method!r}")
    best.sweep = {"method": method, "points": trace, "skipped": skipped}
    return best


def best_of(
    net: Network,
    grids: dict | None = None,
    include_interp: bool = True,
    theta_grid=(0.25, 0.5, 0.75),
    interp_c_grid=(0.5, 1.0, 1.5, 1.9),
    jobs: int = 1,
    d_tilde: float = 1.0,
    certified: bool = False,
) -> BoundReport:
    """Best bound over all methods; ties break by fixed method order."""
    grids = grids or {}
    candidates = [
        product_bound(net, certified=certified),
        run_recursion(net, StrategyConfig("fast", d_tilde=d_tilde, certified=certified)),
    ]
    for method in ("sn", "gc", "gcs", "shift"):
        try:
            candidates.append(
                sweep_c(
                    net,
                    method,
                    grid=grids.get(method),
                    jobs=jobs,
                    d_tilde=d_tilde,
                    certified=certified,
                )
            )
        except AllInfeasible:
            pass
    if include_interp:
        best_interp = None
        for theta in theta_grid:
            for c in grids.get("interp", interp_c_grid):
                cfg = StrategyConfig(
                    "interp", c=c, theta=theta, d_tilde=d_tilde, certified=certified
                )
                try:
                    rep = run_recursion(net, cfg)
                except DefinitenessLost:
                    continue
                if best_interp is None or rep.bound < best_interp.bound:
                    best_interp = rep
        if best_interp is not None:
            candidates.append(best_interp)
    candidates.sort(key=lambda r: METHOD_ORDER[r.method])
    best = candidates[0]
    for rep in candidates[1:]:
        if rep.bound < best.bound:
            best = rep
    return best


def report_to_dict(report: BoundReport) -> dict:
    cfg = report.config
    return {
        "method": report.method,
        "bound": report.bound,
        "gamma": report.gamma,
        "config": {
            "c": cfg.c,
            "d_tilde": cfg.d_tilde,
            "epsilon_q": cfg.epsilon_q,
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
        epsilon_q=cfg_d.get("epsilon_q"),
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
