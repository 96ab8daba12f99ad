"""Closed-form recursive Lipschitz upper bounds.

The engine initializes M_1 = I, and at each hidden layer forms the
propagated quadratic form G_k = W_k M_k^{-1} W_k^T (via the Cholesky
factor of M_k, never an explicit inverse), picks a positive diagonal
multiplier Lambda_k by one of several strategies, and advances
M_{k+1} = 2 Lambda_k - Lambda_k G_k Lambda_k.  The final bound is
sqrt(sigma_max(W_{l+1} M_{l+1}^{-1} W_{l+1}^T)).

The strategies are one family of closed-form LipSDP feasible points.
``STRATEGIES`` holds one record per method: its rule for Lambda_k, the
open interval its ``c`` must lie in, its default sweep of (c, theta)
points, and whether the rule reads theta (``reads``).

- ``fast``   Lambda = I / sigma_max(G); takes no c and has no sweep
- ``sn``     Lambda = c I / sigma_max(G), c in (0, 2); fast is c = 1
- ``gc``     Gershgorin: Lambda_ii = c / row_abs_sum_i(G), c in (0, 2)
- ``gcs``    scaled Gershgorin with Q = diag(G) (zero entries replaced)
- ``shift``  Lambda_ii = 1 / (G_ii/2 + c * sigma_max(G/2 - diag(G)/2)), c > 1
- ``interp`` convex combination of the sn and gc choices in Lambda^{-1};
             the one rule that reads theta, which its default sweep covers

``product``, the product of the layer spectral norms, runs no recursion.
``evaluate`` is the one entry point: it runs a method by name at a fixed
c or over a sweep, and ``best`` is one sweep over the points of the
methods in ``BEST``: every method but ``sn`` and ``gcs``.

Reductions are deterministic: the first of equal bounds wins, in grid
order within a method and in ``BEST`` order across methods.  A sweep
stops a point at layer k once T_k = lambda_max(P_k M_k^{-1} P_k^T), with
P_k = W_{l+1} ... W_k, exceeds the smallest gamma so far: T_k never
decreases along the recursion and ends at the point's gamma, so such a
point cannot win, and the winner is the same as without the stop.
``run_recursion`` raises ``Pruned(k)`` there, as it raises
``DefinitenessLost(k)`` where definiteness is lost.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .certify import MultiplierSequence, certifies_nothing
from .errors import AllInfeasible, DefinitenessLost, LipboundError, NotPositiveDefinite
from .linalg import (
    cholesky,
    gamma_matrix,
    row_abs_sums,
    scaled_row_sums,
    spectral_norms,
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
    reads_theta: bool = False  # whether the rule reads theta as well as c


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
        tuple((c, t) for t in (0.25, 0.5, 0.75) for c in (0.5, 1.0, 1.5, 1.9, 1.95, 1.99)),
        reads_theta=True,
    ),
}

METHODS = ("product",) + tuple(STRATEGIES)

# The methods best sweeps, in its tie order.  sn and gcs are left out: sn
# never won on the nets searched and gcs only on a few shallow ones, by
# under 5%, while their 80 points took most of best's layer steps.
BEST = ("product", "fast", "gc", "shift", "interp")


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
class BoundReport:
    method: str
    config: StrategyConfig
    bound: float
    per_layer: list
    wall_time: float
    multipliers: MultiplierSequence
    sweep: dict | None = None


# A sweep stops a point at layer k once its tail bound T_k exceeds the
# incumbent gamma by this relative margin, which covers the rounding
# between T_k and the gamma the point would end at.
PRUNE_MARGIN = 1e-9

# The kernel for a top eigenvalue, by ``certified``: LAPACK's eigen-solve,
# or the rigorous row-sum bound, which no rounding can put below it.
_TOP = {False: top_eigenvalue, True: spectral_upper_bound}


class Pruned(LipboundError):
    """A sweep point stopped at ``layer``: its bound could not beat the incumbent."""

    def __init__(self, layer: int):
        self.layer = layer
        super().__init__(f"sweep point stopped at layer {layer}")


def _tails(net: Network) -> list:
    """P_{k+1}^T = (W_{l+1} ... W_{k+1})^T at index k for 2 <= k <= l.

    None where P_{k+1} left the float range (and at k < 2): pruning is only
    a saving, so a tail that overflowed never stops a point.
    """
    tails = [None] * (net.depth + 1)
    for k in range(net.depth, 1, -1):
        P = net.weights[k] if k == net.depth else P @ net.weights[k]
        if np.all(np.isfinite(P)):
            tails[k] = P.T
    return tails


class _Workspace:
    """What ``run_recursion`` reuses from layer to layer, and a sweep from point to point.

    Each layer shape has its arrays, allocated once: X for ``gamma_matrix``,
    G, and M, which ``cholesky`` turns into L in place.  One M per order
    serves as both L_k and M_{k+1}, since L_k is dead once G_k is formed.
    It also holds the incumbent gamma, which a sweep lowers as it goes, and
    the tails P_{k+1}, built the first time the incumbent is finite;
    together they stop a point that cannot win.  A single run's incumbent
    stays inf, so it never builds the tails and never stops.
    """

    def __init__(self, net: Network):
        self.net = net
        self.incumbent = math.inf
        self._arrays = {}

    @cached_property
    def tails(self) -> list:
        """``_tails`` of this net, built on first use."""
        return _tails(self.net)

    def array(self, name: str, rows: int, cols: int) -> np.ndarray:
        """The one ``rows`` x ``cols`` array of this name (X and M Fortran-ordered)."""
        key = (name, rows, cols)
        if key not in self._arrays:
            self._arrays[key] = np.empty((rows, cols), order="C" if name == "G" else "F")
        return self._arrays[key]

    def gamma(self, k: int, L) -> tuple:
        """(G_{k+1}, X_{k+1}) in this workspace's arrays, X_{k+1} = L^{-1} W_{k+1}^T.

        G_1 = W_1 W_1^T, since M_1 = I: there is no L, and X is None.
        """
        W = self.net.weights[k]
        m, n = W.shape
        G = self.array("G", m, m)
        if k == 0:
            return np.matmul(W, W.T, out=G), None
        X = self.array("X", n, m)
        return gamma_matrix(W, L, X, G), X

    def tail_gram(self, k: int, X):
        """H = P_k M_k^{-1} P_k^T from X = X_k, None where it leaves the float range.

        P_k = P_{k+1} W_k, so H = Y^T Y with Y = X_k P_{k+1}^T: one product
        with the layer's own X, and one ``syrk``, so H is exactly symmetric.
        Its top eigenvalue T_k is the LipSDP bound with every activation
        slope set to 1 on the layers from k on: it never decreases along
        the recursion, and it ends at the point's own gamma.
        """
        if self.tails[k] is None:
            return None
        Y = X @ self.tails[k]
        H = Y.T @ Y
        return H if np.all(np.isfinite(H)) else None

    def beaten(self, k: int, X) -> bool:
        """Whether this sweep's point cannot beat the incumbent, from X = X_k.

        H is PSD, so max diag(H) <= T_k <= trace(H): the eigen-solve runs
        only where the threshold lies between these two.  A tail outside
        the float range stops nothing: pruning only saves time.
        """
        if not self.incumbent < math.inf:
            return False
        H = self.tail_gram(k, X)
        if H is None:
            return False
        threshold = self.incumbent * (1.0 + PRUNE_MARGIN)
        d = np.diagonal(H)
        if d.max() > threshold:
            return True
        return d.sum() > threshold and top_eigenvalue(H) > threshold


def run_recursion(net: Network, cfg: StrategyConfig, *, _work: _Workspace | None = None):
    """Run the layer recursion under the given strategy; its BoundReport.

    Returns a report or raises, one of two ways.  DefinitenessLost(layer)
    if M_{k+1} fails Cholesky, signalling that the multiplier choice
    violated strict feasibility numerically, or if an intermediate or the
    final gamma leaves the float range; sweeps treat that c as infeasible.
    Pruned(layer) only inside a sweep: ``evaluate``'s sweeps pass their
    shared workspace, and there a point that cannot beat the sweep's
    incumbent stops.
    """
    if cfg.method not in STRATEGIES:
        raise ValueError(f"method {cfg.method!r} has no per-layer multiplier")
    select = STRATEGIES[cfg.method].select
    t0 = time.perf_counter()
    work = _Workspace(net) if _work is None else _work
    l = net.depth
    L = None  # L_1 = I is never formed: G_1 = W_1 W_1^T
    lambdas = []
    per_layer = []
    # extreme c values can over/underflow on deep nets; any non-finite
    # intermediate is a lost-definiteness point, so no warning is wanted
    with np.errstate(all="ignore"):
        for k in range(l):
            n = net.weights[k].shape[0]
            M = work.array("M", n, n)
            G, X = work.gamma(k, L)
            if k and work.beaten(k + 1, X):
                raise Pruned(k + 1)
            if not np.all(np.isfinite(G)):
                raise DefinitenessLost(k + 1)
            lam, stat = select(G, cfg)
            # M_{k+1} = diag(2 lam) - (lam G) lam, then 0.5 (M + M^T), the
            # same operations as on fresh arrays; G's array is free by then
            np.multiply(lam[:, None], G, out=M)
            np.multiply(M, lam[None, :], out=M)
            diag = 2.0 * lam - np.diagonal(M)
            np.subtract(0.0, M, out=M)
            np.fill_diagonal(M, diag)
            S = np.add(M, M.T, out=work.array("G", n, n))
            np.multiply(0.5, S, out=M)
            if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(M))):
                raise DefinitenessLost(k + 1)
            min_m_diag = float(np.min(np.diagonal(M)))
            try:
                L = cholesky(M, overwrite=True)
            except NotPositiveDefinite as exc:
                raise DefinitenessLost(k + 1) from exc
            lambdas.append(lam)
            per_layer.append({"layer": k + 1, "stat": stat, "min_m_diag": min_m_diag})
        G_out, _ = work.gamma(l, L)
        if not np.all(np.isfinite(G_out)):
            raise DefinitenessLost(l + 1)
        gamma = _TOP[cfg.certified](G_out)
    if certifies_nothing(gamma, net):
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
    not finite (gamma is, where a layer norm is beyond the float range), if
    a cumulative product is zero without an all-zero layer, or, as in
    ``run_recursion``, if gamma is zero under a nonzero output layer, where
    no feasible point has a zero gamma.
    """
    t0 = time.perf_counter()
    sigmas = [float(spectral_norms(W, _TOP[certified])) for W in net.weights]
    bound = math.prod(sigmas)
    gamma = bound * bound
    if certifies_nothing(gamma, net):
        raise DefinitenessLost(net.depth + 1)
    lambdas = []
    cum = 1.0
    for k in range(net.depth):
        cum *= sigmas[k] * sigmas[k]  # s ** 2 raises OverflowError
        # zero layers collapse the product; any positive diagonal works there
        lam = 1.0 / cum if cum > 0.0 else 1.0
        if not (math.isfinite(cum) and math.isfinite(lam)) or (
                cum == 0.0 and 0.0 not in sigmas[:k + 1]):
            raise DefinitenessLost(k + 1)
        lambdas.append(np.full(net.dims[k + 1], lam))
    return BoundReport(
        method="product",
        config=StrategyConfig("product", certified=certified),
        bound=bound,
        per_layer=[{"layer": k + 1, "stat": s, "min_m_diag": None}
                   for k, s in enumerate(sigmas)],
        wall_time=time.perf_counter() - t0,
        multipliers=MultiplierSequence(lambdas, gamma),
    )


def reads(method: str) -> tuple:
    """The parameters a method's rule reads: (), ("c",) or ("c", "theta")."""
    s = STRATEGIES.get(method)
    return () if s is None or s.c_range is None else ("c", "theta")[:1 + s.reads_theta]


def evaluate(
    net: Network,
    method: str,
    c: float | None = None,
    grid=None,
    theta: float | None = None,
    certified: bool = False,
) -> BoundReport:
    """One bound by method name, as the CLI computes it.

    The run's plan, every point it will take, is built and checked before
    the first point runs.  It comes from one source: a fixed ``c``, or
    ``grid``, a list of c values each run at ``theta``, or else the
    default sweep of (c, theta) points from ``STRATEGIES``, with one point
    for a method that takes no c.  ``best`` takes the default sweeps of
    the methods of ``BEST`` in order: ``product``, ``fast``, ``gc``,
    ``shift`` and ``interp``.  ``product`` is the product bound.  A method
    that takes no c runs once, as does any method given a fixed ``c``; a
    failure there propagates.  A sweep runs one point after another, and
    the first strictly smaller bound wins.  A point stops at the first
    layer k >= 2 where its tail bound T_k shows that it cannot beat the
    smallest bound so far; single runs never stop.  The winning report's
    ``sweep`` field records every point in order: its method, the
    parameters that method reads (``reads``) and its bound.  A point
    without a bound has ``bound`` None and says why: ``lost_at`` k where
    it lost definiteness at layer k, or ``pruned_at`` k where it stopped
    there.  ``wall_time`` covers the whole evaluation.

    Raises AllInfeasible if every point fails.  Raises ValueError, before
    any point runs, for a c outside the method's range and for input that
    would go unread: ``c`` or ``grid`` given to a method that takes no c,
    or both at once; ``theta`` to any but a method that reads it, at a
    fixed ``c`` or over a ``grid``.
    """
    t0 = time.perf_counter()
    if method != "best" and method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    fixed = c is not None or grid is not None
    if fixed and not reads(method):
        raise ValueError(f"method {method!r} takes no c and no sweep")
    if c is not None and grid is not None:
        raise ValueError("a fixed c and a c grid exclude each other")
    if theta is not None and not (fixed and "theta" in reads(method)):
        raise ValueError(f"method {method!r} takes no theta here: only a method "
                         "that reads it does, at a fixed c or over a c grid")
    if fixed:
        t = 0.5 if theta is None else theta
        plan = [StrategyConfig(method, c=float(v), theta=t, certified=certified)
                for v in (grid if c is None else [c])]
    else:
        plan = [StrategyConfig(m, c=v, theta=t, certified=certified)
                for m in (BEST if method == "best" else (method,))
                for v, t in (STRATEGIES[m].grid if reads(m) else [(1.0, 0.5)])]
    single = method != "best" and (c is not None or not reads(method))

    work = _Workspace(net)
    best, points = None, []
    for cfg in plan:
        why = {}
        try:
            report = (product_bound(net, certified) if cfg.method == "product"
                      else run_recursion(net, cfg, _work=work))
        except (DefinitenessLost, Pruned) as exc:
            if single:
                raise
            key = "pruned_at" if isinstance(exc, Pruned) else "lost_at"
            report, why = None, {key: exc.layer}
        points.append({"method": cfg.method, **{p: getattr(cfg, p) for p in reads(cfg.method)},
                       "bound": None if report is None else report.bound, **why})
        if report is not None and (best is None or report.bound < best.bound):
            best = report
            work.incumbent = best.multipliers.gamma
    if best is None:
        raise AllInfeasible("every method failed" if method == "best" else
                            f"all {len(plan)} grid points infeasible for {method!r}")
    best.sweep = None if single else {"method": method, "points": points}
    best.wall_time = time.perf_counter() - t0
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
