"""Reference math for checking lipbound's outputs, built on numpy and scipy only.

Nothing here imports lipbound.  Every quantity is re-derived from its closed
form, with dense solves and symmetric eigen-solves standing in for the
program's triangular solves and power iteration:

- ``read_network``       the JSON and LNET file formats, parsed directly;
- ``product_bound``      product of layer spectral norms, by SVD;
- ``recursion_bound``    the fast/sn/gc/gcs/shift/interp layer recursions;
- ``empirical_lower``    max Jacobian spectral norm over sampled inputs;
- ``lipsdp_min_eig``     smallest eigenvalue of the Jacobi-scaled LipSDP matrix.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np
import scipy.linalg

ACTIVATIONS = ("relu", "tanh", "sigmoid")


class Infeasible(Exception):
    """A multiplier choice left M_{k+1} outside the positive-definite cone."""


def read_network(path) -> tuple[list, str]:
    """Weights W_1..W_{l+1} and the activation name of a JSON or LNET file."""
    data = Path(path).read_bytes()
    if data[:4] == b"LNET":
        _magic, _version, act, _bias, _pad, n = struct.unpack_from("<4sIBBHI", data)
        offset = 16
        shapes = [struct.unpack_from("<II", data, offset + 8 * i) for i in range(n)]
        offset += 8 * n
        weights = []
        for rows, cols in shapes:
            weights.append(
                np.frombuffer(data, "<f8", rows * cols, offset).reshape(rows, cols)
            )
            offset += 8 * rows * cols
        return weights, ACTIVATIONS[act]
    obj = json.loads(data)
    weights = [
        np.asarray(layer["weights"], dtype=np.float64).reshape(layer["rows"], layer["cols"])
        for layer in obj["layers"]
    ]
    return weights, obj.get("activation", "tanh")


def product_bound(weights) -> float:
    """Product of the layers' largest singular values."""
    return math.prod(float(scipy.linalg.svdvals(W)[0]) for W in weights)


def _sigma_max(G: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(G)[-1])


def _multiplier(G: np.ndarray, method: str, c: float, theta: float) -> np.ndarray:
    """Diagonal of Lambda_k for one layer, from the method's closed form."""
    n = G.shape[0]
    if method in ("fast", "sn"):
        sigma = _sigma_max(G)
        c = 1.0 if method == "fast" else c
        return np.full(n, c / sigma) if sigma > 0.0 else np.ones(n)
    if method == "gc":
        sums = np.abs(G).sum(axis=1)
        return np.where(sums > 0.0, c / np.where(sums > 0.0, sums, 1.0), 1.0)
    if method == "gcs":
        d = np.diag(G)
        q = np.where(d > 0.0, d, 1e-12 * (1.0 + max(float(d.max()), 0.0)))
        sums = (np.abs(G) @ q) / q
        return np.where(sums > 0.0, c / np.where(sums > 0.0, sums, 1.0), 1.0)
    if method == "shift":
        t = 0.5 * np.diag(G)
        s = float(np.max(np.abs(np.linalg.eigvalsh(0.5 * G - np.diag(t)))))
        if s > 0.0:
            return 1.0 / (t + c * s)
        return 1.0 / (t + 1e-9 * (1.0 + float(t.max())))
    if method == "interp":
        if theta in (0.0, 1.0):
            return _multiplier(G, "sn" if theta == 1.0 else "gc", c, theta)
        inv = theta / _multiplier(G, "sn", c, theta)
        inv = inv + (1.0 - theta) / _multiplier(G, "gc", c, theta)
        return 1.0 / inv
    raise ValueError(f"no recursion for method {method!r}")


def recursion_bound(weights, method: str, c: float = 1.0, theta: float = 0.5):
    """Bound and multipliers of the layer recursion under one strategy.

    M_1 = I; G_k = W_k M_k^{-1} W_k^T; M_{k+1} = 2 Lambda_k - Lambda_k G_k
    Lambda_k; gamma = lambda_max(W_{l+1} M_{l+1}^{-1} W_{l+1}^T).  Raises
    Infeasible when some M_{k+1} is not positive definite.
    """
    M = np.eye(weights[0].shape[1])
    lambdas = []
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for W in weights[:-1]:
            G = W @ np.linalg.solve(M, W.T)
            G = 0.5 * (G + G.T)
            lam = _multiplier(G, method, c, theta)
            M = np.diag(2.0 * lam) - lam[:, None] * G * lam[None, :]
            M = 0.5 * (M + M.T)
            if not np.all(np.isfinite(M)):
                raise Infeasible(f"non-finite M at layer {len(lambdas) + 1}")
            try:
                np.linalg.cholesky(M)
            except np.linalg.LinAlgError as exc:
                raise Infeasible(f"M not positive definite at layer {len(lambdas) + 1}") from exc
            lambdas.append(lam)
        W = weights[-1]
        G = W @ np.linalg.solve(M, W.T)
    gamma = _sigma_max(0.5 * (G + G.T))
    if not math.isfinite(gamma) or gamma <= 0.0:
        raise Infeasible("output form is not finite and positive")
    return math.sqrt(gamma), lambdas


def _activation_derivative(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return (z > 0.0).astype(np.float64)
    if name == "tanh":
        return 1.0 - np.tanh(z) ** 2
    s = 1.0 / (1.0 + np.exp(-z))
    return s * (1.0 - s)


def _activation(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "tanh":
        return np.tanh(z)
    return 1.0 / (1.0 + np.exp(-z))


def jacobian_norms(weights, activation: str, X: np.ndarray) -> np.ndarray:
    """Spectral norms of the network's Jacobian at each row of X (zero biases).

    J(x) = W_{l+1} D_l W_l ... D_1 W_1, with D_k the activation derivatives
    along the forward pass; all rows are carried through as one batch.
    """
    derivs = []
    H = X
    for W in weights[:-1]:
        Z = H @ W.T
        derivs.append(_activation_derivative(activation, Z))
        H = _activation(activation, Z)
    J = np.broadcast_to(weights[-1], (X.shape[0],) + weights[-1].shape)
    for W, D in zip(reversed(weights[:-1]), reversed(derivs)):
        J = (J * D[:, None, :]) @ W
    return np.linalg.norm(J, ord=2, axis=(1, 2))


def empirical_lower(weights, activation: str, samples: int, seed: int,
                    radius: float = 1.0) -> float:
    """Largest Jacobian norm over the origin and points drawn uniformly
    from the ball of the given radius; a lower bound on the Lipschitz
    constant."""
    n0 = weights[0].shape[1]
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((samples, n0))
    X *= (radius * rng.random(samples) ** (1.0 / n0) / np.linalg.norm(X, axis=1))[:, None]
    X = np.vstack([np.zeros((1, n0)), X])
    return float(jacobian_norms(weights, activation, X).max())


def lipsdp_matrix(weights, lambdas, gamma: float) -> np.ndarray:
    """The LipSDP feasibility matrix for multipliers Lambda_k and gamma.

    Over (dx, dv_1, ..., dv_l, u) it reads |dx|^2 + sum_k 2 dv_k' Lambda_k
    (dv_k - W_k dv_{k-1}) - 2 u' W_{l+1} dv_l + gamma |u|^2; it is PSD
    exactly when sqrt(gamma) is a certified Lipschitz bound for activations
    with slopes in [0, 1].
    """
    dims = [weights[0].shape[1]] + [W.shape[0] for W in weights]
    starts = np.concatenate(([0], np.cumsum(dims)))
    S = np.zeros((starts[-1], starts[-1]))
    diag = [np.ones(dims[0])] + [2.0 * np.asarray(lam) for lam in lambdas]
    diag.append(np.full(dims[-1], float(gamma)))
    S[np.diag_indices_from(S)] = np.concatenate(diag)
    couplings = [np.asarray(lam)[:, None] * W for lam, W in zip(lambdas, weights)]
    couplings.append(weights[-1])
    for k, C in enumerate(couplings):
        rows = slice(starts[k + 1], starts[k + 2])
        cols = slice(starts[k], starts[k + 1])
        S[rows, cols] = -C
        S[cols, rows] = -C.T
    return S


def lipsdp_min_eig(weights, lambdas, gamma: float) -> float:
    """Smallest eigenvalue of D^-1/2 S D^-1/2, with D the diagonal of the
    LipSDP matrix S.  The congruence keeps the sign of every eigenvalue
    but puts each block on the same scale, so a tolerance means the same
    thing at every depth."""
    S = lipsdp_matrix(weights, lambdas, gamma)
    d = 1.0 / np.sqrt(np.diag(S))
    S *= d[:, None]
    S *= d[None, :]
    return float(
        scipy.linalg.eigh(S, eigvals_only=True, subset_by_index=[0, 0])[0]
    )
