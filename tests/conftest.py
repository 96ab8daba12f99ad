"""Fixtures shared by the test modules."""

import math

import numpy as np
import pytest

from lipbound.network import Network, generate_random


@pytest.fixture
def float_range_nets():
    """Networks whose product bound leaves the float range or is a bare 0.

    P80's product and gamma overflow, TINY's underflow (its true constant is
    about 1e-400), HUGE's first Gram product overflows, and MIXED's
    cumulative product underflows although a recursion still finds a bound.
    ZERO's zero first layer makes the product 0 under a nonzero output
    layer, and ZERO_HUGE adds a middle layer whose square overflows.  MAX's
    first layer norm, about 2e308, is itself beyond the float range.
    """
    eye = np.eye(2)
    p80 = generate_random(80, 4, 4, 2, seed=0)
    return {
        "P80": Network(tuple(100.0 * W for W in p80.weights)),
        "TINY": Network((1e-200 * eye, 1e-200 * eye)),
        "MIXED": Network((1e-200 * eye, 1e100 * eye, eye)),
        "HUGE": Network((1e160 * eye, eye)),
        "ZERO": Network((0.0 * eye, eye, eye)),
        "ZERO_HUGE": Network((0.0 * eye, 1e200 * eye, eye)),
        "MAX": Network((np.full((2, 2), 1e308), eye)),
    }


_ORACLE_DERIV = {
    "relu": lambda z: (z > 0.0).astype(np.float64),
    "tanh": lambda z: 1.0 - np.tanh(z) ** 2,
    "sigmoid": lambda z: 1.0 / (2.0 + np.exp(z) + np.exp(-z)),
}
_ORACLE_ACT = {
    "relu": lambda z: np.maximum(z, 0.0),
    "tanh": np.tanh,
    "sigmoid": lambda z: 1.0 / (1.0 + np.exp(-z)),
}


def _jacobian_oracle(net, x) -> float:
    """sigma_max of J(x), one point at a time: the input-side product
    W_{l+1} D_l ... D_1 W_1 from the pre-activations, then a full SVD."""
    h, J = np.asarray(x, dtype=np.float64), None
    for k, W in enumerate(net.weights):
        J = W if J is None else W @ J
        if k == net.depth:
            break
        z = W @ h + (0.0 if net.biases is None else net.biases[k])
        J = _ORACLE_DERIV[net.activation](z)[:, None] * J
        h = _ORACLE_ACT[net.activation](z)
    return float(np.linalg.svd(J, compute_uv=False)[0])


@pytest.fixture
def jacobian_oracle():
    """The per-point Jacobian norm, computed apart from lipbound's kernel."""
    return _jacobian_oracle


@pytest.fixture
def ball_points():
    """The points ``empirical_lower_bound`` documents, drawn apart from it:
    the origin, then n_samples rows of n0 + 2 standard normals from one
    ``default_rng(seed)``, each scaled to length radius and cut to its
    first n0 coordinates."""

    def draw(n0, n_samples, radius, seed):
        rows = np.random.default_rng(seed).standard_normal((n_samples, n0 + 2))
        points = [np.zeros(n0)]
        for z in rows:
            points.append(z[:n0] * (radius / math.sqrt(z @ z)))
        return points

    return draw
