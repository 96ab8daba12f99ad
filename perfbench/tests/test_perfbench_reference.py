"""Tests of the benchmark's reference math: known answers, then agreement
with lipbound on networks small enough to run in a test."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference  # noqa: E402

SCALAR_CHAIN = [np.array([[w]]) for w in (0.5, -2.0, 3.0, 0.7, -1.3)]
SCALAR_ANSWER = abs(0.5 * -2.0 * 3.0 * 0.7 * -1.3)


@pytest.mark.parametrize("method", ["fast", "gc"])
def test_scalar_chain_recursion_is_exact(method):
    bound, lambdas = reference.recursion_bound(SCALAR_CHAIN, method, c=1.0)
    assert bound == pytest.approx(SCALAR_ANSWER, rel=1e-15)
    assert len(lambdas) == len(SCALAR_CHAIN) - 1


def test_scalar_chain_product_and_jacobian():
    assert reference.product_bound(SCALAR_CHAIN) == pytest.approx(SCALAR_ANSWER, rel=1e-15)
    j0 = reference.jacobian_norms(SCALAR_CHAIN, "tanh", np.zeros((1, 1)))[0]
    assert j0 == pytest.approx(SCALAR_ANSWER, rel=1e-15)


def test_scalar_chain_lipsdp_sign():
    bound, lambdas = reference.recursion_bound(SCALAR_CHAIN, "gc", c=1.0)
    assert reference.lipsdp_min_eig(SCALAR_CHAIN, lambdas, bound**2) >= -1e-12
    assert reference.lipsdp_min_eig(SCALAR_CHAIN, lambdas, 0.99 * bound**2) < -1e-6


def test_infeasible_multiplier_is_reported():
    with pytest.raises(reference.Infeasible):
        reference.recursion_bound([np.eye(2), np.eye(2), np.eye(2)], "gc", c=2.5)


lipbound = pytest.importorskip("lipbound")
from lipbound.bounds import StrategyConfig, run_recursion  # noqa: E402


@pytest.fixture(scope="module")
def net():
    return lipbound.generate_random(6, 12, 10, 4, seed=3)


@pytest.mark.parametrize(
    "method,c,theta",
    [("fast", 1.0, 0.5), ("sn", 1.5, 0.5), ("gc", 1.2, 0.5), ("gcs", 0.8, 0.5),
     ("shift", 1.7, 0.5), ("interp", 1.9, 0.25), ("interp", 1.0, 1.0)],
)
def test_recursions_match_program(net, method, c, theta):
    ours, _ = reference.recursion_bound(list(net.weights), method, c, theta)
    theirs = run_recursion(net, StrategyConfig(method, c=c, theta=theta)).bound
    assert ours == pytest.approx(theirs, rel=1e-8)


def test_deep_chain_matches_program():
    deep = lipbound.generate_random(100, 16, 16, 4, seed=0)
    weights = list(deep.weights)
    gc = run_recursion(deep, StrategyConfig("gc", c=1.0)).bound
    fast = run_recursion(deep, StrategyConfig("fast")).bound
    assert reference.recursion_bound(weights, "gc", 1.0)[0] == pytest.approx(gc, rel=1e-12)
    assert reference.recursion_bound(weights, "fast")[0] == pytest.approx(fast, rel=1e-8)


def test_product_and_jacobians_match_program(net):
    weights = list(net.weights)
    assert reference.product_bound(weights) == pytest.approx(
        lipbound.product_bound(net).bound, rel=1e-8
    )
    X = np.random.default_rng(0).standard_normal((5, 10))
    ours = reference.jacobian_norms(weights, "tanh", X)
    theirs = [lipbound.jacobian_sigma(net, x) for x in X]
    np.testing.assert_allclose(ours, theirs, rtol=1e-8)


def test_empirical_lower_sits_below_the_bound(net):
    weights = list(net.weights)
    lower = reference.empirical_lower(weights, "tanh", samples=50, seed=1)
    j0 = reference.jacobian_norms(weights, "tanh", np.zeros((1, 10)))[0]
    assert j0 <= lower <= reference.recursion_bound(weights, "fast")[0]
    assert lower == reference.empirical_lower(weights, "tanh", samples=50, seed=1)


def test_lipsdp_matrix_matches_program(net):
    report = run_recursion(net, StrategyConfig("gc", c=1.0))
    lambdas, gamma = report.multipliers.lambdas, report.multipliers.gamma
    ours = reference.lipsdp_matrix(list(net.weights), lambdas, gamma)
    np.testing.assert_array_equal(ours, lipbound.assemble_lipsdp(net, report.multipliers))
    assert reference.lipsdp_min_eig(list(net.weights), lambdas, gamma) >= -1e-9
    assert reference.lipsdp_min_eig(list(net.weights), lambdas, 0.99 * gamma) < 0.0


@pytest.mark.parametrize("binary", [False, True])
def test_read_network_matches_saved_weights(tmp_path, net, binary):
    path = tmp_path / ("net.lnet" if binary else "net.json")
    lipbound.save_network(net, path, binary=binary)
    weights, activation = reference.read_network(path)
    assert activation == net.activation
    assert len(weights) == len(net.weights)
    for ours, theirs in zip(weights, net.weights):
        np.testing.assert_array_equal(ours, theirs)
    assert math.isfinite(reference.product_bound(weights))
