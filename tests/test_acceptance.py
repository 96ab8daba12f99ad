"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -s``)."""

import functools
import math
import time

import numpy as np
import pytest

from lipbound.bounds import (
    StrategyConfig,
    evaluate,
    product_bound,
    run_recursion,
)
from lipbound.certify import empirical_lower_bound, verify_feasibility
from lipbound.cli import main as cli_main
from lipbound.network import Network, generate_random

# (method, kwargs) configurations exercised by the feasibility and
# sandwich suites
METHOD_CONFIGS = [
    ("fast", {}),
    ("sn", {"c": 0.5}),
    ("sn", {"c": 1.3}),
    ("sn", {"c": 1.9}),
    ("gc", {"c": 1.0}),
    ("gc", {"c": 1.99}),
    ("gcs", {"c": 1.0}),
    ("gcs", {"c": 1.99}),
    ("shift", {"c": 1.5}),
    ("shift", {"c": 2.0}),
    ("interp", {"c": 1.0, "theta": 0.25}),
    ("interp", {"c": 1.0, "theta": 0.75}),
]

def criterion(num, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\ncriterion {num} FAIL: {description}")
                raise
            print(f"\ncriterion {num} PASS: {description}")

        return wrapper

    return decorate


def scalar_oracle():
    return Network((np.array([[2.0]]), np.array([[3.0]])), activation="tanh")


@pytest.fixture(scope="module")
def equivalence_nets():
    nets = []
    for depth in (3, 10, 30):
        for width in (10, 50):
            for seed in (0, 1, 2):
                nets.append(generate_random(depth, width, width, 10, seed))
    nets.append(generate_random(3, 10, 10, 10, 3))
    nets.append(generate_random(3, 10, 10, 10, 4))
    return nets  # 20 networks


@pytest.fixture(scope="module")
def lmi_nets():
    # total dimension 40 + 3*50 + 30 = 220 <= 500
    return [generate_random(3, 50, 40, 30, seed) for seed in range(10)]


@pytest.fixture(scope="module")
def sandwich_nets():
    shapes = [(5, 100), (10, 80), (15, 90), (20, 60), (25, 70),
              (30, 50), (40, 40), (50, 30), (50, 100), (8, 100)]
    return [
        generate_random(depth, width, width, 10, seed, activation="tanh")
        for seed, (depth, width) in enumerate(shapes)
    ]


@criterion(1, "hand-oracle exactness (product, fast, sn closed form)")
def test_criterion_1_hand_oracle():
    t0 = time.perf_counter()
    net = scalar_oracle()
    assert abs(product_bound(net).bound - 6.0) <= 1e-9 * 6.0
    assert abs(run_recursion(net, StrategyConfig("fast")).bound - 6.0) <= 1e-9 * 6.0
    for c in (0.5, 1.0, 1.5):
        expect = math.sqrt(36.0 / (c * (2.0 - c)))
        got = run_recursion(net, StrategyConfig("sn", c=c)).bound
        assert abs(got - expect) <= 1e-9 * expect
    assert time.perf_counter() - t0 < 1.0


@criterion(2, "sn(c=1) matches fast to relative 1e-10 on 20 random nets")
def test_criterion_2_equivalence(equivalence_nets):
    t0 = time.perf_counter()
    assert len(equivalence_nets) == 20
    for net in equivalence_nets:
        fast = run_recursion(net, StrategyConfig("fast")).bound
        sn = run_recursion(net, StrategyConfig("sn", c=1.0)).bound
        assert abs(fast - sn) <= 1e-10 * max(fast, 1e-300)
    assert time.perf_counter() - t0 < 30.0


@criterion(3, "LMI feasibility for every method config, plus sharpness witness")
def test_criterion_3_lmi_feasibility(lmi_nets):
    t0 = time.perf_counter()
    for net in lmi_nets:
        assert sum(net.dims) <= 500
        for method, kwargs in METHOD_CONFIGS:
            report = run_recursion(net, StrategyConfig(method, **kwargs))
            cert = verify_feasibility(net, report.multipliers)
            assert cert.psd, f"{method} {kwargs} not feasible"
    # sharpness: scaling gamma by 0.9 on the tight scalar oracle flips PSD
    oracle = scalar_oracle()
    ms = run_recursion(oracle, StrategyConfig("fast")).multipliers
    ms.gamma *= 0.9
    assert not verify_feasibility(oracle, ms).psd
    assert time.perf_counter() - t0 < 120.0


@criterion(4, "every method's bound dominates the empirical lower bound")
def test_criterion_4_sandwich(sandwich_nets):
    t0 = time.perf_counter()
    for i, net in enumerate(sandwich_nets):
        lower = empirical_lower_bound(net, 200, seed=i)
        bounds = {"product": product_bound(net).bound}
        for method, kwargs in METHOD_CONFIGS:
            bounds[f"{method}{kwargs}"] = run_recursion(
                net, StrategyConfig(method, **kwargs)
            ).bound
        for name, bound in bounds.items():
            margin = bound - lower
            assert margin >= 0, f"net {i}: {name} bound {bound} < lower {lower}"
    assert time.perf_counter() - t0 < 120.0


@criterion(5, "best dominates product/fast; some method strictly beats fast")
def test_criterion_5_dominance_and_improvement(
    equivalence_nets, lmi_nets, sandwich_nets
):
    for net in equivalence_nets + lmi_nets + sandwich_nets:
        best = evaluate(net, "best").bound
        fast = run_recursion(net, StrategyConfig("fast")).bound
        prod = product_bound(net).bound
        assert best <= min(fast, prod) * (1.0 + 1e-12)
    # strict improvement over fast on at least one deep random network
    improved = False
    for depth in (50, 75, 100):
        net = generate_random(depth, 64, 64, 64, seed=0)
        fast = run_recursion(net, StrategyConfig("fast")).bound
        for method in ("sn", "gc", "gcs", "shift"):
            swept = evaluate(net, method).bound
            if swept <= fast * (1.0 - 1e-3):
                improved = True
    assert improved


@criterion(6, "degenerate cases: zero final layer, shift eta branch, gc zero row")
def test_criterion_6_degenerate_cases():
    # zero final layer: bound 0 for every method
    zero_out = Network((np.array([[2.0]]), np.array([[0.0]])))
    assert product_bound(zero_out).bound == 0.0
    for method, kwargs in METHOD_CONFIGS:
        assert run_recursion(zero_out, StrategyConfig(method, **kwargs)).bound == 0.0
    # diagonal Gamma exercises the shift eta branch without DefinitenessLost
    diag_net = Network((np.diag([2.0, 3.0]), np.array([[1.0, 1.0]])))
    report = run_recursion(diag_net, StrategyConfig("shift", c=1.5))
    assert np.isfinite(report.bound) and report.bound > 0
    assert report.per_layer[0]["stat"] == 0.0  # remainder norm was zero
    # a zero Gershgorin row exercises the fallback multiplier
    zero_row = Network((np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[1.0, 1.0]])))
    report = run_recursion(zero_row, StrategyConfig("gc", c=1.0))
    assert np.isfinite(report.bound) and report.bound > 0
    assert report.multipliers.lambdas[0][1] == 1.0  # the fallback entry


@criterion(7, "bias perturbation changes no bound (bit-exact)")
def test_criterion_7_bias_invariance():
    net = generate_random(5, 20, 15, 8, seed=42)
    rng = np.random.default_rng(7)
    biased = Network(
        net.weights,
        biases=tuple(rng.standard_normal(W.shape[0]) for W in net.weights),
        activation=net.activation,
    )
    assert product_bound(net).bound == product_bound(biased).bound
    for method, kwargs in METHOD_CONFIGS:
        cfg = StrategyConfig(method, **kwargs)
        assert run_recursion(net, cfg).bound == run_recursion(biased, cfg).bound


@criterion(8, "gc/gcs per-layer cost <= 1.5x fast; bench CSV under 10 minutes")
def test_criterion_8_timing(tmp_path):
    for width in (80, 120, 160):
        net = generate_random(100, width, width, width, seed=1)
        # interleaved, so that drift in the host's speed hits all three alike
        timings = dict.fromkeys(("fast", "gc", "gcs"), math.inf)
        for _ in range(2):
            for method in timings:
                wall = run_recursion(net, StrategyConfig(method, c=1.0)).wall_time
                timings[method] = min(timings[method], wall)
        assert timings["gc"] <= 1.5 * timings["fast"], (width, timings)
        assert timings["gcs"] <= 1.5 * timings["fast"], (width, timings)
    t0 = time.perf_counter()
    csv_path = tmp_path / "bench.csv"
    code = cli_main([
        "bench", "--depths", "100", "--widths", "80,100,120,140,160",
        "--seeds", "0", "--methods", "product,fast,sn,gc,gcs,shift",
        "--o", str(csv_path),
    ])
    assert code == 0
    assert csv_path.exists()
    assert time.perf_counter() - t0 < 600.0
