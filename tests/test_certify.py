"""Tests for feasibility assembly, PSD verification, and empirical bounds."""

import numpy as np
import pytest

from lipbound.bounds import MultiplierSequence, StrategyConfig, run_recursion
from lipbound.certify import (
    assemble_lipsdp,
    empirical_lower_bound,
    validate,
    verify_feasibility,
)
from lipbound.errors import DimensionCapExceeded, DimensionMismatch, ValidationFailed
from lipbound.network import Network, generate_random


def scalar_net(activation="tanh"):
    return Network((np.array([[2.0]]), np.array([[3.0]])), activation=activation)


class TestAssemble:
    def test_scalar_oracle_hand_assembly(self):
        ms = MultiplierSequence([np.array([0.25])], 36.0)
        S = assemble_lipsdp(scalar_net(), ms)
        np.testing.assert_array_equal(
            S, [[1.0, -0.5, 0.0], [-0.5, 0.5, -3.0], [0.0, -3.0, 36.0]]
        )

    def test_single_affine_layer_two_blocks(self):
        W = np.array([[1.0, 2.0]])
        net = Network((W,))
        gamma = float(np.linalg.svd(W, compute_uv=False)[0]) ** 2
        S = assemble_lipsdp(net, MultiplierSequence([], gamma))
        expect = np.block(
            [[np.eye(2), -W.T], [-W, gamma * np.eye(1)]]
        )
        np.testing.assert_array_equal(S, expect)

    def test_zero_network_block_diagonal(self):
        net = Network((np.zeros((2, 2)), np.zeros((1, 2))))
        ms = MultiplierSequence([np.array([1.0, 1.0])], 5.0)
        S = assemble_lipsdp(net, ms)
        np.testing.assert_array_equal(S, np.diag([1.0, 1.0, 2.0, 2.0, 5.0]))

    def test_exactly_symmetric(self):
        net = generate_random(4, 9, 7, 5, seed=3)
        report = run_recursion(net, StrategyConfig("gc", c=1.5))
        S = assemble_lipsdp(net, report.multipliers)
        np.testing.assert_array_equal(S, S.T)

    def test_multiplier_count_checked(self):
        with pytest.raises(DimensionMismatch):
            assemble_lipsdp(scalar_net(), MultiplierSequence([], 36.0))


class TestVerifyFeasibility:
    def test_scalar_oracle_fast_is_feasible(self):
        report = run_recursion(scalar_net(), StrategyConfig("fast"))
        cert = verify_feasibility(scalar_net(), report.multipliers)
        assert cert.psd
        assert cert.dimension == 3

    def test_gamma_below_threshold_fails(self):
        ms = MultiplierSequence([np.array([0.25])], 35.0)
        assert not verify_feasibility(scalar_net(), ms).psd

    def test_every_strategy_feasible_on_random_net(self):
        net = generate_random(5, 15, 12, 8, seed=5)
        for cfg in (
            StrategyConfig("fast"),
            StrategyConfig("sn", c=1.3),
            StrategyConfig("gc", c=1.99),
            StrategyConfig("gcs", c=1.99),
            StrategyConfig("shift", c=1.7),
            StrategyConfig("interp", c=1.0, theta=0.5),
        ):
            report = run_recursion(net, cfg)
            assert verify_feasibility(net, report.multipliers).psd, cfg.method

    def test_deep_shrunk_gamma_rejected(self):
        # at depth 30 the Lambda blocks lie far below gamma on the diagonal
        net = generate_random(30, 64, 64, 10, seed=0)
        ms = run_recursion(net, StrategyConfig("gc", c=1.0)).multipliers
        assert verify_feasibility(net, ms).psd
        for factor in (0.99, 1.0 - 1e-6):
            shrunk = MultiplierSequence(ms.lambdas, ms.gamma * factor)
            assert not verify_feasibility(net, shrunk).psd, factor

    def test_zero_gamma_report_feasible(self):
        net = Network((np.array([[2.0]]), np.array([[0.0]])))
        report = run_recursion(net, StrategyConfig("fast"))
        assert report.multipliers.gamma == 0.0
        assert verify_feasibility(net, report.multipliers).psd

    def test_dimension_cap(self):
        net = generate_random(2, 10, 10, 10, seed=0)
        with pytest.raises(DimensionCapExceeded):
            verify_feasibility(net, MultiplierSequence(
                [np.ones(10), np.ones(10)], 1.0), dim_cap=10)


class TestEmpiricalLowerBound:
    def test_linear_net_constant(self):
        net = Network((np.array([[2.0, 0.0], [0.0, 1.0]]),))
        assert abs(empirical_lower_bound(net, 10, seed=0) - 2.0) <= 1e-12

    def test_scalar_oracle_attained_at_origin(self):
        assert abs(empirical_lower_bound(scalar_net(), 5, seed=0) - 6.0) <= 1e-12

    def test_relu_includes_origin_convention(self):
        net = scalar_net("relu")
        lower = empirical_lower_bound(net, 50, seed=1)
        assert 0.0 <= lower <= 6.0 + 1e-12

    def test_monotone_in_sample_count(self):
        net = generate_random(3, 10, 6, 4, seed=9)
        values = [empirical_lower_bound(net, n, seed=3) for n in (1, 5, 20, 50)]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_requires_samples(self):
        with pytest.raises(ValueError):
            empirical_lower_bound(scalar_net(), 0)


class TestValidate:
    def test_tight_scalar_oracle(self):
        report = run_recursion(scalar_net(), StrategyConfig("fast"))
        vr = validate(scalar_net(), report, n_samples=20, seed=0)
        assert abs(vr.margin) <= 1e-9
        assert vr.lmi is not None and vr.lmi.psd

    def test_random_net_best_method(self):
        net = generate_random(4, 12, 10, 6, seed=11)
        report = run_recursion(net, StrategyConfig("gc", c=1.5))
        vr = validate(net, report, n_samples=50, seed=2)
        assert vr.margin >= 0
        assert vr.lmi.psd

    def test_corrupted_bound_fails(self):
        net = scalar_net()
        report = run_recursion(net, StrategyConfig("fast"))
        report.bound *= 0.5
        with pytest.raises(ValidationFailed):
            validate(net, report, n_samples=5, seed=0)

    def test_lmi_skipped_above_cap(self):
        net = generate_random(3, 8, 6, 4, seed=12)
        report = run_recursion(net, StrategyConfig("fast"))
        vr = validate(net, report, n_samples=5, seed=0, dim_cap=5)
        assert vr.lmi is None
        assert vr.margin >= 0
