"""Tests for feasibility assembly, PSD verification, and empirical bounds."""

import numpy as np
import pytest

from lipbound import certify
from lipbound.bounds import MultiplierSequence, StrategyConfig, run_recursion
from lipbound.certify import (
    assemble_lipsdp,
    empirical_lower_bound,
    validate,
    verify_feasibility,
)
from lipbound.errors import DimensionMismatch, ValidationFailed
from lipbound.network import Network, generate_random


def scalar_net(activation="tanh"):
    return Network((np.array([[2.0]]), np.array([[3.0]])), activation=activation)


def scaled_dense(net, ms):
    """The Jacobi-scaled dense LipSDP matrix, d_i <= 0 left unscaled."""
    S = assemble_lipsdp(net, ms)
    d = np.diag(S)
    s = 1.0 / np.sqrt(np.where(d > 0.0, d, 1.0))
    return S * s[:, None] * s[None, :]


def tamper_lambda(ms, k, factor):
    lambdas = [lam.copy() for lam in ms.lambdas]
    lambdas[k - 1] *= factor
    return MultiplierSequence(lambdas, ms.gamma)


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
        # deep Lambda blocks lie far below gamma on the diagonal: down to
        # 5e-19 at depth 30 and 8e-61 at depth 100
        for depth in (30, 100):
            net = generate_random(depth, 64, 64, 10, seed=0)
            ms = run_recursion(net, StrategyConfig("gc", c=1.0)).multipliers
            assert verify_feasibility(net, ms).psd
            for factor in (0.99, 1.0 - 1e-6):
                shrunk = MultiplierSequence(ms.lambdas, ms.gamma * factor)
                cert = verify_feasibility(net, shrunk)
                assert not cert.psd, (depth, factor)
                assert cert.failed_block == depth + 1

    def test_failed_block_estimate_tracks_gamma_shrink(self):
        # shrinking gamma by delta leaves the scaled output block with
        # smallest eigenvalue 1 - 1/(1 - delta); a Gershgorin bound of the
        # block read -0.35 to -0.41 whatever delta was
        deep = generate_random(30, 64, 64, 10, seed=0)
        cases = (
            (deep, StrategyConfig("gc", c=1.0)),
            (deep, StrategyConfig("fast")),
            (generate_random(10, 64, 64, 10, seed=0), StrategyConfig("sn", c=1.5)),
        )
        for net, cfg in cases:
            ms = run_recursion(net, cfg).multipliers
            for delta in (1e-2, 1e-4):
                shrunk = MultiplierSequence(ms.lambdas, ms.gamma * (1.0 - delta))
                cert = verify_feasibility(net, shrunk)
                assert not cert.psd and cert.failed_block == net.depth + 1
                expect = 1.0 - 1.0 / (1.0 - delta)
                assert abs(cert.min_pivot_estimate - expect) <= 1e-6, (cfg, delta)

    def test_zero_gamma_report_feasible(self):
        net = Network((np.array([[2.0]]), np.array([[0.0]])))
        report = run_recursion(net, StrategyConfig("fast"))
        assert report.multipliers.gamma == 0.0
        assert verify_feasibility(net, report.multipliers).psd

    def test_interior_lambda_tampering_fails_at_its_block(self):
        net = generate_random(10, 16, 8, 4, seed=0)
        ms = run_recursion(net, StrategyConfig("fast")).multipliers
        for factor in (2.01, 3.0):
            tampered = tamper_lambda(ms, 5, factor)
            cert = verify_feasibility(net, tampered)
            assert not cert.psd and cert.failed_block == 5
            assert np.linalg.eigvalsh(scaled_dense(net, tampered))[0] < -0.01

    def test_non_finite_block_rejected(self):
        net = generate_random(3, 8, 6, 4, seed=1)
        ms = run_recursion(net, StrategyConfig("fast")).multipliers
        for value, k in ((np.nan, 2), (np.inf, 2), (-np.inf, 3)):
            lambdas = [lam.copy() for lam in ms.lambdas]
            lambdas[k - 1][0] = value
            cert = verify_feasibility(net, MultiplierSequence(lambdas, ms.gamma))
            assert not cert.psd and cert.failed_block == k
        cert = verify_feasibility(net, MultiplierSequence(ms.lambdas, np.nan))
        assert not cert.psd and cert.failed_block == 4


class TestBlockCholeskyMatchesDense:
    """The block factorization against the dense scaled matrix."""

    CONFIGS = (
        StrategyConfig("fast"),
        StrategyConfig("gc", c=1.99),
        StrategyConfig("gcs", c=1.0),
        StrategyConfig("shift", c=1.7),
        StrategyConfig("interp", c=1.5, theta=0.25),
    )

    def cases(self):
        nets = [
            scalar_net(),
            Network((np.array([[1.0, 2.0]]),)),
            generate_random(5, 15, 12, 8, seed=5),
            generate_random(10, 16, 8, 4, seed=0),
        ]
        for net in nets:
            for cfg in self.CONFIGS:
                ms = run_recursion(net, cfg).multipliers
                for factor in (1.0, 0.99):
                    yield net, MultiplierSequence(ms.lambdas, ms.gamma * factor)
                if net.depth >= 5:
                    yield net, tamper_lambda(ms, 5, 2.01)

    def test_verdict_and_min_pivot(self):
        for net, ms in self.cases():
            T = scaled_dense(net, ms)
            cert = verify_feasibility(net, ms)
            shift = cert.shift_used
            assert cert.dimension == T.shape[0]
            assert cert.psd == (np.linalg.eigvalsh(T)[0] > -shift)
            if cert.psd:
                L = np.linalg.cholesky(T + shift * np.eye(T.shape[0]))
                dense_pivot = float(np.diag(L).min()) ** 2 - shift
                np.testing.assert_allclose(
                    cert.min_pivot_estimate, dense_pivot, rtol=1e-6, atol=1e-15
                )


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

    @pytest.mark.parametrize("radius", [np.nan, np.inf, 0.0, -1.0])
    def test_radius_finite_and_positive(self, radius):
        with pytest.raises(ValueError, match="radius must be finite and positive"):
            empirical_lower_bound(scalar_net(), 5, radius=radius)


class TestValidate:
    def test_tight_scalar_oracle(self):
        report = run_recursion(scalar_net(), StrategyConfig("fast"))
        vr = validate(scalar_net(), report.bound, report.multipliers, n_samples=20,
                      seed=0)
        assert abs(vr.margin) <= 1e-9
        assert vr.lmi is not None and vr.lmi.psd

    def test_random_net_best_method(self):
        net = generate_random(4, 12, 10, 6, seed=11)
        report = run_recursion(net, StrategyConfig("gc", c=1.5))
        vr = validate(net, report.bound, report.multipliers, n_samples=50, seed=2)
        assert vr.margin >= 0
        assert vr.lmi.psd

    def test_corrupted_bound_fails(self):
        net = scalar_net()
        report = run_recursion(net, StrategyConfig("fast"))
        report.bound *= 0.5
        with pytest.raises(ValidationFailed):
            validate(net, report.bound, report.multipliers, n_samples=5, seed=0)

    def test_zero_gamma_needs_a_zero_output_layer(self, float_range_nets):
        # TINY's true constant is about 1e-400 > 0, which no float gamma states
        tiny = MultiplierSequence([np.ones(2)], 0.0)
        with pytest.raises(ValidationFailed, match="gamma is 0"):
            validate(float_range_nets["TINY"], 0.0, tiny, n_samples=5)
        zero_out = Network((np.array([[2.0]]), np.array([[0.0]])))
        report = run_recursion(zero_out, StrategyConfig("fast"))
        assert validate(zero_out, 0.0, report.multipliers, n_samples=5).lmi.psd

    def test_lmi_runs_past_2000_dimensions(self):
        net = generate_random(20, 100, 100, 10, seed=12)
        assert sum(net.dims) > 2000
        report = run_recursion(net, StrategyConfig("fast"))
        vr = validate(net, report.bound, report.multipliers, n_samples=5, seed=0)
        assert vr.lmi.psd and vr.lmi.dimension == sum(net.dims)
        assert vr.margin >= 0

    def test_report_for_another_network_rejected_first(self, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the shapes were checked")

        monkeypatch.setattr(certify, "empirical_lower_bound", no_sampling)
        report = run_recursion(generate_random(3, 8, 6, 4, seed=1),
                               StrategyConfig("fast"))
        with pytest.raises(DimensionMismatch, match="expected 5 multipliers"):
            validate(generate_random(5, 8, 6, 4, seed=1), report.bound,
                     report.multipliers, n_samples=5)
        with pytest.raises(DimensionMismatch, match="multiplier 1 has shape"):
            validate(generate_random(3, 9, 6, 4, seed=1), report.bound,
                     report.multipliers, n_samples=5)
