"""Tests for the recursive bound engine and its multiplier strategies."""

import functools
import json
import math
import time
import warnings

import numpy as np
import pytest

import lipbound.bounds
from lipbound.bounds import (
    BEST,
    FALLBACK_MULTIPLIER,
    METHODS,
    STRATEGIES,
    Pruned,
    StrategyConfig,
    _Workspace,
    evaluate,
    product_bound,
    reads,
    report_to_dict,
    run_recursion,
)
from lipbound.certify import validate
from lipbound.cli import read_certificate
from lipbound.errors import AllInfeasible, DefinitenessLost
from lipbound.linalg import cholesky, gamma_matrix, top_eigenvalue
from lipbound.network import Network, generate_random


def scalar_net():
    return Network((np.array([[2.0]]), np.array([[3.0]])))


def scaled_net(depth, scale, seed=0):
    """A width-3 random net with every weight scaled up, to leave float range."""
    net = generate_random(depth, 3, 3, 2, seed=seed)
    return Network(tuple(scale * W for W in net.weights))


def n60():
    """fast loses definiteness at layer 61; only gc's sweep survives."""
    return scaled_net(60, 300.0)


def sn_closed_form(c):
    """Hand recursion on the scalar oracle: gamma = 36 / (c (2 - c))."""
    return math.sqrt(36.0 / (c * (2.0 - c)))


def select(method, G, **kwargs):
    """The Lambda that a strategy's rule picks for G."""
    lam, _ = STRATEGIES[method].select(np.asarray(G), StrategyConfig(method, **kwargs))
    return lam


class TestStrategyConfig:
    def test_sn_requires_open_interval(self):
        for c in (0.0, 2.0, -1.0):
            with pytest.raises(ValueError):
                StrategyConfig("sn", c=c)
        StrategyConfig("sn", c=1.99)

    def test_shift_requires_c_above_one(self):
        with pytest.raises(ValueError):
            StrategyConfig("shift", c=1.0)
        StrategyConfig("shift", c=5.0)

    def test_theta_range(self):
        with pytest.raises(ValueError):
            StrategyConfig("interp", theta=1.5)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            StrategyConfig("magic")


class TestStrategyTable:
    @pytest.mark.parametrize("method", list(STRATEGIES))
    def test_c_range_edges_rejected(self, method):
        c_range = STRATEGIES[method].c_range
        if c_range is None:
            StrategyConfig(method, c=-5.0)  # the rule takes no c
            return
        for c in c_range:
            with pytest.raises(ValueError):
                StrategyConfig(method, c=c)

    @pytest.mark.parametrize("method", list(STRATEGIES))
    def test_default_grid_inside_range(self, method):
        strategy = STRATEGIES[method]
        assert bool(strategy.grid) == (strategy.c_range is not None)
        for c, theta in strategy.grid:
            cfg = StrategyConfig(method, c=c, theta=theta)
            assert strategy.c_range[0] < cfg.c < strategy.c_range[1]

    def test_interp_grid_order(self):
        # theta-major, then c
        assert STRATEGIES["interp"].grid == tuple(
            (c, t) for t in (0.25, 0.5, 0.75) for c in (0.5, 1.0, 1.5, 1.9, 1.95, 1.99)
        )
        assert len(STRATEGIES["interp"].grid) == 18


class TestStrategies:
    def test_sn_scalar(self):
        np.testing.assert_allclose(select("sn", [[4.0]], c=1.0), [0.25])
        np.testing.assert_allclose(select("sn", [[4.0]], c=1.3), [0.325])

    def test_sn_zero_matrix_falls_back(self):
        np.testing.assert_array_equal(
            select("sn", np.zeros((2, 2)), c=1.0), [FALLBACK_MULTIPLIER] * 2
        )

    def test_fast_ignores_c(self):
        G = np.array([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_array_equal(select("fast", G, c=1.7), select("sn", G, c=1.0))

    def test_gc_row_sums(self):
        G = np.array([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(select("gc", G, c=1.0), [1 / 3, 1 / 3])

    def test_gc_zero_row_falls_back(self):
        G = np.array([[1.0, 0.0], [0.0, 0.0]])
        np.testing.assert_array_equal(
            select("gc", G, c=1.0), [1.0, FALLBACK_MULTIPLIER]
        )

    def test_gc_near_edge(self):
        np.testing.assert_allclose(select("gc", [[4.0]], c=1.99), [0.4975])

    def test_gcs_equal_diagonals_match_gc(self):
        G = np.array([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(select("gcs", G, c=1.0), select("gc", G, c=1.0))

    def test_gcs_diagonal_matches_gc(self):
        G = np.diag([3.0, 7.0])
        np.testing.assert_allclose(select("gcs", G, c=1.5), select("gc", G, c=1.5))

    def test_gcs_hand_case(self):
        # q = (4, 1): scaled row sums ((4*4 + 1*2)/4, (4*2 + 1*1)/1) = (4.5, 9)
        G = np.array([[4.0, 2.0], [2.0, 1.0]])
        np.testing.assert_allclose(select("gcs", G, c=1.0), [1 / 4.5, 1 / 9.0])

    def test_shift_hand_case(self):
        # T = I, remainder [[0, .5], [.5, 0]], s = 0.5
        G = np.array([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(select("shift", G, c=2.0), [0.5, 0.5])

    def test_shift_negative_eigenvalue_dominates(self):
        # remainder R = (I - ones)/2 has eigenvalues {-1, 0.5, 0.5}: its
        # norm is |lambda_min| = 1, so Lambda = 1 / (1 + 2 * 1)
        G = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
        np.testing.assert_allclose(select("shift", G, c=2.0), [1 / 3] * 3, rtol=1e-14)

    def test_shift_degenerate_scalar(self):
        lam = select("shift", [[4.0]], c=1.5)[0]
        eta = 1e-9 * (1.0 + 2.0)
        np.testing.assert_allclose(lam, 1.0 / (2.0 + eta))

    def test_shift_zero_matrix(self):
        lam = select("shift", np.zeros((2, 2)), c=2.0)
        np.testing.assert_allclose(lam, [1e9, 1e9])

    def test_interp_endpoints_bit_exact(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((4, 4))
        G = A @ A.T
        np.testing.assert_array_equal(
            select("interp", G, c=1.3, theta=1.0), select("sn", G, c=1.3)
        )
        np.testing.assert_array_equal(
            select("interp", G, c=1.3, theta=0.0), select("gc", G, c=1.3)
        )

    def test_interp_coinciding_endpoints(self):
        G = np.array([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(
            select("interp", G, c=1.0, theta=0.5), [1 / 3, 1 / 3]
        )


class TestProductBound:
    def test_scalar_oracle(self):
        report = product_bound(scalar_net())
        assert abs(report.bound - 6.0) <= 1e-12
        assert report.multipliers.gamma == report.bound**2

    def test_permutation_layer(self):
        net = Network((np.array([[0.0, 1.0], [1.0, 0.0]]),))
        assert abs(product_bound(net).bound - 1.0) <= 1e-12

    def test_identity_chain(self):
        net = Network((np.eye(3),) * 5)
        assert abs(product_bound(net).bound - 1.0) <= 1e-10


class TestFloatRange:
    """Entries far beyond the square root of the float range."""

    def test_scalar_chain_1e40(self):
        # G_out = 1e160: its square overflows, the bound 1e80 does not
        net = Network((np.array([[1e40]]), np.array([[1e40]])))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            bounds = [
                run_recursion(net, StrategyConfig("fast")).bound,
                run_recursion(net, StrategyConfig("sn", c=1.0)).bound,
                run_recursion(net, StrategyConfig("gc", c=1.0)).bound,
                product_bound(net).bound,
            ]
        for bound in bounds:
            assert abs(bound - 1e80) <= 1e-12 * 1e80

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("name", ["P80", "TINY", "HUGE", "ZERO_HUGE", "MAX"])
    def test_out_of_range_product_refused(self, float_range_nets, name):
        net = float_range_nets[name]
        for certified in (False, True):
            with pytest.raises(DefinitenessLost):
                product_bound(net, certified=certified)
        with pytest.raises(AllInfeasible, match="every method failed"):
            evaluate(net, "best")

    def test_underflowed_product_leaves_best_to_a_recursion(self, float_range_nets):
        net = float_range_nets["MIXED"]
        with pytest.raises(DefinitenessLost, match="layer 1"):
            product_bound(net)
        report = evaluate(net, "best")
        assert report.method != "product" and 0.0 < report.bound < math.inf
        assert validate(net, report.bound, report.multipliers, n_samples=20).lmi.psd

    @pytest.mark.parametrize("name", ["ZERO", "ZERO_HUGE"])
    def test_zero_product_refused(self, float_range_nets, name):
        # a zero gamma under a nonzero output layer certifies nothing, as in
        # run_recursion; both nets fail that one rule, before any multiplier
        for certified in (False, True):
            with pytest.raises(DefinitenessLost, match="layer 3"):
                product_bound(float_range_nets[name], certified=certified)

    def test_zero_product_leaves_best_to_a_recursion(self, float_range_nets):
        net = float_range_nets["ZERO"]
        report = evaluate(net, "best")
        assert report.method != "product" and 0.0 < report.bound < math.inf
        assert report.bound <= evaluate(net, "fast").bound == 0.7071067811865475
        assert validate(net, report.bound, report.multipliers, n_samples=20).lmi.psd

    def test_overflowing_multiplier_refused(self):
        # the cumulative product 2**-1040 is positive, its inverse overflows
        net = Network((2.0**-520 * np.eye(2), np.eye(2)))
        with pytest.raises(DefinitenessLost, match="layer 1"):
            product_bound(net)


class TestRunRecursion:
    def test_fast_scalar_oracle(self):
        report = run_recursion(scalar_net(), StrategyConfig("fast"))
        assert abs(report.bound - 6.0) <= 1e-12
        np.testing.assert_allclose(report.multipliers.lambdas[0], [0.25])
        assert abs(report.multipliers.gamma - 36.0) <= 1e-9

    def test_sn_c1_matches_fast(self):
        for seed in range(5):
            net = generate_random(4, 10, 8, 6, seed=seed)
            fast = run_recursion(net, StrategyConfig("fast")).bound
            sn = run_recursion(net, StrategyConfig("sn", c=1.0)).bound
            assert abs(fast - sn) <= 1e-12 * fast

    def test_sn_closed_form_scalar(self):
        for c in (0.5, 1.0, 1.5):
            got = run_recursion(scalar_net(), StrategyConfig("sn", c=c)).bound
            assert abs(got - sn_closed_form(c)) <= 1e-9 * sn_closed_form(c)

    def test_bound_is_sqrt_gamma(self):
        report = run_recursion(generate_random(3, 8, 8, 4, seed=1),
                               StrategyConfig("gc", c=1.5))
        assert report.bound == math.sqrt(report.multipliers.gamma)

    def test_per_layer_diagnostics(self):
        net = generate_random(3, 8, 8, 4, seed=1)
        report = run_recursion(net, StrategyConfig("fast"))
        assert [d["layer"] for d in report.per_layer] == [1, 2, 3]
        assert all(d["min_m_diag"] > 0 for d in report.per_layer)

    def test_certified_mode_dominates(self):
        for seed in range(5):
            net = generate_random(4, 12, 10, 6, seed=seed)
            cfg = StrategyConfig("gc", c=1.0)
            plain = run_recursion(net, cfg).bound
            certified = run_recursion(
                net, StrategyConfig("gc", c=1.0, certified=True)
            ).bound
            assert certified >= plain * (1.0 - 1e-12)

    def test_zero_final_layer_bound_zero(self):
        net = Network((np.array([[2.0]]), np.array([[0.0]])))
        for cfg in (
            StrategyConfig("fast"),
            StrategyConfig("sn", c=1.3),
            StrategyConfig("gc", c=1.0),
            StrategyConfig("gcs", c=1.0),
            StrategyConfig("shift", c=1.5),
            StrategyConfig("interp", c=1.0, theta=0.5),
        ):
            assert run_recursion(net, cfg).bound == 0.0
        assert product_bound(net).bound == 0.0

    def test_bias_invariance_bit_exact(self):
        net = generate_random(3, 10, 8, 5, seed=4)
        rng = np.random.default_rng(0)
        biased = Network(
            net.weights,
            biases=tuple(rng.standard_normal(W.shape[0]) for W in net.weights),
            activation=net.activation,
        )
        for cfg in (
            StrategyConfig("fast"),
            StrategyConfig("sn", c=1.3),
            StrategyConfig("gc", c=1.99),
            StrategyConfig("shift", c=1.7),
        ):
            assert run_recursion(net, cfg).bound == run_recursion(biased, cfg).bound
        assert product_bound(net).bound == product_bound(biased).bound

    def test_nonfinite_gamma_loses_definiteness(self):
        # every G stays finite, but the final gamma overflows to inf
        with pytest.raises(DefinitenessLost) as exc_info:
            run_recursion(scaled_net(100, 30.0),
                          StrategyConfig("interp", c=1.0, theta=0.25))
        assert exc_info.value.layer == 101

    def test_underflowed_multiplier_does_not_warn(self):
        # interp divides by multipliers that underflow to zero at c=1.9
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AllInfeasible):
                evaluate(scaled_net(100, 30.0), "interp")

    def test_interior_zero_layer_completes(self):
        # Gamma = 0 triggers the fallback multiplier f: M = 2*f*I, so the
        # final bound is |W2| / sqrt(2*f)
        net = Network((np.zeros((2, 2)), np.array([[1.0, 1.0]])))
        report = run_recursion(net, StrategyConfig("fast"))
        assert abs(report.bound - 1.0) <= 1e-12


class TestSweep:
    def test_scalar_oracle_best_c_is_one(self):
        grid = [round(0.1 * i, 1) for i in range(1, 20)]
        report = evaluate(scalar_net(), "sn", grid=grid)
        assert report.config.c == 1.0
        assert abs(report.bound - 6.0) <= 1e-9

    def test_single_point_sweep_equals_fast(self):
        net = generate_random(3, 8, 8, 4, seed=2)
        fast = run_recursion(net, StrategyConfig("fast")).bound
        swept = evaluate(net, "sn", grid=[1.0]).bound
        assert abs(swept - fast) <= 1e-12 * fast

    def test_sweep_records_grid(self):
        report = evaluate(scalar_net(), "sn", grid=[0.5, 1.0, 1.5])
        assert [p["c"] for p in report.sweep["points"]] == [0.5, 1.0, 1.5]

    def test_all_infeasible(self):
        # an empty grid has no feasible point
        with pytest.raises(AllInfeasible):
            evaluate(scalar_net(), "sn", grid=[])
        # every default sweep point but gc's leaves the float range on n60
        for method in ("sn", "gcs", "shift", "interp"):
            with pytest.raises(AllInfeasible):
                evaluate(n60(), method)

    def test_skipped_points_recorded_in_grid_order(self):
        report = evaluate(n60(), "gc")  # part of gc's default sweep is lost
        assert sorted(report.sweep) == ["method", "points"]  # no skipped list
        points = report.sweep["points"]
        assert [p["c"] for p in points] == [c for c, _ in STRATEGIES["gc"].grid]
        assert {p["method"] for p in points} == {"gc"}
        assert any(p["bound"] is None for p in points)
        assert report.bound == min(p["bound"] for p in points if p["bound"] is not None)

    def test_theta_recorded_only_where_swept(self):
        # a point records the parameters its method reads, and only interp
        # reads theta
        sn = evaluate(scalar_net(), "sn", grid=[0.5, 1.0])
        assert [sorted(p) for p in sn.sweep["points"]] == [["bound", "c", "method"]] * 2
        interp = evaluate(scalar_net(), "interp", grid=[0.5, 1.0], theta=0.25)
        assert [(p["c"], p["theta"]) for p in interp.sweep["points"]] == [
            (0.5, 0.25), (1.0, 0.25)
        ]

    @pytest.mark.parametrize("method,kwargs", [
        ("gc", {"c": 1.0}), ("gc", {}), ("fast", {}), ("product", {}),
        ("best", {}), ("interp", {}),
    ], ids=["gc-c", "gc", "fast", "product", "best", "interp-default-sweep"])
    def test_theta_refused_where_not_read(self, method, kwargs):
        with pytest.raises(ValueError, match="takes no theta"):
            evaluate(scalar_net(), method, theta=0.3, **kwargs)

    @pytest.mark.parametrize("method,kwargs,message", [
        ("gc", {"c": 1.0, "grid": [0.5, 1.5]}, "exclude each other"),
        ("interp", {"c": 1.0, "grid": [0.5]}, "exclude each other"),
    ], ids=["gc-c-and-grid", "interp-c-and-grid"])
    def test_input_it_would_ignore_refused(self, method, kwargs, message):
        with pytest.raises(ValueError, match=message):
            evaluate(scalar_net(), method, **kwargs)

    def test_out_of_range_c_refused_before_any_point_runs(self, monkeypatch):
        # the whole plan is checked first: the in-range points 1.0 and 1.5
        # do not run before 2.0 is refused
        calls = []
        for name in ("run_recursion", "product_bound"):
            monkeypatch.setattr(lipbound.bounds, name,
                                lambda *a, _name=name, **k: calls.append(_name))
        with pytest.raises(ValueError, match=r"requires c in \(0, 2\)"):
            evaluate(generate_random(3, 8, 8, 3, 5), "gc", grid=[1.0, 1.5, 2.0])
        assert calls == []

    @pytest.mark.parametrize("method", ["gc", "best"])
    def test_wall_time_covers_the_whole_evaluation(self, method):
        net = generate_random(3, 8, 8, 3, seed=5)
        t0 = time.perf_counter()
        report = evaluate(net, method)
        elapsed = time.perf_counter() - t0
        # one point of the sweep would take a fraction of it
        assert 0.5 * elapsed <= report.wall_time <= elapsed


class TestBestOf:
    def test_scalar_oracle_winner_by_tie_order(self):
        report = evaluate(scalar_net(), "best")
        assert abs(report.bound - 6.0) <= 1e-9
        assert report.method == "product"  # ties break by method order

    def test_dominates_fast_and_product(self):
        for seed in range(3):
            net = generate_random(5, 12, 10, 6, seed=seed)
            best = evaluate(net, "best").bound
            fast = run_recursion(net, StrategyConfig("fast")).bound
            prod = product_bound(net).bound
            assert best <= min(fast, prod) * (1.0 + 1e-12)

    def test_default_grid_winner_pinned(self):
        # the winner on this net is an interior interp point; pinned bit for
        # bit to the values of the per-method implementation it replaced
        report = evaluate(generate_random(3, 8, 8, 3, seed=5), "best")
        assert report.method == "interp"
        assert (report.config.c, report.config.theta) == (1.5, 0.25)
        assert report.bound == 2.350587664095569
        assert len(report.sweep["points"]) == 68

    def test_best_narrow_winner_pinned(self):
        report = evaluate(generate_random(10, 64, 64, 10, 0), "best")
        assert report.method == "interp"
        assert (report.config.c, report.config.theta) == (1.99, 0.5)
        assert report.bound == 34.871535854589716

    def test_one_sweep_over_every_method_point(self):
        net = generate_random(3, 8, 8, 3, seed=5)
        report = evaluate(net, "best")
        assert report.sweep["method"] == "best"
        points = report.sweep["points"]
        assert BEST == ("product", "fast", "gc", "shift", "interp")
        expected = [("product", None, None), ("fast", None, None)] + [
            (m, c, t if m == "interp" else None)
            for m in BEST[2:] for c, t in STRATEGIES[m].grid
        ]
        assert len(expected) == 68
        assert [(p["method"], p.get("c"), p.get("theta")) for p in points] == expected
        bounds = [p["bound"] for p in points]
        first = bounds.index(min(b for b in bounds if b is not None))
        winner = points[first]
        assert (report.method, report.bound) == (winner["method"], winner["bound"])
        assert (report.config.c, report.config.theta) == (
            winner.get("c", 1.0), winner.get("theta", 0.5))

    def test_leaves_out_a_failing_method(self):
        net = n60()
        with pytest.raises(DefinitenessLost):
            evaluate(net, "fast")
        report = evaluate(net, "best")
        assert math.isfinite(report.bound)
        assert (report.method, report.config.c) == ("gc", 1.25)
        alone = []
        for method in METHODS:
            try:
                alone.append(evaluate(net, method).bound)
            except (DefinitenessLost, AllInfeasible):
                pass
        assert report.bound <= min(alone)
        vr = validate(net, report.bound, report.multipliers, n_samples=20)
        assert vr.lmi.psd


def fresh_recursion(net, cfg):
    """The recursion on fresh arrays at every layer: (lambdas, min_m_diags, gamma)."""
    L, lambdas, min_diags = np.eye(net.dims[0]), [], []
    for W in net.weights[:-1]:
        G = gamma_matrix(W, L)
        lam, _ = STRATEGIES[cfg.method].select(G, cfg)
        M = np.diag(2.0 * lam) - (lam[:, None] * G) * lam[None, :]
        M = 0.5 * (M + M.T)
        min_diags.append(float(np.min(np.diag(M))))
        L = cholesky(M)
        lambdas.append(lam)
    return lambdas, min_diags, top_eigenvalue(gamma_matrix(net.weights[-1], L))


def mixed_widths_net():
    """A 6 -> 9 -> 4 -> 9 -> 3 net: each layer shape differs from the last."""
    rng = np.random.default_rng(3)
    dims = (6, 9, 4, 9, 3)
    return Network(tuple(rng.standard_normal((dims[k + 1], dims[k]))
                         for k in range(len(dims) - 1)))


def alone(net, point):
    """A sweep point run on its own, as a single run: its report or its failure."""
    params = {p: point[p] for p in reads(point["method"])}
    try:
        return evaluate(net, point["method"], **params)
    except DefinitenessLost as exc:
        return exc


class TestPruning:
    """A sweep stops a point once its tail bound cannot beat the incumbent."""

    @pytest.mark.parametrize("net,method,kwargs", [
        pytest.param(lambda: generate_random(10, 64, 64, 10, 0), "best", {}, id="best-narrow"),
        pytest.param(lambda: generate_random(3, 8, 8, 3, 5), "best", {}, id="pinned"),
        pytest.param(n60, "best", {}, id="n60"),
        pytest.param(lambda: generate_random(3, 8, 8, 3, 5), "gc",
                     {"grid": [1.9, 1.5, 1.0, 0.5, 0.1]}, id="gc-descending"),
    ])
    def test_points_match_single_runs(self, net, method, kwargs):
        net = net()
        report = evaluate(net, method, **kwargs)
        points = report.sweep["points"]
        assert any("pruned_at" in p for p in points)
        for p in points:
            single = alone(net, p)
            if p["bound"] is not None:
                # a point with a bound keeps exactly the keys it always had
                assert sorted(p) == sorted(["method", "bound", *reads(p["method"])])
                assert single.bound == p["bound"]
            elif "lost_at" in p:
                assert "pruned_at" not in p
                assert isinstance(single, DefinitenessLost)
                assert single.layer == p["lost_at"]
            else:
                assert 2 <= p["pruned_at"] <= net.depth
                # single runs never stop, and a stopped point cannot win
                assert isinstance(single, DefinitenessLost) or single.bound >= report.bound

    @pytest.mark.parametrize("net", [
        pytest.param(mixed_widths_net, id="6-9-4-9-3"),
        pytest.param(lambda: generate_random(10, 64, 64, 10, 0), id="best-narrow"),
    ])
    def test_tail_gram_from_x_matches_a_solve_with_the_whole_tail(self, net):
        # H = P_k M_k^{-1} P_k^T from X_k = L_k^{-1} W_k^T and P_{k+1}, against
        # (L_k^{-1} P_k^T)^T (L_k^{-1} P_k^T) with P_k = W_{l+1} ... W_k
        net = net()
        work, cfg = _Workspace(net), StrategyConfig("gc", c=1.0)
        L = np.eye(net.dims[0])
        for k, W in enumerate(net.weights[:-1], start=1):
            X = np.empty(W.T.shape, order="F")
            G = gamma_matrix(W, L, X)
            if k >= 2:
                P = functools.reduce(np.matmul, net.weights[::-1][:net.depth + 2 - k])
                Z = np.linalg.solve(L, P.T)
                expected = Z.T @ Z
                H = work.tail_gram(k, X)
                assert np.abs(H - expected).max() <= 1e-12 * np.abs(expected).max()
            lam, _ = STRATEGIES["gc"].select(G, cfg)
            M = np.diag(2.0 * lam) - (lam[:, None] * G) * lam[None, :]
            L = cholesky(0.5 * (M + M.T))

    def test_overflowing_tails_stop_nothing(self, monkeypatch):
        net = n60()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = evaluate(net, "best")
        assert (report.method, report.config.c) == ("gc", 1.25)
        # on n60 only gcs's points meet a tail Gram matrix beyond the float
        # range, so run them against best's winner, as a sweep would
        seen = []
        tail_gram = _Workspace.tail_gram

        def recorded(self, k, X):
            seen.append(tail_gram(self, k, X))
            return seen[-1]

        monkeypatch.setattr(_Workspace, "tail_gram", recorded)
        work = _Workspace(net)
        work.incumbent = report.multipliers.gamma
        outcomes = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for c, _ in STRATEGIES["gcs"].grid:
                try:
                    run_recursion(net, StrategyConfig("gcs", c=c), _work=work)
                except (DefinitenessLost, Pruned) as exc:
                    outcomes.append(type(exc))
        assert any(H is None for H in seen)
        assert len(outcomes) == 40 and Pruned in outcomes

    def test_best_meets_overflowing_tails(self, monkeypatch):
        # n60's seed-1 twin: best's own sweep meets tail Gram matrices beyond
        # the float range (255 of 1759 stop checks), and they stop nothing
        seen = []
        tail_gram = _Workspace.tail_gram

        def recorded(self, k, X):
            seen.append(tail_gram(self, k, X))
            return seen[-1]

        monkeypatch.setattr(_Workspace, "tail_gram", recorded)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = evaluate(scaled_net(60, 300.0, seed=1), "best")
        assert (report.method, report.config.c) == ("gc", 1.25)
        assert any(H is None for H in seen)

    def test_single_runs_build_no_tails(self, monkeypatch):
        def refused(net):
            raise AssertionError("tails built")

        monkeypatch.setattr(lipbound.bounds, "_tails", refused)
        net = generate_random(3, 8, 8, 3, 5)
        run_recursion(net, StrategyConfig("gc", c=1.0))
        evaluate(net, "gc", c=1.0)
        evaluate(net, "fast")
        # a sweep builds them once its incumbent is finite
        with pytest.raises(AssertionError, match="tails built"):
            evaluate(net, "gc")

    def test_beaten_point_raises_pruned(self):
        net = generate_random(3, 8, 8, 3, 5)
        work = _Workspace(net)
        work.incumbent = 1e-30
        with pytest.raises(Pruned) as exc_info:
            run_recursion(net, StrategyConfig("gc", c=1.0), _work=work)
        assert exc_info.value.layer == 2

    def test_certified_winner_pinned(self):
        report = evaluate(generate_random(3, 8, 8, 3, seed=5), "best", certified=True)
        assert (report.method, report.config.c) == ("gc", 1.45)
        assert report.bound == 2.461408955539158
        assert report.multipliers.gamma == 6.058534046408369

    def test_reused_arrays_match_fresh_ones(self):
        # widths change from layer to layer, so each shape has its own arrays,
        # and one workspace serves every point in turn, as in a sweep
        net = mixed_widths_net()
        work = _Workspace(net)
        assert not work.g1.flags.writeable  # G_1 is shared by every point
        for method in STRATEGIES:
            for c in (0.5, 1.5) if STRATEGIES[method].c_range else (1.0,):
                cfg = StrategyConfig(method, c=c + (method == "shift"), theta=0.25)
                lambdas, min_diags, gamma = fresh_recursion(net, cfg)
                for report in (run_recursion(net, cfg), run_recursion(net, cfg, _work=work)):
                    assert report.multipliers.gamma == gamma
                    assert [d["min_m_diag"] for d in report.per_layer] == min_diags
                    for a, b in zip(report.multipliers.lambdas, lambdas):
                        assert a.tobytes() == b.tobytes()


class TestReportSerialization:
    def test_round_trip(self):
        # the verifier's reader gets back the certificate bit for bit
        report = run_recursion(generate_random(3, 6, 5, 4, seed=8),
                               StrategyConfig("sn", c=1.3))
        payload = json.loads(json.dumps(report_to_dict(report)))
        bound, ms = read_certificate(payload)
        assert bound == report.bound
        assert ms.gamma == report.multipliers.gamma == payload["gamma"]
        assert len(ms.lambdas) == len(report.multipliers.lambdas)
        for a, b in zip(report.multipliers.lambdas, ms.lambdas):
            assert b.dtype == np.float64 and a.tobytes() == b.tobytes()
