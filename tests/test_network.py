"""Tests for the network model, persistence, generation, and evaluation."""

import math
import struct

import numpy as np
import pytest

from lipbound.cli import main
from lipbound.errors import DimensionChainError, DimensionMismatch, ParseError
from lipbound.network import (
    Network,
    generate_random,
    jacobian_norms,
    jacobian_sigma,
    load_network,
    save_network,
)


def scalar_net(activation="tanh"):
    """The 1-hidden-layer hand-oracle network W1=[[2]], W2=[[3]]."""
    return Network((np.array([[2.0]]), np.array([[3.0]])), activation=activation)


class TestNetworkModel:
    def test_single_layer(self):
        net = Network((np.array([[2.0]]),))
        assert net.depth == 0
        assert net.dims == (1, 1)

    def test_scalar_oracle_dims(self):
        net = scalar_net()
        assert net.depth == 1
        assert net.dims == (1, 1, 1)

    def test_dimension_chain_error_names_layer(self):
        with pytest.raises(DimensionChainError) as exc_info:
            Network((np.ones((3, 2)), np.ones((4, 4))))
        assert exc_info.value.layer == 2

    def test_empty_rejected(self):
        with pytest.raises(DimensionChainError):
            Network(())

    @pytest.mark.parametrize("shapes, layer", [([(0, 3), (2, 0)], 1),
                                               ([(2, 3), (0, 2)], 2)])
    def test_zero_width_layer_rejected(self, shapes, layer):
        with pytest.raises(DimensionChainError, match=f"weight {layer} is empty") as e:
            Network(tuple(np.zeros(shape) for shape in shapes))
        assert e.value.layer == layer

    def test_bad_activation(self):
        with pytest.raises(ValueError):
            Network((np.eye(2),), activation="softplus")

    def test_bias_shape_checked(self):
        with pytest.raises(DimensionChainError):
            Network((np.eye(2),), biases=(np.zeros(3),))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_names_layer(self, value):
        W = np.eye(2)
        W[1, 0] = value
        with pytest.raises(ValueError, match="layer 2 has a non-finite weight"):
            Network((np.eye(2), W, np.ones((1, 2))))

    def test_non_finite_bias_names_layer(self):
        biases = (np.zeros(2), np.array([0.0, np.nan]))
        with pytest.raises(ValueError, match="layer 2 has a non-finite bias"):
            Network((np.eye(2), np.eye(2)), biases=biases)


class TestPersistence:
    def test_json_round_trip_bit_exact(self, tmp_path):
        net = generate_random(3, 7, 4, 2, seed=13)
        path = tmp_path / "net.json"
        save_network(net, path)
        loaded = load_network(path)
        assert loaded.activation == net.activation
        assert loaded.biases is None
        for a, b in zip(net.weights, loaded.weights):
            np.testing.assert_array_equal(a, b)

    def test_round_trip_with_biases(self, tmp_path):
        rng = np.random.default_rng(1)
        net = Network(
            (rng.standard_normal((3, 2)), rng.standard_normal((1, 3))),
            biases=(rng.standard_normal(3), rng.standard_normal(1)),
            activation="sigmoid",
        )
        path = tmp_path / "net.json"
        save_network(net, path)
        loaded = load_network(path)
        for a, b in zip(net.biases, loaded.biases):
            np.testing.assert_array_equal(a, b)

    def test_binary_round_trip(self, tmp_path):
        net = generate_random(2, 5, 3, 4, seed=99)
        path = tmp_path / "net.lnet"
        save_network(net, path, binary=True)
        loaded = load_network(path)
        assert loaded.activation == net.activation
        for a, b in zip(net.weights, loaded.weights):
            np.testing.assert_array_equal(a, b)

    def test_binary_round_trip_with_biases(self, tmp_path):
        net = Network(
            (np.array([[2.0]]), np.array([[3.0]])),
            biases=(np.array([0.5]), np.array([-1.5])),
        )
        path = tmp_path / "net.lnet"
        save_network(net, path, binary=True)
        loaded = load_network(path)
        for a, b in zip(net.biases, loaded.biases):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("code, activation", [(0, "relu"), (1, "tanh"), (2, "sigmoid")])
    def test_binary_activation_codes(self, tmp_path, code, activation):
        # the codes on disk, packed by hand: a one-layer 1 x 1 net, no biases
        path = tmp_path / "net.lnet"
        path.write_bytes(struct.pack("<4sIBBHI", b"LNET", 1, code, 0, 0, 1)
                         + struct.pack("<II", 1, 1) + struct.pack("<d", 2.0))
        assert load_network(path).activation == activation

    def test_parse_error_on_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_network(path)

    @pytest.mark.parametrize("cut", ["table", "data", "trailing"])
    def test_binary_length_checked(self, tmp_path, cut):
        path = tmp_path / "net.lnet"
        save_network(generate_random(2, 3, 3, 2, seed=0), path, binary=True)
        data = path.read_bytes()
        # 16-byte header, then a 3-entry layer table of 8 bytes each
        edited = {"table": data[:28], "data": data[:-8], "trailing": data + b"\0"}
        path.write_bytes(edited[cut])
        with pytest.raises(ParseError, match="truncated or trailing bytes"):
            load_network(path)

    def test_parse_error_on_wrong_weight_count(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"activation": "relu", "layers": '
            '[{"rows": 2, "cols": 2, "weights": [1.0, 2.0]}]}'
        )
        with pytest.raises(ParseError):
            load_network(path)

    def test_chain_error_from_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"activation": "relu", "layers": ['
            '{"rows": 3, "cols": 2, "weights": [1,0,0,1,0,0]},'
            '{"rows": 4, "cols": 4, "weights": '
            + str(np.eye(4).ravel().tolist())
            + "}]}"
        )
        with pytest.raises(DimensionChainError) as exc_info:
            load_network(path)
        assert exc_info.value.layer == 2

    # a file case holds the file's bytes: load_network must name its fault,
    # and compute refuse it with exit 2; the other cases build no file
    @pytest.mark.parametrize("case,error,message", [
        pytest.param(b"[]", ParseError, "must be an object", id="not-an-object"),
        pytest.param(b'{"layer": []}', ParseError, "must be an object", id="no-layers"),
        pytest.param(b'{"layers": []}', ParseError, "non-empty list", id="empty-layers"),
        pytest.param(b'{"layers": 3}', ParseError, "non-empty list", id="layers-not-a-list"),
        pytest.param(b"LNET", ParseError, "truncated binary header", id="truncated-header"),
        pytest.param(b"LNET" + struct.pack("<IBBHI", 2, 1, 0, 0, 1), ParseError,
                     "bad magic or unsupported binary version", id="bad-version"),
        pytest.param(b"LNET" + struct.pack("<IBBHI", 1, 3, 0, 0, 1), ParseError,
                     "unknown activation code", id="bad-activation"),
        pytest.param(b"\xff\xfe{}", ParseError, "neither UTF-8 JSON nor LNET",
                     id="not-utf8"),
        pytest.param(lambda: Network((np.eye(2), np.eye(2)), biases=(np.zeros(2),)),
                     DimensionChainError, "bias count", id="bias-count"),
        pytest.param(lambda: generate_random(2, 0, 3, 3, seed=0), ValueError,
                     "dimensions must be at least 1", id="zero-width"),
    ])
    def test_input_error_named(self, tmp_path, capsys, case, error, message):
        if callable(case):
            with pytest.raises(error, match=message):
                case()
            return
        path = tmp_path / "bad.net"
        path.write_bytes(case)
        with pytest.raises(error, match=message):
            load_network(path)
        assert main(["compute", "--net", str(path), "--method", "fast"]) == 2
        assert message in capsys.readouterr().err


class TestGeneration:
    def test_deterministic(self):
        a = generate_random(2, 3, 3, 3, seed=7)
        b = generate_random(2, 3, 3, 3, seed=7)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_different_seeds_differ(self):
        a = generate_random(2, 3, 3, 3, seed=7)
        b = generate_random(2, 3, 3, 3, seed=8)
        assert any(
            not np.array_equal(wa, wb) for wa, wb in zip(a.weights, b.weights)
        )

    def test_depth_50_width_100_shapes(self):
        net = generate_random(50, 100, 100, 10, seed=1)
        assert len(net.weights) == 51
        assert net.weights[0].shape == (100, 100)
        assert all(W.shape == (100, 100) for W in net.weights[1:50])
        assert net.weights[50].shape == (10, 100)

    def test_depth_100_width_160(self):
        net = generate_random(100, 160, 160, 160, seed=2)
        assert len(net.weights) == 101
        assert all(W.shape == (160, 160) for W in net.weights)

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            generate_random(0, 3, 3, 3, seed=0)

    def test_fan_in_scaling_keeps_norms_bounded(self):
        net = generate_random(5, 100, 100, 100, seed=3)
        for W in net.weights:
            s = float(np.linalg.svd(W, compute_uv=False)[0])
            assert 0.5 < s < 4.0


class TestJacobianSigma:
    def test_linear_net_constant(self):
        net = Network((np.array([[2.0, 0.0], [0.0, 1.0]]),))
        for x in (np.zeros(2), np.array([5.0, -3.0])):
            assert abs(jacobian_sigma(net, x) - 2.0) <= 1e-12

    def test_tanh_chain_rule_at_origin(self):
        assert abs(jacobian_sigma(scalar_net("tanh"), np.array([0.0])) - 6.0) <= 1e-12

    def test_tanh_saturates(self):
        assert jacobian_sigma(scalar_net("tanh"), np.array([50.0])) <= 1e-12

    def test_relu_derivative_zero_at_kink(self):
        net = scalar_net("relu")
        assert jacobian_sigma(net, np.array([0.0])) == 0.0
        assert abs(jacobian_sigma(net, np.array([1.0])) - 6.0) <= 1e-12

    def test_narrow_end_matches_input_side(self, jacobian_oracle):
        # J is built from the output end when n_out <= n_0, from the input
        # end otherwise; compare both against an input-side product
        for in_dim, out_dim in ((10, 6), (8, 8), (6, 10)):
            net = generate_random(4, 20, in_dim, out_dim, seed=21)
            x = np.linspace(-1, 1, in_dim)
            expect = jacobian_oracle(net, x)
            assert abs(jacobian_sigma(net, x) - expect) <= 1e-12 * expect

    def test_never_exceeds_product_of_layer_norms(self):
        rng = np.random.default_rng(17)
        net = generate_random(3, 12, 8, 5, seed=5)
        prod = 1.0
        for W in net.weights:
            prod *= float(np.linalg.svd(W, compute_uv=False)[0])
        for _ in range(20):
            x = rng.uniform(-3, 3, size=8)
            assert jacobian_sigma(net, x) <= prod * (1.0 + 1e-10)


def with_biases(net, seed):
    rng = np.random.default_rng(seed)
    biases = tuple(rng.standard_normal(W.shape[0]) for W in net.weights)
    return Network(net.weights, biases, net.activation)


class TestJacobianNorms:
    @pytest.mark.parametrize("activation", ["relu", "tanh", "sigmoid"])
    @pytest.mark.parametrize("in_dim,out_dim", [(10, 6), (8, 8), (6, 10)])
    def test_matches_per_point_svd(self, jacobian_oracle, activation, in_dim, out_dim):
        base = generate_random(4, 20, in_dim, out_dim, seed=23, activation=activation)
        X = 2.0 * np.random.default_rng(4).standard_normal((12, in_dim))
        for net in (base, with_biases(base, 5)):
            norms = jacobian_norms(net, X)
            assert norms.shape == (12,)
            for x, got in zip(X, norms):
                expect = jacobian_oracle(net, x)
                assert abs(got - expect) <= 1e-12 * expect
                assert jacobian_sigma(net, x) == jacobian_norms(net, x[None, :])[0]

    @pytest.mark.parametrize("in_dim,out_dim", [(8, 5), (5, 8)])
    @pytest.mark.parametrize("e", [600, -600])
    def test_exact_under_power_of_two_output_scaling(self, in_dim, out_dim, e):
        net = with_biases(generate_random(3, 12, in_dim, out_dim, seed=7), 8)
        scaled = Network(net.weights[:-1] + (np.ldexp(net.weights[-1], e),),
                         net.biases, net.activation)
        X = np.random.default_rng(9).standard_normal((20, in_dim))
        norms = jacobian_norms(net, X)
        expect = np.ldexp(norms, e)
        # the unscaled Gram matrix of the scaled net leaves the float range
        with np.errstate(over="ignore", under="ignore"):
            assert not 0.0 < float((expect**2).max()) < math.inf
        np.testing.assert_array_equal(jacobian_norms(scaled, X), expect)

    def test_shape_checked(self):
        net = scalar_net()
        for X in (np.zeros(1), np.zeros((3, 2)), np.zeros((1, 1, 1))):
            with pytest.raises(DimensionMismatch):
                jacobian_norms(net, X)
        assert jacobian_norms(net, np.zeros((0, 1))).shape == (0,)
