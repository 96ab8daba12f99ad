"""Feedforward network model, persistence, generation, and evaluation.

The on-disk format is a JSON manifest::

    {"activation": "tanh",
     "layers": [{"rows": r, "cols": c,
                 "weights": [...r*c row-major floats...],
                 "bias": [...r floats...]?}, ...]}

Floats round-trip bit-exactly (Python's shortest round-trip repr).  An
optional binary sidecar format exists for wide networks: little-endian,
header ``magic "LNET" | version u32 | activation u8 | has_bias u8 |
pad u16 | n_layers u32``, then a layer table of (rows u32, cols u32)
pairs, then per-layer row-major float64 weights, then per-layer float64
biases if present.

Random generation uses numpy's counter-based Philox generator keyed by the
seed, with standard-normal draws scaled by 1/sqrt(fan-in), so the same
seed always reproduces the same network bit-exactly.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionChainError, DimensionMismatch, ParseError
from .linalg import spectral_norm

ACTIVATIONS = ("relu", "tanh", "sigmoid")

_MAGIC = b"LNET"
_BINARY_VERSION = 1


def _relu(z):
    return np.maximum(z, 0.0)


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


_ACT = {"relu": _relu, "tanh": np.tanh, "sigmoid": _sigmoid}


# Each derivative written in terms of the activation's value h, so a layer
# evaluates its activation once.  relu's derivative is 0 at exactly zero
# pre-activation: deterministic and still a valid lower-bound sample.
_DERIV = {
    "relu": lambda h: (h > 0.0).astype(np.float64),
    "tanh": lambda h: 1.0 - h * h,
    "sigmoid": lambda h: h * (1.0 - h),
}


@dataclass(frozen=True)
class Network:
    """Immutable dense feedforward network W_1..W_{l+1} (+ optional biases).

    The one place a network's data is checked: shapes must chain, every
    layer needs a row and a column, and every weight and bias must be
    finite, so the kernels downstream need not re-check them.
    """

    weights: tuple
    biases: tuple | None = None
    activation: str = "tanh"

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if not self.weights:
            raise DimensionChainError(0, "network needs at least one weight matrix")
        weights = tuple(np.asarray(W, dtype=np.float64) for W in self.weights)
        for k, W in enumerate(weights):
            if W.ndim != 2 or W.size == 0:
                raise DimensionChainError(k + 1, f"weight {k + 1} is empty or not 2-D")
            if k > 0 and W.shape[1] != weights[k - 1].shape[0]:
                raise DimensionChainError(
                    k + 1,
                    f"layer {k + 1} expects {W.shape[1]} inputs but layer "
                    f"{k} outputs {weights[k - 1].shape[0]}",
                )
            if not np.all(np.isfinite(W)):
                raise ValueError(f"layer {k + 1} has a non-finite weight")
        object.__setattr__(self, "weights", weights)
        if self.biases is not None:
            if len(self.biases) != len(weights):
                raise DimensionChainError(
                    len(self.biases), "bias count does not match layer count"
                )
            biases = tuple(np.asarray(b, dtype=np.float64) for b in self.biases)
            for k, b in enumerate(biases):
                if b.shape != (weights[k].shape[0],):
                    raise DimensionChainError(
                        k + 1, f"bias {k + 1} does not match layer output dim"
                    )
                if not np.all(np.isfinite(b)):
                    raise ValueError(f"layer {k + 1} has a non-finite bias")
            object.__setattr__(self, "biases", biases)

    @property
    def depth(self) -> int:
        """Number of hidden layers l (the network has l+1 weight matrices)."""
        return len(self.weights) - 1

    @property
    def dims(self) -> tuple:
        """Dimension chain (n_0, n_1, ..., n_{l+1})."""
        return (self.weights[0].shape[1],) + tuple(W.shape[0] for W in self.weights)


def _parse_json(text: str) -> Network:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "layers" not in obj:
        raise ParseError("manifest must be an object with a 'layers' list")
    layers = obj["layers"]
    if not isinstance(layers, list) or not layers:
        raise ParseError("'layers' must be a non-empty list")
    activation = obj.get("activation", "tanh")
    weights = []
    biases = []
    for k, layer in enumerate(layers):
        try:
            rows, cols = int(layer["rows"]), int(layer["cols"])
            flat = np.asarray(layer["weights"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"layer {k + 1}: {exc}") from exc
        if flat.shape != (rows * cols,):
            raise ParseError(
                f"layer {k + 1}: expected {rows * cols} weights, got {flat.size}"
            )
        weights.append(flat.reshape(rows, cols))
        biases.append(np.asarray(layer.get("bias", np.zeros(rows)), dtype=np.float64))
    return Network(
        weights=tuple(weights),
        biases=tuple(biases) if any("bias" in layer for layer in layers) else None,
        activation=activation,
    )


def _parse_binary(data: bytes) -> Network:
    head = struct.Struct("<4sIBBHI")
    if len(data) < head.size:
        raise ParseError("truncated binary header")
    magic, version, act_idx, has_bias, _pad, n_layers = head.unpack_from(data)
    if magic != _MAGIC or version != _BINARY_VERSION:
        raise ParseError("bad magic or unsupported binary version")
    if act_idx >= len(ACTIVATIONS):
        raise ParseError("unknown activation code")
    offset = head.size + 8 * n_layers
    # a truncated table reads as fewer layers, which the length check rejects
    table = data[head.size:offset]
    shapes = list(struct.iter_unpack("<II", table[: len(table) - len(table) % 8]))
    size = offset + 8 * sum(r * c + (r if has_bias else 0) for r, c in shapes)
    if len(data) != size:
        raise ParseError(
            f"binary network file of {len(data)} bytes does not match its "
            "header and layer table: truncated or trailing bytes"
        )
    weights = []
    for rows, cols in shapes:
        n = rows * cols
        weights.append(
            np.frombuffer(data, dtype="<f8", count=n, offset=offset).reshape(rows, cols)
        )
        offset += 8 * n
    biases = None
    if has_bias:
        bs = []
        for rows, _cols in shapes:
            bs.append(np.frombuffer(data, dtype="<f8", count=rows, offset=offset))
            offset += 8 * rows
        biases = tuple(bs)
    return Network(tuple(weights), biases, ACTIVATIONS[act_idx])


def load_network(path) -> Network:
    """Load a network from a JSON manifest or the binary sidecar format."""
    data = Path(path).read_bytes()
    if data[:4] == _MAGIC:
        return _parse_binary(data)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError("file is neither UTF-8 JSON nor LNET binary") from exc
    return _parse_json(text)


def save_network(net: Network, path, binary: bool = False) -> None:
    """Persist a network; round-trips are bit-exact in either format."""
    path = Path(path)
    if binary:
        parts = [
            struct.pack(
                "<4sIBBHI",
                _MAGIC,
                _BINARY_VERSION,
                ACTIVATIONS.index(net.activation),
                1 if net.biases is not None else 0,
                0,
                len(net.weights),
            )
        ]
        for W in net.weights:
            parts.append(struct.pack("<II", W.shape[0], W.shape[1]))
        for W in net.weights:
            parts.append(np.ascontiguousarray(W, dtype="<f8").tobytes())
        if net.biases is not None:
            for b in net.biases:
                parts.append(np.ascontiguousarray(b, dtype="<f8").tobytes())
        path.write_bytes(b"".join(parts))
        return
    layers = []
    for k, W in enumerate(net.weights):
        layer = {
            "rows": W.shape[0],
            "cols": W.shape[1],
            "weights": W.ravel().tolist(),
        }
        if net.biases is not None:
            layer["bias"] = net.biases[k].tolist()
        layers.append(layer)
    path.write_text(
        json.dumps({"activation": net.activation, "layers": layers}) + "\n"
    )


def generate_random(
    depth: int,
    width: int,
    in_dim: int,
    out_dim: int,
    seed: int,
    activation: str = "tanh",
) -> Network:
    """Random network with `depth` hidden layers of `width` neurons.

    Weights are i.i.d. Gaussian with standard deviation 1/sqrt(fan-in),
    keeping per-layer spectral norms O(1) so deep products neither explode
    nor vanish.  Drawn from Philox keyed by `seed`.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if min(width, in_dim, out_dim) < 1:
        raise ValueError("dimensions must be at least 1")
    rng = np.random.Generator(np.random.Philox(seed))
    dims = [in_dim] + [width] * depth + [out_dim]
    weights = []
    for k in range(depth + 1):
        fan_in = dims[k]
        weights.append(
            rng.standard_normal((dims[k + 1], fan_in)) / math.sqrt(fan_in)
        )
    return Network(tuple(weights), None, activation)


def forward(net: Network, x) -> np.ndarray:
    """Evaluate the network at x."""
    x = np.asarray(x, dtype=np.float64)
    n0 = net.dims[0]
    if x.shape != (n0,):
        raise DimensionMismatch(f"input must have shape ({n0},), got {x.shape}")
    h = x
    last = len(net.weights) - 1
    for k, W in enumerate(net.weights):
        z = W @ h
        if net.biases is not None:
            z = z + net.biases[k]
        h = z if k == last else _ACT[net.activation](z)
    return h


def _activation_derivs(net: Network, x: np.ndarray) -> list:
    """Diagonal activation derivatives D_1..D_l at the given input."""
    h = x
    derivs = []
    for k in range(net.depth):
        z = net.weights[k] @ h
        if net.biases is not None:
            z = z + net.biases[k]
        h = _ACT[net.activation](z)
        derivs.append(_DERIV[net.activation](h))
    return derivs


def jacobian_sigma(net: Network, x) -> float:
    """Largest singular value of the Jacobian at x.

    J = W_{l+1} D_l W_l ... D_1 W_1 with D_k the activation derivative
    diagonals.  J is built from its narrow end, so every intermediate
    product has min(n_out, n_0) rows (or columns).
    """
    x = np.asarray(x, dtype=np.float64)
    n0 = net.dims[0]
    if x.shape != (n0,):
        raise DimensionMismatch(f"input must have shape ({n0},), got {x.shape}")
    derivs = _activation_derivs(net, x)
    W = net.weights
    if net.dims[-1] <= n0:
        J = W[-1]
        for k in range(net.depth - 1, -1, -1):
            J = (J * derivs[k]) @ W[k]
    else:
        J = W[0]
        for k in range(net.depth):
            J = W[k + 1] @ (derivs[k][:, None] * J)
    return spectral_norm(J)
