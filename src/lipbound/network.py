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
biases if present.  The activation code is the activation's place in
``ACTIVATIONS``.

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
from .linalg import spectral_norms

# Each activation's function and its derivative, the derivative written in
# terms of the activation's value h, so a layer evaluates its activation
# once.  relu's derivative is 0 at exactly zero pre-activation:
# deterministic and still a valid lower-bound sample.  The order is the
# LNET activation code: relu 0, tanh 1, sigmoid 2.
ACTIVATIONS = {
    "relu": (lambda z: np.maximum(z, 0.0), lambda h: (h > 0.0).astype(np.float64)),
    "tanh": (np.tanh, lambda h: 1.0 - h * h),
    "sigmoid": (lambda z: 1.0 / (1.0 + np.exp(-z)), lambda h: h * (1.0 - h)),
}

_MAGIC = b"LNET"
_BINARY_VERSION = 1
# the LNET header and one layer-table entry, laid out in the module docstring
_HEADER = struct.Struct("<4sIBBHI")
_SHAPE = struct.Struct("<II")


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
            bias = layer.get("bias")
            if "bias" in layer and not isinstance(bias, list):
                raise TypeError(f"bias must be a list of {rows} numbers, got {json.dumps(bias)}")
            bias = None if bias is None else np.asarray(bias, dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"layer {k + 1}: {exc}") from exc
        if flat.shape != (rows * cols,):
            raise ParseError(
                f"layer {k + 1}: expected {rows * cols} weights, got {flat.size}"
            )
        weights.append(flat.reshape(rows, cols))
        biases.append(np.zeros(rows) if bias is None else bias)
    return Network(
        weights=tuple(weights),
        biases=tuple(biases) if any("bias" in layer for layer in layers) else None,
        activation=activation,
    )


def _parse_binary(data: bytes) -> Network:
    if len(data) < _HEADER.size:
        raise ParseError("truncated binary header")
    magic, version, act_idx, has_bias, _pad, n_layers = _HEADER.unpack_from(data)
    if magic != _MAGIC or version != _BINARY_VERSION:
        raise ParseError("bad magic or unsupported binary version")
    if act_idx >= len(ACTIVATIONS):
        raise ParseError("unknown activation code")
    offset = _HEADER.size + _SHAPE.size * n_layers
    # a truncated table reads as fewer layers, which the length check rejects
    table = data[_HEADER.size:offset]
    shapes = list(_SHAPE.iter_unpack(table[: len(table) - len(table) % _SHAPE.size]))
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
    return Network(tuple(weights), biases, list(ACTIVATIONS)[act_idx])


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
            _HEADER.pack(
                _MAGIC,
                _BINARY_VERSION,
                list(ACTIVATIONS).index(net.activation),
                1 if net.biases is not None else 0,
                0,
                len(net.weights),
            )
        ]
        for W in net.weights:
            parts.append(_SHAPE.pack(*W.shape))
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


# jacobian_norms works on blocks of at most _BLOCK_ROWS sample rows, and
# on fewer where needed to keep a block's derivative stack and Jacobians
# within _BLOCK_FLOATS floats.
_BLOCK_ROWS = 64
_BLOCK_FLOATS = 1 << 17


def _block_rows(dims) -> int:
    """Rows per block of ``jacobian_norms`` for the dimension chain ``dims``."""
    per_row = sum(dims[1:-1]) + min(dims[0], dims[-1]) * max(dims)
    return max(1, min(_BLOCK_ROWS, _BLOCK_FLOATS // per_row))


def _block_norms(net: Network, X: np.ndarray, rows: int) -> np.ndarray:
    """Jacobian spectral norms at the rows of X, one block of ``rows`` rows.

    X is padded with origin rows to ``rows`` rows, so every GEMM of the
    forward pass has the same shape whatever X's length: a row's norm then
    depends only on the row and its place in the block.
    """
    W = net.weights
    n = X.shape[0]
    H = np.zeros((rows, X.shape[1]))
    H[:n] = X
    act, deriv = ACTIVATIONS[net.activation]
    derivs = []
    for k in range(net.depth):
        Z = H @ W[k].T
        if net.biases is not None:
            Z += net.biases[k]
        H = act(Z)
        derivs.append(deriv(H[:n]))
    if net.dims[-1] <= net.dims[0]:
        J = np.broadcast_to(W[-1], (n,) + W[-1].shape)
        for k in range(net.depth - 1, -1, -1):
            J = (J * derivs[k][:, None, :]) @ W[k]
    else:
        J = np.broadcast_to(W[0], (n,) + W[0].shape)
        for k in range(net.depth):
            J = W[k + 1] @ (derivs[k][:, :, None] * J)
    return spectral_norms(J)


def jacobian_norms(net: Network, X) -> np.ndarray:
    """Largest singular value of the Jacobian at each row of X.

    J = W_{l+1} D_l W_l ... D_1 W_1 with D_k the activation derivative
    diagonals.  The rows go through in fixed-size blocks: one GEMM per
    layer for a block's forward pass, then every J of the block built from
    its narrow end, so each intermediate product has min(n_out, n_0) rows
    (or columns), and one batched eigen-solve of the small Gram matrices.
    Row i's norm is the same bits however many rows follow it, and memory
    does not grow with the number of rows beyond X and the result.
    """
    X = np.asarray(X, dtype=np.float64)
    n0 = net.dims[0]
    if X.ndim != 2 or X.shape[1] != n0:
        raise DimensionMismatch(f"inputs must have shape (m, {n0}), got {X.shape}")
    rows = _block_rows(net.dims)
    norms = np.empty(X.shape[0])
    for start in range(0, X.shape[0], rows):
        norms[start:start + rows] = _block_norms(net, X[start:start + rows], rows)
    return norms


def jacobian_sigma(net: Network, x) -> float:
    """Largest singular value of the Jacobian at x.

    The one-row case of ``jacobian_norms``, so it agrees bit for bit with
    the norm that ``jacobian_norms`` gives x in the first row of a block.
    """
    x = np.asarray(x, dtype=np.float64)
    n0 = net.dims[0]
    if x.shape != (n0,):
        raise DimensionMismatch(f"input must have shape ({n0},), got {x.shape}")
    return float(jacobian_norms(net, x[None, :])[0])
