"""Minimal dense-network substrate.

Plain-numpy affine layers with optional ReLU, exact reverse-mode gradients,
a numerically stabilized softmax cross-entropy, and SGD with momentum.
Everything downstream (relation modules, baseline heads) is built from the
pieces in this module.

Precision is controlled by a single global switch: float32 for normal
training, float64 when gradients are being checked against finite
differences (see :func:`set_default_dtype`).
"""

from __future__ import annotations

import struct
import os
from typing import BinaryIO, Sequence

import numpy as np

from .errors import FormatError, InputError, TrainingDivergedError

ACTIVATIONS = ("none", "relu")

WEIGHTS_MAGIC = b"TRNW"
CHECKPOINT_VERSION = 1

_ACT_CODES = {"none": 0, "relu": 1}
_ACT_NAMES = {code: name for name, code in _ACT_CODES.items()}

_default_dtype = np.dtype(np.float32)


def set_default_dtype(dtype) -> None:
    """Set the global parameter dtype (``float32`` or ``float64``)."""
    global _default_dtype
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise InputError(f"unsupported dtype {dtype!r}; use float32 or float64")
    _default_dtype = dt


def get_default_dtype() -> np.dtype:
    return _default_dtype


class DenseLayer:
    """One affine map ``y = W x + b`` with an optional ReLU on top.

    ``weights`` has shape (out_dim, in_dim); dimensions are fixed after
    construction and all parameters must be finite.
    """

    def __init__(self, weights: np.ndarray, bias: np.ndarray, activation: str = "none"):
        weights = np.asarray(weights)
        bias = np.asarray(bias)
        if weights.ndim != 2 or bias.ndim != 1:
            raise InputError("weights must be 2-D and bias 1-D")
        if weights.shape[0] != bias.shape[0]:
            raise InputError(
                f"bias length {bias.shape[0]} does not match weight rows {weights.shape[0]}"
            )
        if activation not in ACTIVATIONS:
            raise InputError(f"unknown activation {activation!r}")
        if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
            raise InputError("layer parameters must be finite")
        self.weights = weights
        self.bias = bias
        self.activation = activation

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    @classmethod
    def init_random(
        cls,
        in_dim: int,
        out_dim: int,
        activation: str,
        rng: np.random.Generator,
        dtype=None,
    ) -> "DenseLayer":
        """Fan-based uniform init: W ~ U[-a, a] with a = sqrt(6/(in+out))."""
        dt = np.dtype(dtype) if dtype is not None else _default_dtype
        a = np.sqrt(6.0 / (in_dim + out_dim))
        w = rng.uniform(-a, a, size=(out_dim, in_dim)).astype(dt)
        b = np.zeros(out_dim, dtype=dt)
        return cls(w, b, activation)


class Mlp:
    """A chain of :class:`DenseLayer` with matching inner dimensions."""

    def __init__(self, layers: Sequence[DenseLayer]):
        layers = list(layers)
        if not layers:
            raise InputError("an Mlp needs at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if prev.out_dim != nxt.in_dim:
                raise InputError(
                    f"layer output dim {prev.out_dim} does not feed layer input dim {nxt.in_dim}"
                )
        self.layers = layers

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    @property
    def dtype(self) -> np.dtype:
        return self.layers[0].weights.dtype

    def parameters(self) -> list[np.ndarray]:
        """Flat parameter list, layer order, weights before bias."""
        params: list[np.ndarray] = []
        for layer in self.layers:
            params.append(layer.weights)
            params.append(layer.bias)
        return params

    def set_parameters(self, params: Sequence[np.ndarray]) -> None:
        if len(params) != 2 * len(self.layers):
            raise InputError("parameter count mismatch")
        for i, layer in enumerate(self.layers):
            w, b = params[2 * i], params[2 * i + 1]
            if w.shape != layer.weights.shape or b.shape != layer.bias.shape:
                raise InputError(f"parameter shape mismatch at layer {i}")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise InputError("layer parameters must be finite")
            layer.weights = w
            layer.bias = b

    def astype(self, dtype) -> "Mlp":
        dt = np.dtype(dtype)
        return Mlp(
            [
                DenseLayer(l.weights.astype(dt), l.bias.astype(dt), l.activation)
                for l in self.layers
            ]
        )


class GradientSet:
    """Per-parameter gradient arrays mirroring an Mlp's parameter shapes."""

    def __init__(self, weight_grads: list[np.ndarray], bias_grads: list[np.ndarray]):
        self.weight_grads = weight_grads
        self.bias_grads = bias_grads

    @classmethod
    def zeros_for(cls, mlp: Mlp) -> "GradientSet":
        return cls(
            [np.zeros_like(l.weights) for l in mlp.layers],
            [np.zeros_like(l.bias) for l in mlp.layers],
        )

    def flat(self) -> list[np.ndarray]:
        """Same ordering as :meth:`Mlp.parameters`."""
        out: list[np.ndarray] = []
        for w, b in zip(self.weight_grads, self.bias_grads):
            out.append(w)
            out.append(b)
        return out

    def add_(self, other: "GradientSet") -> "GradientSet":
        for mine, theirs in zip(self.flat(), other.flat()):
            mine += theirs
        return self

    def scale_(self, factor: float) -> "GradientSet":
        for arr in self.flat():
            arr *= factor
        return self


def _as_batch(x: np.ndarray, in_dim: int) -> tuple[np.ndarray, bool]:
    x = np.asarray(x)
    if x.ndim == 1:
        if x.shape[0] != in_dim:
            raise InputError(f"input length {x.shape[0]} does not match in_dim {in_dim}")
        return x[None, :], True
    if x.ndim == 2:
        if x.shape[1] != in_dim:
            raise InputError(f"input width {x.shape[1]} does not match in_dim {in_dim}")
        return x, False
    raise InputError("input must be a vector or a batch of row vectors")


def mlp_activations(m: Mlp, x: np.ndarray) -> list[np.ndarray]:
    """The batch ``x`` (B, in_dim) followed by every layer's output.

    The last entry is the network output; the list is what
    :func:`mlp_param_grads` needs, so a backward pass can reuse a forward
    pass instead of recomputing it.
    """
    acts = [x]
    for layer in m.layers:
        a = acts[-1] @ layer.weights.T + layer.bias
        if layer.activation == "relu":
            a = np.maximum(a, 0.0)
        acts.append(a)
    return acts


def mlp_param_grads(
    m: Mlp, activations: Sequence[np.ndarray], upstream: np.ndarray, input_grad: bool = False
) -> tuple[GradientSet, np.ndarray | None]:
    """Reverse-mode gradients of <upstream, output> from cached activations.

    Parameter gradients are summed over the batch rows; the gradient with
    respect to the input rows is computed only when ``input_grad`` is set
    (None otherwise).
    """
    weight_grads: list[np.ndarray] = [None] * len(m.layers)  # type: ignore[list-item]
    bias_grads: list[np.ndarray] = [None] * len(m.layers)  # type: ignore[list-item]
    delta = upstream
    for i in range(len(m.layers) - 1, -1, -1):
        layer = m.layers[i]
        if layer.activation == "relu":
            delta = delta * (activations[i + 1] > 0)
        weight_grads[i] = delta.T @ activations[i]
        bias_grads[i] = delta.sum(axis=0)
        if i or input_grad:
            delta = delta @ layer.weights
    return GradientSet(weight_grads, bias_grads), (delta if input_grad else None)


def mlp_forward(m: Mlp, x: np.ndarray) -> np.ndarray:
    """Apply the affine+activation chain to ``x``.

    ``x`` may be a single vector (in_dim,) or a batch (B, in_dim); the
    result has the matching shape. Deterministic: identical inputs give
    bit-identical outputs.
    """
    a, squeeze = _as_batch(x, m.in_dim)
    out = mlp_activations(m, a)[-1]
    return out[0] if squeeze else out


def mlp_backward(
    m: Mlp, x: np.ndarray, upstream: np.ndarray
) -> tuple[GradientSet, np.ndarray]:
    """Reverse-mode gradients of <upstream, mlp_forward(m, x)>.

    Returns the parameter gradients and the gradient with respect to ``x``.
    For batched inputs the parameter gradients are summed over the batch and
    the input gradient is returned row per row.
    """
    a, squeeze = _as_batch(x, m.in_dim)
    upstream = np.asarray(upstream)
    up, up_squeezed = _as_batch(upstream, m.out_dim)
    if squeeze != up_squeezed or up.shape[0] != a.shape[0]:
        raise InputError("upstream shape does not match forward output shape")
    grads, grad_x = mlp_param_grads(m, mlp_activations(m, a), up, input_grad=True)
    return grads, grad_x[0] if squeeze else grad_x


def softmax(logits: np.ndarray) -> np.ndarray:
    """Stabilized softmax over the last axis."""
    logits = np.asarray(logits)
    if logits.size == 0:
        raise InputError("softmax of empty logits")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray, label) -> tuple[float | np.ndarray, np.ndarray]:
    """Loss and logit gradient for one labeled example or a batch.

    loss = -log softmax(logits)[label], computed with max-subtraction so
    large logits do not overflow; grad = softmax(logits) - onehot(label).
    ``logits`` (C,) with an int ``label`` gives a float loss and a (C,)
    gradient; ``logits`` (B, C) with ``label`` (B,) gives per-row losses
    (B,) and a (B, C) gradient.
    """
    logits = np.asarray(logits)
    labels = np.asarray(label)
    if logits.ndim not in (1, 2) or labels.shape != logits.shape[:-1]:
        raise InputError("logits must be a vector with one label, or rows with one label each")
    if not ((labels >= 0) & (labels < logits.shape[-1])).all():
        raise InputError(f"label {label} out of range for {logits.shape[-1]} classes")
    batch = np.atleast_2d(logits)
    rows = np.arange(batch.shape[0])
    cols = labels.reshape(-1).astype(np.intp)
    shifted = batch - batch.max(axis=1, keepdims=True)
    loss = np.log(np.exp(shifted).sum(axis=1)) - shifted[rows, cols]
    grad = softmax(batch)
    grad[rows, cols] -= 1.0
    if logits.ndim == 1:
        return float(loss[0]), grad[0]
    return loss, grad


class Sgd:
    """Stochastic gradient descent with optional momentum.

    Velocity update v <- momentum * v + g, parameter update p <- p - lr * v.
    ``step`` returns fresh arrays and keeps velocity state internally, so the
    same optimizer instance must be reused across steps.
    """

    def __init__(self, learning_rate: float, momentum: float = 0.0):
        if learning_rate < 0:
            raise InputError("learning rate must be non-negative")
        if not 0.0 <= momentum < 1.0:
            raise InputError("momentum must lie in [0, 1)")
        self.learning_rate = learning_rate
        self.momentum = momentum
        self._velocities: list[np.ndarray] | None = None

    def step(
        self, params: Sequence[np.ndarray], grads: Sequence[np.ndarray]
    ) -> list[np.ndarray]:
        if len(params) != len(grads):
            raise InputError("params and grads length mismatch")
        for p, g in zip(params, grads):
            if p.shape != g.shape:
                raise InputError(f"gradient shape {g.shape} does not match param {p.shape}")
            if not np.isfinite(g).all():
                raise TrainingDivergedError("non-finite gradient entries")
        if self._velocities is None:
            self._velocities = [np.zeros_like(p) for p in params]
        updated = []
        for p, g, v in zip(params, grads, self._velocities):
            v *= self.momentum
            v += g
            updated.append(p - self.learning_rate * v)
            if not np.isfinite(updated[-1]).all():
                raise TrainingDivergedError("update overflowed to non-finite parameters")
        return updated


# --- checkpoint format -----------------------------------------------------
#
# Weights file: magic "TRNW", u32 version, u32 layer count, then per layer
# u32 in_dim, u32 out_dim, u32 activation code (0 none, 1 relu), weights as
# row-major float32 little-endian, bias as float32 little-endian. The
# relation-model checkpoint reuses the per-layer payload (see relation.py).


def write_mlp_payload(fh: BinaryIO, mlp: Mlp) -> None:
    fh.write(struct.pack("<I", len(mlp.layers)))
    for layer in mlp.layers:
        fh.write(
            struct.pack(
                "<III", layer.in_dim, layer.out_dim, _ACT_CODES[layer.activation]
            )
        )
        fh.write(np.ascontiguousarray(layer.weights, dtype="<f4").tobytes())
        fh.write(np.ascontiguousarray(layer.bias, dtype="<f4").tobytes())


class PayloadReader:
    """Binary reader that reports byte offsets in format errors.

    Every read is checked against the bytes left in the file before it is
    attempted, so a header that declares more data than the file holds
    fails as truncation instead of as a huge allocation.
    """

    def __init__(self, fh: BinaryIO):
        self.fh = fh
        self.offset = 0
        start = fh.tell()
        self.size = fh.seek(0, os.SEEK_END) - start
        fh.seek(start)

    def read_exact(self, count: int, what: str) -> bytes:
        left = self.size - self.offset
        if count > left:
            raise FormatError(
                f"truncated file while reading {what}: {count} bytes declared, {left} left",
                offset=self.offset,
            )
        data = self.fh.read(count)
        if len(data) != count:
            raise FormatError(f"truncated file while reading {what}", offset=self.offset)
        self.offset += count
        return data

    def read_u32(self, what: str) -> int:
        return struct.unpack("<I", self.read_exact(4, what))[0]

    def read_f32_array(self, count: int, what: str) -> np.ndarray:
        raw = self.read_exact(4 * count, what)
        return np.frombuffer(raw, dtype="<f4", count=count).astype(_default_dtype)

    def expect_eof(self) -> None:
        if self.fh.read(1):
            raise FormatError("trailing bytes after payload", offset=self.offset)


def read_mlp_payload(reader: PayloadReader) -> Mlp:
    n_layers = reader.read_u32("layer count")
    if n_layers == 0:
        raise FormatError("layer count must be positive", offset=reader.offset - 4)
    layers = []
    for i in range(n_layers):
        in_dim = reader.read_u32(f"layer {i} in_dim")
        out_dim = reader.read_u32(f"layer {i} out_dim")
        act_code = reader.read_u32(f"layer {i} activation")
        if act_code not in _ACT_NAMES:
            raise FormatError(
                f"unknown activation code {act_code}", offset=reader.offset - 4
            )
        w = reader.read_f32_array(in_dim * out_dim, f"layer {i} weights")
        b = reader.read_f32_array(out_dim, f"layer {i} bias")
        layers.append(DenseLayer(w.reshape(out_dim, in_dim), b, _ACT_NAMES[act_code]))
    return Mlp(layers)


def _check_header(reader: PayloadReader) -> None:
    magic = reader.read_exact(4, "magic")
    if magic != WEIGHTS_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {WEIGHTS_MAGIC!r}", offset=0)
    version = reader.read_u32("version")
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}", offset=4)


def save_mlp(path, mlp: Mlp) -> None:
    with open(path, "wb") as fh:
        fh.write(WEIGHTS_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        write_mlp_payload(fh, mlp)


def load_mlp(path) -> Mlp:
    with open(path, "rb") as fh:
        reader = PayloadReader(fh)
        _check_header(reader)
        mlp = read_mlp_payload(reader)
        reader.expect_eof()
    return mlp

