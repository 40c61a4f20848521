"""Multi-scale temporal relation modules.

A scale-d relation term concatenates the features of d ordered frames,
maps every such tuple through a two-layer ReLU MLP ``g``, sums the results
over the sampled tuple set, and applies a single affine classifier head
``h`` to the sum. The multi-scale model keeps one independent relation
module per scale d in {2..N} and adds the per-scale class scores
element-wise (fusion happens at the logit level, before softmax).

``relation_forward``/``relation_backward`` run a whole batch: features
(B, N, D) plus per scale a slot-index array (B, k, d). The ``FrameTuple``
functions (``multiscale_forward``, ``multiscale_backward``) work on one
video; ``multiscale_backward`` is the reference the batched gradients are
tested against, and the only one that returns frame-feature gradients.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import nn
from .errors import FormatError, InputError


@dataclass(frozen=True)
class FrameTuple:
    """d ordered frames: strictly increasing positions plus their features."""

    indices: tuple[int, ...]
    features: np.ndarray  # shape (d, feature_dim)

    def __post_init__(self):
        if len(self.indices) < 2:
            raise InputError("a frame tuple needs at least 2 frames")
        if any(a >= b for a, b in zip(self.indices, self.indices[1:])):
            raise InputError(f"tuple indices must be strictly increasing: {self.indices}")
        feats = np.asarray(self.features)
        if feats.ndim != 2 or feats.shape[0] != len(self.indices):
            raise InputError("features must be one row per tuple index")
        object.__setattr__(self, "features", feats)

    @property
    def scale(self) -> int:
        return len(self.indices)


class RelationModule:
    """Relation term for one scale: ``h(sum_tuples g(concat(features)))``."""

    def __init__(self, scale: int, g: nn.Mlp, h: nn.Mlp):
        if scale < 2:
            raise InputError("relation scale must be >= 2")
        if g.in_dim % scale != 0:
            raise InputError(f"g input dim {g.in_dim} is not divisible by scale {scale}")
        if g.out_dim != h.in_dim:
            raise InputError("g output dim must match h input dim")
        self.scale = scale
        self.g = g
        self.h = h

    @property
    def feature_dim(self) -> int:
        return self.g.in_dim // self.scale

    @property
    def hidden_dim(self) -> int:
        return self.g.out_dim

    @property
    def num_classes(self) -> int:
        return self.h.out_dim

    @classmethod
    def create(
        cls,
        scale: int,
        feature_dim: int,
        num_classes: int,
        hidden_dim: int = 256,
        rng: np.random.Generator | None = None,
    ) -> "RelationModule":
        """Fresh module: g is a two-layer ReLU MLP, h a single affine layer."""
        rng = rng if rng is not None else np.random.default_rng()
        g = nn.Mlp(
            [
                nn.DenseLayer.init_random(scale * feature_dim, hidden_dim, "relu", rng),
                nn.DenseLayer.init_random(hidden_dim, hidden_dim, "relu", rng),
            ]
        )
        h = nn.Mlp([nn.DenseLayer.init_random(hidden_dim, num_classes, "none", rng)])
        return cls(scale, g, h)

    def parameters(self) -> list[np.ndarray]:
        return self.g.parameters() + self.h.parameters()

    def set_parameters(self, params: Sequence[np.ndarray]) -> None:
        split = 2 * len(self.g.layers)
        self.g.set_parameters(params[:split])
        self.h.set_parameters(params[split:])


@dataclass
class ModuleGradients:
    g: nn.GradientSet
    h: nn.GradientSet

    def flat(self) -> list[np.ndarray]:
        return self.g.flat() + self.h.flat()


class MultiScaleOutput(NamedTuple):
    logits: np.ndarray
    per_scale: dict[int, np.ndarray]


@dataclass
class MultiScaleGradients:
    """Gradients for every relation module plus the shared frame features."""

    modules: dict[int, ModuleGradients]
    features: dict[int, np.ndarray]  # keyed by frame position

    def flat(self) -> list[np.ndarray]:
        return [arr for d in sorted(self.modules) for arr in self.modules[d].flat()]


def _stack_tuples(rm: RelationModule, tuples: Sequence[FrameTuple]) -> np.ndarray:
    if not tuples:
        raise InputError("tuple set must be non-empty")
    rows = []
    for t in tuples:
        if t.scale != rm.scale:
            raise InputError(f"tuple arity {t.scale} does not match module scale {rm.scale}")
        if t.features.shape[1] != rm.feature_dim:
            raise InputError(
                f"feature dim {t.features.shape[1]} does not match module dim {rm.feature_dim}"
            )
        rows.append(t.features.reshape(-1))
    return np.stack(rows)


class TermCache(NamedTuple):
    """Activations of one relation term over a batch, kept for backward."""

    g_acts: list[np.ndarray]  # tuple rows (B*k, d*D), then each g layer's output
    h_acts: list[np.ndarray]  # hidden sums (B, H), then each h layer's output
    g_mask: np.ndarray | None


def relation_term(
    rm: RelationModule, x: np.ndarray, batch: int, g_mask: np.ndarray | None = None
) -> tuple[np.ndarray, TermCache]:
    """One relation term for a batch of videos: the shared kernel.

    ``x`` holds k concatenated d-tuples per video, video-major, shape
    (batch*k, d*feature_dim). g runs once over every row, each video's k
    rows are summed, and h maps the sums to class scores (batch,
    num_classes). ``g_mask``, when given, multiplies the g outputs row by
    row (training dropout). Training, evaluation, streaming and
    ``multiscale_forward`` all run this kernel, so a stream prediction and
    ``multiscale_forward`` over the same window agree bit for bit.
    """
    g_acts = nn.mlp_activations(rm.g, x)
    g_out = g_acts[-1] if g_mask is None else g_acts[-1] * g_mask
    hidden = g_out.reshape(batch, -1, rm.hidden_dim).sum(axis=1)
    h_acts = nn.mlp_activations(rm.h, hidden)
    return h_acts[-1], TermCache(g_acts, h_acts, g_mask)


def relation_hidden_sum(
    rm: RelationModule,
    tuples: Sequence[FrameTuple],
    g_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Sum of g over the tuple set: the pre-head hidden vector."""
    _, cache = relation_term(rm, _stack_tuples(rm, tuples), 1, g_mask)
    return cache.h_acts[0][0]


def relation_term_forward(
    rm: RelationModule,
    tuples: Sequence[FrameTuple],
    g_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Class scores of one relation term over its sampled tuples.

    ``g_mask``, when given, is an elementwise multiplier on the per-tuple g
    outputs (shape: num_tuples x hidden_dim); training uses it for optional
    dropout, inference leaves it None.
    """
    return relation_term(rm, _stack_tuples(rm, tuples), 1, g_mask)[0][0]


def _check_scales(trn: "MultiScaleTRN", tuples_by_scale: Mapping[int, Sequence[FrameTuple]]):
    want = set(trn.scales)
    have = set(tuples_by_scale)
    if have != want:
        missing = sorted(want - have)
        extra = sorted(have - want)
        parts = []
        if missing:
            parts.append(f"missing scales {missing}")
        if extra:
            parts.append(f"unknown scales {extra}")
        raise InputError("; ".join(parts))


class MultiScaleTRN:
    """One relation module per scale 2..N over shared frame features."""

    def __init__(self, modules: Mapping[int, RelationModule]):
        scales = sorted(modules)
        if not scales or scales[0] != 2 or scales != list(range(2, scales[-1] + 1)):
            raise InputError(f"scales must be exactly 2..N with no gaps, got {scales}")
        first = modules[scales[0]]
        for d in scales:
            m = modules[d]
            if m.scale != d:
                raise InputError(f"module registered at scale {d} reports scale {m.scale}")
            if m.feature_dim != first.feature_dim or m.num_classes != first.num_classes:
                raise InputError("all modules must share feature_dim and num_classes")
        self.modules = {d: modules[d] for d in scales}

    @property
    def scales(self) -> list[int]:
        return sorted(self.modules)

    @property
    def num_frames(self) -> int:
        return self.scales[-1]

    @property
    def feature_dim(self) -> int:
        return self.modules[2].feature_dim

    @property
    def num_classes(self) -> int:
        return self.modules[2].num_classes

    @property
    def hidden_dim(self) -> int:
        return self.modules[2].hidden_dim

    @property
    def dtype(self) -> np.dtype:
        return self.modules[2].g.dtype

    @classmethod
    def create(
        cls,
        feature_dim: int,
        num_classes: int,
        num_frames: int,
        hidden_dim: int = 256,
        rng: np.random.Generator | None = None,
    ) -> "MultiScaleTRN":
        rng = rng if rng is not None else np.random.default_rng()
        if num_frames < 2:
            raise InputError("num_frames must be >= 2")
        modules = {
            d: RelationModule.create(d, feature_dim, num_classes, hidden_dim, rng)
            for d in range(2, num_frames + 1)
        }
        return cls(modules)

    def parameters(self) -> list[np.ndarray]:
        """Canonical order: ascending scale, g before h, weights before bias."""
        return [p for d in self.scales for p in self.modules[d].parameters()]

    def set_parameters(self, params: Sequence[np.ndarray]) -> None:
        pos = 0
        for d in self.scales:
            count = len(self.modules[d].parameters())
            self.modules[d].set_parameters(params[pos : pos + count])
            pos += count
        if pos != len(params):
            raise InputError("parameter count mismatch")

    def astype(self, dtype) -> "MultiScaleTRN":
        return MultiScaleTRN(
            {
                d: RelationModule(d, m.g.astype(dtype), m.h.astype(dtype))
                for d, m in self.modules.items()
            }
        )


class BatchOutput(NamedTuple):
    """Batched multi-scale logits (B, C), per-scale terms and their caches."""

    logits: np.ndarray
    per_scale: dict[int, np.ndarray]
    terms: dict[int, TermCache]


def _fuse(per_scale: Mapping[int, np.ndarray]) -> np.ndarray:
    total = np.zeros_like(per_scale[2])
    for d in sorted(per_scale):
        total = total + per_scale[d]
    return total


def gather_tuples(feats: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Tuple rows for a batch: (B*k, d*D) from features (B, N, D) and slot
    indices (B, k, d), or (k, d) shared by every video."""
    batch = feats.shape[0]
    rows = feats[np.arange(batch)[:, None, None], slots]
    return rows.reshape(-1, rows.shape[-2] * rows.shape[-1])


def relation_forward(
    trn: MultiScaleTRN,
    feats: np.ndarray,
    slots: Mapping[int, np.ndarray],
    g_masks: Mapping[int, np.ndarray] | None = None,
) -> BatchOutput:
    """Multi-scale logits for a batch of videos.

    ``feats`` (B, N, D) holds each video's sampled frame features; per
    scale d, ``slots[d]`` (B, k_d, d) or (k_d, d) picks the tuples as slot
    positions 0..N-1, and ``g_masks[d]``, when given, is a (B*k_d, H)
    multiplier on the g outputs.
    """
    _check_scales(trn, slots)
    feats = np.asarray(feats)
    if feats.ndim != 3 or feats.shape[2] != trn.feature_dim:
        raise InputError(
            f"features must be (batch, frames, {trn.feature_dim}), got {feats.shape}"
        )
    per_scale: dict[int, np.ndarray] = {}
    terms: dict[int, TermCache] = {}
    for d in trn.scales:
        if slots[d].shape[-1] != d:
            raise InputError(f"scale {d} slots have arity {slots[d].shape[-1]}")
        mask = g_masks.get(d) if g_masks is not None else None
        x = gather_tuples(feats, slots[d])
        per_scale[d], terms[d] = relation_term(trn.modules[d], x, feats.shape[0], mask)
    return BatchOutput(_fuse(per_scale), per_scale, terms)


def relation_backward(
    trn: MultiScaleTRN, out: BatchOutput, upstream: np.ndarray
) -> list[np.ndarray]:
    """Parameter gradients of <upstream, out.logits>, summed over the batch,
    in :meth:`MultiScaleTRN.parameters` order.

    Reuses the activations ``relation_forward`` cached, so g runs once per
    tuple. Frame-feature gradients are not computed; ``multiscale_backward``
    is the per-video reference that has them.
    """
    grads: list[np.ndarray] = []
    for d in trn.scales:
        rm = trn.modules[d]
        g_acts, h_acts, mask = out.terms[d]
        h_grads, d_hidden = nn.mlp_param_grads(rm.h, h_acts, upstream, input_grad=True)
        d_gout = np.repeat(d_hidden, g_acts[0].shape[0] // d_hidden.shape[0], axis=0)
        if mask is not None:
            d_gout = d_gout * mask
        g_grads, _ = nn.mlp_param_grads(rm.g, g_acts, d_gout)
        grads += g_grads.flat() + h_grads.flat()
    return grads


def multiscale_forward(
    trn: MultiScaleTRN,
    tuples_by_scale: Mapping[int, Sequence[FrameTuple]],
    g_masks: Mapping[int, np.ndarray] | None = None,
) -> MultiScaleOutput:
    """Element-wise sum of the per-scale relation terms.

    Every scale 2..N must come with a non-empty tuple set. The per-scale
    logits are returned alongside their sum for analysis. This is the
    one-video ``FrameTuple`` form of :func:`relation_forward`: it runs the
    same kernel on the stacked tuple features.
    """
    _check_scales(trn, tuples_by_scale)
    per_scale = {}
    for d in trn.scales:
        mask = g_masks.get(d) if g_masks is not None else None
        per_scale[d] = relation_term_forward(trn.modules[d], tuples_by_scale[d], mask)
    return MultiScaleOutput(_fuse(per_scale), per_scale)


def multiscale_backward(
    trn: MultiScaleTRN,
    tuples_by_scale: Mapping[int, Sequence[FrameTuple]],
    upstream: np.ndarray,
    g_masks: Mapping[int, np.ndarray] | None = None,
) -> MultiScaleGradients:
    """Exact reverse-mode gradients of <upstream, multiscale logits>.

    Returns per-module parameter gradients plus the gradient of every frame
    feature, accumulated over all tuples (at all scales) the frame appears
    in, keyed by frame position.
    """
    _check_scales(trn, tuples_by_scale)
    upstream = np.asarray(upstream)
    if upstream.shape != (trn.num_classes,):
        raise InputError(
            f"upstream shape {upstream.shape} does not match ({trn.num_classes},)"
        )
    module_grads: dict[int, ModuleGradients] = {}
    feature_grads: dict[int, np.ndarray] = {}
    for d in trn.scales:
        rm = trn.modules[d]
        tuples = tuples_by_scale[d]
        stacked = _stack_tuples(rm, tuples)
        g_out = nn.mlp_forward(rm.g, stacked)
        mask = g_masks.get(d) if g_masks is not None else None
        hidden = (g_out * mask if mask is not None else g_out).sum(axis=0)

        h_grads, d_hidden = nn.mlp_backward(rm.h, hidden, upstream)
        d_gout = np.broadcast_to(d_hidden, g_out.shape)
        if mask is not None:
            d_gout = d_gout * mask
        g_grads, d_stacked = nn.mlp_backward(rm.g, stacked, np.ascontiguousarray(d_gout))
        module_grads[d] = ModuleGradients(g_grads, h_grads)

        per_frame = d_stacked.reshape(len(tuples), d, rm.feature_dim)
        for t_idx, t in enumerate(tuples):
            for slot, frame_pos in enumerate(t.indices):
                if frame_pos in feature_grads:
                    feature_grads[frame_pos] = feature_grads[frame_pos] + per_frame[t_idx, slot]
                else:
                    feature_grads[frame_pos] = per_frame[t_idx, slot].copy()
    return MultiScaleGradients(module_grads, feature_grads)


def predict(logits: np.ndarray) -> tuple[int, np.ndarray]:
    """Argmax class (ties go to the lowest index) and softmax probabilities."""
    logits = np.asarray(logits)
    if logits.ndim != 1 or logits.size == 0:
        raise InputError("logits must be a non-empty vector")
    return int(np.argmax(logits)), nn.softmax(logits)


# --- model checkpoint ------------------------------------------------------
#
# Header after magic+version: u32 feature_dim, u32 hidden_dim, u32
# num_classes, u32 num_frames; then per scale (ascending) the g payload and
# the h payload in the weights-file per-layer layout.


def save_model(path, trn: MultiScaleTRN) -> None:
    with open(path, "wb") as fh:
        fh.write(nn.WEIGHTS_MAGIC)
        fh.write(struct.pack("<I", nn.CHECKPOINT_VERSION))
        fh.write(
            struct.pack(
                "<IIII",
                trn.feature_dim,
                trn.hidden_dim,
                trn.num_classes,
                trn.num_frames,
            )
        )
        for d in trn.scales:
            nn.write_mlp_payload(fh, trn.modules[d].g)
            nn.write_mlp_payload(fh, trn.modules[d].h)


def load_model(path) -> MultiScaleTRN:
    with open(path, "rb") as fh:
        reader = nn.PayloadReader(fh)
        magic = reader.read_exact(4, "magic")
        if magic != nn.WEIGHTS_MAGIC:
            raise FormatError(f"bad magic {magic!r}", offset=0)
        version = reader.read_u32("version")
        if version != nn.CHECKPOINT_VERSION:
            raise FormatError(f"unsupported checkpoint version {version}", offset=4)
        feature_dim = reader.read_u32("feature_dim")
        hidden_dim = reader.read_u32("hidden_dim")
        num_classes = reader.read_u32("num_classes")
        num_frames = reader.read_u32("num_frames")
        if min(feature_dim, hidden_dim, num_classes) < 1 or num_frames < 2:
            raise FormatError(
                f"bad model header ({feature_dim}, {hidden_dim}, {num_classes}, {num_frames})",
                offset=8,
            )
        modules = {}
        for d in range(2, num_frames + 1):
            g = nn.read_mlp_payload(reader)
            h = nn.read_mlp_payload(reader)
            rm = RelationModule(d, g, h)
            if (
                rm.feature_dim != feature_dim
                or rm.hidden_dim != hidden_dim
                or rm.num_classes != num_classes
            ):
                raise FormatError(
                    f"scale {d} module dims disagree with header", offset=reader.offset
                )
            modules[d] = rm
        reader.expect_eof()
    return MultiScaleTRN(modules)
