"""End-to-end training and evaluation.

Supports the relation model plus the two order-blind baselines: an
average-pool head (mean of the sampled frame features, so any frame
permutation is invisible to it) and a single-frame head (random frame at
training time, the center frame at evaluation). Training is sequential and
fully deterministic given (config, seed, dataset); evaluation always uses
deterministic-center frame sampling.

Both work a batch at a time: one gather of the sampled frame features
(B, N, D), per scale one slot-index array (B, k, d), then a few GEMMs per
scale (see :func:`trn.relation.relation_forward`). A single-frame head is
an average-pool head over one sampled segment, so one loop serves every
pooling.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from . import nn
from .data import Dataset
from .errors import InputError, TrainingDivergedError
from .relation import MultiScaleTRN, relation_backward, relation_forward
from .sampling import SamplingPlan, draw_slots, segment_sample_batch

POOLINGS = ("temporal-relation", "average-pool", "single-frame")
FRAME_ORDERS = ("ordered", "shuffled")
EVAL_BATCH = 256  # videos per evaluation batch; bounds the gathered tuple rows


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 32
    learning_rate: float = 0.08
    momentum: float = 0.9
    seed: int = 0
    plan: SamplingPlan = field(default_factory=SamplingPlan)
    pooling: str = "temporal-relation"
    frame_order: str = "ordered"
    g_dropout: float = 0.0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise InputError("epochs and batch_size must be positive")
        if self.learning_rate < 0:
            raise InputError("learning_rate must be non-negative")
        if self.pooling not in POOLINGS:
            raise InputError(f"pooling must be one of {POOLINGS}, got {self.pooling!r}")
        if self.frame_order not in FRAME_ORDERS:
            raise InputError(
                f"frame_order must be one of {FRAME_ORDERS}, got {self.frame_order!r}"
            )
        if not 0.0 <= self.g_dropout < 1.0:
            raise InputError("g_dropout must lie in [0, 1)")


@dataclass
class EpochStats:
    epoch: int
    loss: float
    accuracy: float


@dataclass
class EvalReport:
    """Accuracy summary; top5 is None when there are 5 or fewer classes."""

    top1: float
    top5: float | None
    per_class_accuracy: np.ndarray
    confusion: np.ndarray  # counts, rows = true class, columns = predicted
    num_samples: int

    def top1_from_confusion(self) -> float:
        return float(np.trace(self.confusion)) / float(self.confusion.sum())

    def class_counts(self) -> np.ndarray:
        return self.confusion.sum(axis=1)

    def to_records(self) -> list[dict]:
        rows = []
        for c in range(self.confusion.shape[0]):
            rows.append(
                {
                    "class": c,
                    "count": int(self.class_counts()[c]),
                    "accuracy": float(self.per_class_accuracy[c]),
                }
            )
        return rows


def rng_streams(seed: int) -> dict[str, np.random.Generator]:
    """Independent deterministic streams for each source of randomness."""
    children = np.random.SeedSequence(seed).spawn(5)
    names = ("init", "order", "sample", "shuffle", "dropout")
    return {n: np.random.default_rng(c) for n, c in zip(names, children)}


class FrameBank:
    """Every video's frames in one array of the model dtype, so the sampled
    features of a whole batch are one gather.

    Every relation tuple reuses rows of that gather, which is the budget
    argument: tuples at all scales share the N fetched features.
    """

    def __init__(self, dataset: Dataset, dtype):
        self.lengths = np.array([s.num_frames for s in dataset.samples])
        self.starts = np.cumsum(self.lengths) - self.lengths
        self.labels = dataset.labels()
        self.frames = np.concatenate([s.frames for s in dataset.samples]).astype(dtype, copy=False)

    def gather(self, videos: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Features (B, N, D) of frame ``indices[b, i]`` of video ``videos[b]``."""
        return self.frames[self.starts[videos][:, None] + indices]

    def sample(
        self,
        videos: np.ndarray,
        segments: int,
        mode: str,
        sample_rng: np.random.Generator | None = None,
        shuffle_rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Segment-sample each video and gather the features; with a
        ``shuffle_rng`` each video's sampled frames are randomly permuted."""
        idx = segment_sample_batch(self.lengths[videos], segments, mode, sample_rng)
        if shuffle_rng is not None:
            perm = np.argsort(shuffle_rng.random(idx.shape), axis=1)
            idx = np.take_along_axis(idx, perm, axis=1)
        return self.gather(videos, idx)


def _segments(plan: SamplingPlan, pooling: str) -> int:
    return 1 if pooling == "single-frame" else plan.num_frames


def batch_forward(
    model,
    feats: np.ndarray,
    slots: Mapping[int, np.ndarray] | None = None,
    g_masks: Mapping[int, np.ndarray] | None = None,
):
    """Logits (B, C) for sampled features (B, N, D), plus what
    :func:`batch_backward` needs: the relation model over ``slots``, or an
    MLP head over the mean of the N features."""
    if isinstance(model, MultiScaleTRN):
        out = relation_forward(model, feats, slots, g_masks)
        return out.logits, out
    acts = nn.mlp_activations(model, feats.mean(axis=1))
    return acts[-1], acts


def batch_backward(model, cache, upstream: np.ndarray) -> list[np.ndarray]:
    """Parameter gradients of <upstream, logits>, summed over the batch."""
    if isinstance(model, MultiScaleTRN):
        return relation_backward(model, cache, upstream)
    return nn.mlp_param_grads(model, cache, upstream)[0].flat()


def build_model(
    feature_dim: int,
    num_classes: int,
    config: TrainConfig,
    hidden_dim: int = 64,
    rng: np.random.Generator | None = None,
):
    """Model for the configured pooling: a relation model, or an MLP head
    of matching capacity over the pooled feature for the baselines."""
    rng = rng if rng is not None else rng_streams(config.seed)["init"]
    if config.pooling == "temporal-relation":
        return MultiScaleTRN.create(
            feature_dim, num_classes, config.plan.num_frames, hidden_dim, rng
        )
    return nn.Mlp(
        [
            nn.DenseLayer.init_random(feature_dim, hidden_dim, "relu", rng),
            nn.DenseLayer.init_random(hidden_dim, hidden_dim, "relu", rng),
            nn.DenseLayer.init_random(hidden_dim, num_classes, "none", rng),
        ]
    )


def _model_dims(model) -> tuple[int, int]:
    if isinstance(model, MultiScaleTRN):
        return model.feature_dim, model.num_classes
    return model.in_dim, model.out_dim


def _check_model_dataset(model, dataset: Dataset, plan: SamplingPlan, pooling: str) -> None:
    if not len(dataset):
        raise InputError("dataset is empty")
    feature_dim, num_classes = _model_dims(model)
    if dataset.feature_dim != feature_dim:
        raise InputError(
            f"dataset feature dim {dataset.feature_dim} != model dim {feature_dim}"
        )
    max_label = int(dataset.labels().max())
    if max_label >= num_classes:
        raise InputError(f"label {max_label} out of range for {num_classes} classes")
    if pooling == "temporal-relation":
        if not isinstance(model, MultiScaleTRN):
            raise InputError("temporal-relation pooling needs a MultiScaleTRN")
        if model.num_frames != plan.num_frames:
            raise InputError(
                f"plan samples {plan.num_frames} frames but model expects {model.num_frames}"
            )
    elif isinstance(model, MultiScaleTRN):
        raise InputError(f"{pooling} pooling needs a plain MLP head")


def train(
    model, dataset: Dataset, config: TrainConfig
) -> tuple[object, list[EpochStats]]:
    """Train in place; returns the model and per-epoch loss/accuracy.

    Per step, for the whole batch at once: segment-sample every video (one
    random frame for single-frame), draw k tuple slots per scale and the
    optional g dropout masks (relation pooling), forward, cross-entropy,
    backward, and one optimizer step on the batch-mean gradient. Shuffled
    frame order permutes each sampled index set before tuples are formed.
    """
    _check_model_dataset(model, dataset, config.plan, config.pooling)
    streams = rng_streams(config.seed)
    order_rng = streams["order"]
    sample_rng = streams["sample"]
    shuffle_rng = streams["shuffle"] if config.frame_order == "shuffled" else None
    dropout_rng = streams["dropout"]

    optimizer = nn.Sgd(config.learning_rate, config.momentum)
    params = model.parameters()
    dtype = params[0].dtype
    bank = FrameBank(dataset, dtype)
    relational = isinstance(model, MultiScaleTRN)
    plan = config.plan
    segments = _segments(plan, config.pooling)
    mode = "random" if config.pooling == "single-frame" else plan.mode
    rate = config.g_dropout
    history: list[EpochStats] = []
    step = 0
    for epoch in range(config.epochs):
        order = order_rng.permutation(len(dataset))
        loss_sum = 0.0
        correct = 0
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            step += 1
            feats = bank.sample(batch, segments, mode, sample_rng, shuffle_rng)
            slots = masks = None
            if relational:
                slots = {
                    d: draw_slots(plan.num_frames, d, plan.subsamples, len(batch), sample_rng)
                    for d in model.scales
                }
                if rate > 0:
                    masks = {
                        d: (dropout_rng.random((len(batch) * s.shape[1], model.hidden_dim)) >= rate)
                        .astype(dtype)
                        / (1.0 - rate)
                        for d, s in slots.items()
                    }
            logits, cache = batch_forward(model, feats, slots, masks)
            labels = bank.labels[batch]
            losses, dlogits = nn.softmax_cross_entropy(logits, labels)
            if not np.isfinite(losses).all():
                raise TrainingDivergedError("non-finite training loss", step=step)
            loss_sum += float(losses.sum())
            correct += int((np.argmax(logits, axis=1) == labels).sum())
            grads = batch_backward(model, cache, dlogits / len(batch))
            params = optimizer.step(params, grads)
            model.set_parameters(params)
        history.append(
            EpochStats(epoch=epoch, loss=loss_sum / len(order), accuracy=correct / len(order))
        )
    return model, history


def evaluate(
    model,
    dataset: Dataset,
    plan: SamplingPlan,
    pooling: str = "temporal-relation",
    frame_order: str = "ordered",
    shuffle_seed: int = 0,
    tuple_seed: int = 0,
) -> EvalReport:
    """Deterministic evaluation with center frame sampling.

    Relation pooling reuses one fixed set of tuple slots (drawn once from
    ``tuple_seed`` with the training budget) for every video; average-pool
    feeds the mean of the sampled features to the head; single-frame uses
    the video's center frame only. Shuffled frame order permutes each
    sampled feature set with a generator seeded by ``shuffle_seed``.
    Videos run in batches of ``EVAL_BATCH``.
    """
    if pooling not in POOLINGS:
        raise InputError(f"pooling must be one of {POOLINGS}, got {pooling!r}")
    if frame_order not in FRAME_ORDERS:
        raise InputError(f"frame_order must be one of {FRAME_ORDERS}")
    _check_model_dataset(model, dataset, plan, pooling)
    _, num_classes = _model_dims(model)
    bank = FrameBank(dataset, model.parameters()[0].dtype)
    segments = _segments(plan, pooling)

    slots = None
    if pooling == "temporal-relation":
        tuple_rng = np.random.default_rng(tuple_seed)
        slots = {
            d: draw_slots(plan.num_frames, d, plan.subsamples, 1, tuple_rng) for d in model.scales
        }

    shuffle_rng = np.random.default_rng(shuffle_seed) if frame_order == "shuffled" else None
    confusion = np.zeros((num_classes, num_classes), dtype=np.int64)
    top5_hits = 0
    for start in range(0, len(dataset), EVAL_BATCH):
        videos = np.arange(start, min(start + EVAL_BATCH, len(dataset)))
        feats = bank.sample(videos, segments, "center", shuffle_rng=shuffle_rng)
        logits, _ = batch_forward(model, feats, slots)
        labels = bank.labels[videos]
        np.add.at(confusion, (labels, np.argmax(logits, axis=1)), 1)
        if num_classes > 5:
            ranked = np.argsort(-logits, axis=1, kind="stable")[:, :5]
            top5_hits += int((ranked == labels[:, None]).any(axis=1).sum())
    total = confusion.sum()
    counts = confusion.sum(axis=1)
    per_class = np.zeros(num_classes, dtype=np.float64)
    present = counts > 0
    per_class[present] = np.diag(confusion)[present] / counts[present]
    return EvalReport(
        top1=float(np.trace(confusion)) / float(total),
        top5=(top5_hits / float(total)) if num_classes > 5 else None,
        per_class_accuracy=per_class,
        confusion=confusion,
        num_samples=int(total),
    )


def fit(
    dataset: Dataset, config: TrainConfig, hidden_dim: int = 64
) -> tuple[object, list[EpochStats]]:
    """Build a fresh model from the config seed and train it."""
    model = build_model(
        dataset.feature_dim,
        dataset.num_classes,
        config,
        hidden_dim,
        rng_streams(config.seed)["init"],
    )
    return train(model, dataset, config)


def compare_poolings(
    train_set: Dataset,
    val_set: Dataset,
    config: TrainConfig,
    scales: Sequence[int] = (2, 3, 4, 5),
    poolings: Sequence[str] = ("temporal-relation", "average-pool"),
    hidden_dim: int = 64,
) -> list[dict]:
    """Top-1 per (pooling, frame count): one model per grid cell, all cells
    sharing the config seed. ``single-frame`` contributes one scale-1 row."""
    rows = []
    for pooling in poolings:
        if pooling == "single-frame":
            cfg = replace(config, pooling=pooling)
            model, _ = fit(train_set, cfg, hidden_dim)
            report = evaluate(model, val_set, cfg.plan, pooling)
            rows.append({"pooling": pooling, "scale": 1, "top1": report.top1})
            continue
        for scale in scales:
            plan = replace(config.plan, num_frames=scale)
            cfg = replace(config, plan=plan, pooling=pooling)
            model, _ = fit(train_set, cfg, hidden_dim)
            report = evaluate(model, val_set, plan, pooling)
            rows.append({"pooling": pooling, "scale": scale, "top1": report.top1})
    return rows
