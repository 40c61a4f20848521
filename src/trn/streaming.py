"""Rolling inference over a stream of frame features.

Every ``stride``-th incoming frame is a key frame whose feature enters a
FIFO queue of the model's N most recent key-frame features (each feature is
enqueued exactly once). Once the queue is full, every new key frame emits a
prediction computed exactly like batch inference over the buffered features
in arrival order, so streaming and batch predictions are bit-identical.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import InputError
from .relation import MultiScaleTRN, predict, relation_forward
from .sampling import combination_table


@dataclass
class StreamPrediction:
    class_index: int
    probabilities: np.ndarray
    logits: np.ndarray
    per_scale_logits: dict[int, np.ndarray]
    frames_seen: int


class StreamQueue:
    """FIFO cache of the N most recent key-frame features.

    ``tuple_budget`` caps how many of the lexicographically enumerated
    d-subsets each scale uses (None = all of them; at N <= 8 full
    enumeration tops out at 70 tuples per scale and stays cheap).
    """

    def __init__(self, model: MultiScaleTRN, stride: int = 1, tuple_budget: int | None = None):
        if stride < 1:
            raise InputError("stride must be >= 1")
        if tuple_budget is not None and tuple_budget < 1:
            raise InputError("tuple_budget must be >= 1 when given")
        self.model = model
        self.stride = stride
        self.capacity = model.num_frames
        self.frames_seen = 0
        self.enqueued = 0
        self._buffer: deque[np.ndarray] = deque(maxlen=self.capacity)
        self._slot_sets = {
            d: combination_table(self.capacity, d)[:tuple_budget] for d in model.scales
        }

    def push(self, feature: np.ndarray) -> StreamPrediction | None:
        """Feed one frame; returns a prediction on full-buffer key frames."""
        feature = np.asarray(feature)
        if feature.shape != (self.model.feature_dim,):
            raise InputError(
                f"feature shape {feature.shape} does not match ({self.model.feature_dim},)"
            )
        self.frames_seen += 1
        if self.frames_seen % self.stride != 0:
            return None
        self._buffer.append(feature.astype(self.model.dtype))
        self.enqueued += 1
        if len(self._buffer) < self.capacity:
            return None
        out = relation_forward(self.model, np.stack(self._buffer)[None], self._slot_sets)
        logits = out.logits[0]
        class_index, probs = predict(logits)
        return StreamPrediction(
            class_index=class_index,
            probabilities=probs,
            logits=logits,
            per_scale_logits={d: v[0] for d, v in out.per_scale.items()},
            frames_seen=self.frames_seen,
        )

    def buffered_features(self) -> np.ndarray:
        """Snapshot of the queue contents in arrival order."""
        return np.stack(list(self._buffer)) if self._buffer else np.empty((0, self.model.feature_dim))


def replay_dataset(
    dataset: Dataset,
    model: MultiScaleTRN,
    stride: int = 1,
    tuple_budget: int | None = None,
):
    """Replay each sample frame-by-frame through a fresh queue.

    Yields one record dict per emitted prediction, in replay order.
    """
    for sample_idx, sample in enumerate(dataset.samples):
        queue = StreamQueue(model, stride=stride, tuple_budget=tuple_budget)
        for frame in sample.frames:
            pred = queue.push(frame)
            if pred is None:
                continue
            yield {
                "sample": sample_idx,
                "label": sample.label,
                "frames_seen": pred.frames_seen,
                "predicted": pred.class_index,
                "probabilities": [float(p) for p in pred.probabilities],
            }
