"""Frame and tuple sampling.

Training picks one frame per temporal segment (N near-equal contiguous
segments per video), then per scale d picks k random sorted d-subsets of
the N sampled slots. A brute-force enumerator over all d-subsets doubles
as the testing oracle and as the deterministic test-time tuple source.

The per-video functions (``segment_sample``, ``subsample_tuples``) are the
reference; training and evaluation draw a whole batch at once with
``segment_sample_batch`` and ``draw_slots``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import comb
from typing import Sequence

import numpy as np

from .errors import CombinatorialLimitError, InputError

ENUMERATION_LIMIT = 16  # max N accepted by enumerate_tuples
_CHOICE_LIMIT = 200_000  # above this many subsets, sample by rejection

SAMPLE_MODES = ("random", "center")


@dataclass(frozen=True)
class SamplingPlan:
    """How frames and relation tuples are drawn for one video.

    num_frames is both the number of sampled frames and the top relation
    scale; subsamples is the per-scale tuple budget k.
    """

    num_frames: int = 8
    subsamples: int = 3
    mode: str = "random"

    def __post_init__(self):
        if self.num_frames < 2:
            raise InputError("num_frames must be >= 2")
        if self.subsamples < 1:
            raise InputError("subsamples must be >= 1")
        if self.mode not in SAMPLE_MODES:
            raise InputError(f"mode must be one of {SAMPLE_MODES}, got {self.mode!r}")


def segment_bounds(n: int, num_segments: int) -> list[tuple[int, int]]:
    """(start, length) per segment; the remainder goes to leading segments."""
    if n < 1:
        raise InputError("video length must be >= 1")
    base, extra = divmod(n, num_segments)
    bounds = []
    start = 0
    for i in range(num_segments):
        length = base + (1 if i < extra else 0)
        bounds.append((start, length))
        start += length
    return bounds


def segment_sample(
    n: int, plan: SamplingPlan, rng: np.random.Generator | None = None
) -> list[int]:
    """One frame index per segment, non-decreasing.

    Random mode draws uniformly inside each segment and needs ``rng``;
    center mode takes each segment's midpoint (start + len // 2) and is a
    pure function of (n, num_frames). Segments left empty by short videos
    reuse the nearest earlier index, so duplicates appear only when
    n < num_frames.
    """
    if n < 1:
        raise InputError("video length must be >= 1")
    if plan.mode == "random" and rng is None:
        raise InputError("random mode requires a generator")
    indices: list[int] = []
    for start, length in segment_bounds(n, plan.num_frames):
        if length == 0:
            indices.append(indices[-1])
        elif plan.mode == "center":
            indices.append(start + length // 2)
        else:
            indices.append(int(rng.integers(start, start + length)))
    return indices


def enumerate_tuples(num_frames: int, d: int) -> list[tuple[int, ...]]:
    """All C(N, d) sorted d-subsets of slots 0..N-1, lexicographic."""
    if num_frames > ENUMERATION_LIMIT:
        raise CombinatorialLimitError(
            f"enumeration capped at N <= {ENUMERATION_LIMIT}, got {num_frames}"
        )
    if not 2 <= d <= num_frames:
        raise InputError(f"need 2 <= d <= N, got d={d}, N={num_frames}")
    return list(itertools.combinations(range(num_frames), d))


@functools.lru_cache(maxsize=None)
def combination_table(num_frames: int, d: int) -> np.ndarray:
    """``enumerate_tuples(num_frames, d)`` as a read-only (C(N, d), d) array.

    Built once per (N, d); the cache is bounded by ``ENUMERATION_LIMIT``.
    """
    table = np.array(enumerate_tuples(num_frames, d), dtype=np.intp)
    table.flags.writeable = False
    return table


def subsample_tuples(
    frames: Sequence[int],
    d: int,
    k: int,
    rng: np.random.Generator | None = None,
) -> list[tuple[int, ...]]:
    """min(k, C(N, d)) distinct sorted d-subsets of the sampled frames.

    Subsets are chosen uniformly without replacement among the slot
    combinations and returned in lexicographic slot order, mapped through
    ``frames``; with k >= C(N, d) this is exactly the full enumeration.
    For d = N the single full set is returned.
    """
    frames = list(frames)
    n_frames = len(frames)
    if not 2 <= d <= n_frames:
        raise InputError(f"need 2 <= d <= N, got d={d}, N={n_frames}")
    if k < 1:
        raise InputError("k must be >= 1")
    total = comb(n_frames, d)
    if k >= total:
        combos = list(itertools.combinations(range(n_frames), d))
    elif total <= _CHOICE_LIMIT:
        if rng is None:
            raise InputError("subsampling requires a generator")
        all_combos = list(itertools.combinations(range(n_frames), d))
        picked = rng.choice(total, size=k, replace=False)
        combos = [all_combos[i] for i in sorted(picked)]
    else:
        if rng is None:
            raise InputError("subsampling requires a generator")
        seen: set[tuple[int, ...]] = set()
        while len(seen) < k:
            seen.add(tuple(sorted(rng.choice(n_frames, size=d, replace=False).tolist())))
        combos = sorted(seen)
    return [tuple(frames[i] for i in combo) for combo in combos]


def tuples_per_video(plan: SamplingPlan) -> int:
    """Total relation tuples one training example produces across scales."""
    return sum(min(plan.subsamples, comb(plan.num_frames, d)) for d in range(2, plan.num_frames + 1))


def segment_sample_batch(
    lengths: Sequence[int],
    num_segments: int,
    mode: str,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """``segment_sample`` for a batch of videos: (B, num_segments) indices.

    Row b holds one frame index per segment of a video with ``lengths[b]``
    frames, with the same segments, center rule and short-video reuse of
    the nearest earlier index as ``segment_sample``. Random mode draws all
    rows at once from ``rng``.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.ndim != 1 or (lengths < 1).any():
        raise InputError("video lengths must be a vector of values >= 1")
    if mode not in SAMPLE_MODES:
        raise InputError(f"mode must be one of {SAMPLE_MODES}, got {mode!r}")
    if mode == "random" and rng is None:
        raise InputError("random mode requires a generator")
    seg = np.arange(num_segments)
    base, extra = np.divmod(lengths[:, None], num_segments)
    starts = seg * base + np.minimum(seg, extra)
    sizes = base + (seg < extra)
    if mode == "center":
        picked = starts + sizes // 2
    else:
        picked = starts + rng.integers(0, np.maximum(sizes, 1))
    # an empty segment only follows the last frame, which sits at start - 1
    return np.where(sizes == 0, starts - 1, picked)


def draw_slots(
    num_frames: int,
    d: int,
    k: int,
    batch: int,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """``subsample_tuples`` over slots 0..N-1 for ``batch`` videos at once.

    Returns (batch, min(k, C(N, d)), d) slot indices: per video, distinct
    rows of :func:`combination_table` in lexicographic order, chosen
    uniformly without replacement (the first k of a random permutation of
    the rows). With k >= C(N, d) every video gets the full table and no
    random numbers are drawn.
    """
    if k < 1:
        raise InputError("k must be >= 1")
    table = combination_table(num_frames, d)
    total = table.shape[0]
    if k >= total:
        return np.broadcast_to(table, (batch, total, d))
    if rng is None:
        raise InputError("subsampling requires a generator")
    rows = np.sort(np.argsort(rng.random((batch, total)), axis=1)[:, :k], axis=1)
    return table[rows]
