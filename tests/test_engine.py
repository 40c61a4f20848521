"""The batched engine against the per-video code it replaced.

``multiscale_forward``/``multiscale_backward`` (one video, ``FrameTuple``
lists), ``nn.mlp_backward`` (one pooled vector) and ``segment_sample``/
``subsample_tuples`` are the references. Gradient comparisons run in
float64: in float32 the summation order alone moves tiny entries by a
relative 1e-3.
"""

from math import comb

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from trn import nn
from trn.relation import (
    FrameTuple,
    MultiScaleTRN,
    multiscale_backward,
    multiscale_forward,
    relation_backward,
    relation_forward,
)
from trn.sampling import (
    SamplingPlan,
    combination_table,
    draw_slots,
    segment_bounds,
    segment_sample,
    segment_sample_batch,
)
from trn.training import batch_backward, batch_forward

ORACLE = settings(max_examples=60, deadline=None)


def assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


@ORACLE
@given(
    batch=st.integers(1, 8),
    num_frames=st.integers(2, 8),
    k=st.integers(1, 5),
    feature_dim=st.integers(1, 4),
    hidden=st.integers(1, 6),
    classes=st.integers(2, 4),
    dropout=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_relation_batch_matches_per_video_oracle(
    batch, num_frames, k, feature_dim, hidden, classes, dropout, seed
):
    rng = np.random.default_rng(seed)
    model = MultiScaleTRN.create(feature_dim, classes, num_frames, hidden, rng).astype(np.float64)
    feats = rng.normal(size=(batch, num_frames, feature_dim))
    slots = {d: draw_slots(num_frames, d, k, batch, rng) for d in model.scales}
    masks = None
    if dropout:
        masks = {
            d: (rng.random((batch * s.shape[1], hidden)) >= 0.3) / 0.7 for d, s in slots.items()
        }
    upstream = rng.normal(size=(batch, classes))

    out = relation_forward(model, feats, slots, masks)
    grads = relation_backward(model, out, upstream)

    summed = [np.zeros_like(p) for p in model.parameters()]
    for b in range(batch):
        tuples = {
            d: [FrameTuple(tuple(row.tolist()), feats[b, row]) for row in slots[d][b]]
            for d in model.scales
        }
        own = None
        if masks is not None:
            own = {d: m.reshape(batch, -1, hidden)[b] for d, m in masks.items()}
        oracle = multiscale_forward(model, tuples, own)
        assert_close(out.logits[b], oracle.logits)
        for d in model.scales:
            assert_close(out.per_scale[d][b], oracle.per_scale[d])
        for acc, g in zip(summed, multiscale_backward(model, tuples, upstream[b], own).flat()):
            acc += g
    assert len(grads) == len(summed)
    for got, want in zip(grads, summed):
        assert got.shape == want.shape
        assert_close(got, want)


@ORACLE
@given(
    batch=st.integers(1, 8),
    num_frames=st.integers(1, 8),
    feature_dim=st.integers(1, 5),
    hidden=st.integers(1, 6),
    classes=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_pooled_head_batch_matches_per_video_mlp_backward(
    batch, num_frames, feature_dim, hidden, classes, seed
):
    # num_frames 1 is the single-frame head: the mean of one frame is that frame
    rng = np.random.default_rng(seed)
    head = nn.Mlp(
        [
            nn.DenseLayer.init_random(feature_dim, hidden, "relu", rng, np.float64),
            nn.DenseLayer.init_random(hidden, hidden, "relu", rng, np.float64),
            nn.DenseLayer.init_random(hidden, classes, "none", rng, np.float64),
        ]
    )
    feats = rng.normal(size=(batch, num_frames, feature_dim))
    upstream = rng.normal(size=(batch, classes))

    logits, cache = batch_forward(head, feats)
    grads = batch_backward(head, cache, upstream)

    summed = [np.zeros_like(p) for p in head.parameters()]
    for b in range(batch):
        pooled = feats[b].mean(axis=0)
        assert_close(logits[b], nn.mlp_forward(head, pooled))
        own, _ = nn.mlp_backward(head, pooled, upstream[b])
        for acc, g in zip(summed, own.flat()):
            acc += g
    for got, want in zip(grads, summed):
        assert_close(got, want)


def test_center_batch_sampler_equals_segment_sample():
    lengths = np.arange(1, 41)
    for num_frames in range(2, 9):
        plan = SamplingPlan(num_frames=num_frames, subsamples=1, mode="center")
        got = segment_sample_batch(lengths, num_frames, "center")
        want = [segment_sample(int(n), plan) for n in lengths]
        assert got.tolist() == want


@settings(max_examples=100, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 60), min_size=1, max_size=12),
    num_frames=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_batch_sampler_stays_in_segments(lengths, num_frames, seed):
    idx = segment_sample_batch(lengths, num_frames, "random", np.random.default_rng(seed))
    assert idx.shape == (len(lengths), num_frames)
    assert (np.diff(idx, axis=1) >= 0).all()
    for n, row in zip(lengths, idx):
        for (start, size), frame in zip(segment_bounds(n, num_frames), row):
            if size:
                assert start <= frame < start + size
            else:  # a video shorter than num_frames reuses its last frame
                assert frame == n - 1


@settings(max_examples=100, deadline=None)
@given(
    num_frames=st.integers(2, 8),
    data=st.data(),
    k=st.integers(1, 80),
    batch=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_drawn_slot_rows_are_distinct_sorted_and_budgeted(num_frames, data, k, batch, seed):
    d = data.draw(st.integers(2, num_frames))
    slots = draw_slots(num_frames, d, k, batch, np.random.default_rng(seed))
    assert slots.shape == (batch, min(k, comb(num_frames, d)), d)
    for rows in slots:
        combos = [tuple(r) for r in rows.tolist()]
        assert all(list(c) == sorted(set(c)) for c in combos)  # strictly increasing slots
        assert combos == sorted(set(combos))  # distinct rows, lexicographic order
        assert all(c in set(map(tuple, combination_table(num_frames, d).tolist())) for c in combos)
