import numpy as np
import pytest

from trn.errors import InputError
from trn.relation import FrameTuple, MultiScaleTRN, multiscale_forward
from trn.sampling import enumerate_tuples
from trn.streaming import StreamQueue, replay_dataset
from trn.data import Dataset, VideoSample


def make_model(num_frames=4, feature_dim=5, classes=3, seed=0):
    return MultiScaleTRN.create(
        feature_dim, classes, num_frames, hidden_dim=8, rng=np.random.default_rng(seed)
    )


def batch_prediction(model, feats, tuple_budget=None):
    """Independent batch oracle over the buffered features."""
    tuples = {}
    for d in model.scales:
        combos = enumerate_tuples(model.num_frames, d)
        if tuple_budget is not None:
            combos = combos[:tuple_budget]
        tuples[d] = [FrameTuple(c, feats[list(c)]) for c in combos]
    return multiscale_forward(model, tuples).logits


class TestWarmup:
    def test_no_prediction_until_buffer_full(self):
        model = make_model(num_frames=8)
        q = StreamQueue(model, stride=1)
        rng = np.random.default_rng(1)
        for i in range(7):
            assert q.push(rng.normal(size=5)) is None
        assert q.push(rng.normal(size=5)) is not None

    def test_stride_two_first_prediction_at_sixteen(self):
        model = make_model(num_frames=8)
        q = StreamQueue(model, stride=2)
        rng = np.random.default_rng(2)
        emitted = []
        for i in range(1, 25):
            pred = q.push(rng.normal(size=5))
            if pred is not None:
                emitted.append(i)
        assert emitted[0] == 16
        assert emitted == [16, 18, 20, 22, 24]

    def test_dim_mismatch_rejected(self):
        q = StreamQueue(make_model(), stride=1)
        with pytest.raises(InputError):
            q.push(np.zeros(4))


class TestBatchEquivalence:
    def test_every_prediction_matches_batch_inference_bit_exact(self):
        model = make_model()
        rng = np.random.default_rng(3)
        for trial in range(50):
            stride = int(rng.integers(1, 4))
            q = StreamQueue(model, stride=stride)
            frames = rng.normal(size=(int(rng.integers(10, 30)), 5)).astype(np.float32)
            window = []
            for frame in frames:
                pred = q.push(frame)
                if q.frames_seen % stride == 0:
                    window.append(frame.astype(model.dtype))
                    window = window[-model.num_frames :]
                if pred is not None:
                    expected = batch_prediction(model, np.stack(window))
                    assert pred.logits.tobytes() == expected.tobytes()

    def test_tuple_budget_cap_respected(self):
        model = make_model()
        q = StreamQueue(model, tuple_budget=2)
        assert all(len(v) <= 2 for v in q._slot_sets.values())
        rng = np.random.default_rng(4)
        pred = None
        feats = rng.normal(size=(4, 5)).astype(np.float32)
        for frame in feats:
            pred = q.push(frame)
        expected = batch_prediction(model, feats.astype(model.dtype), tuple_budget=2)
        assert pred.logits.tobytes() == expected.tobytes()


class TestQueueBookkeeping:
    def test_enqueue_count_is_floor_of_frames_over_stride(self):
        model = make_model()
        rng = np.random.default_rng(5)
        for stride in (1, 2, 3):
            q = StreamQueue(model, stride=stride)
            for i in range(1, 20):
                q.push(rng.normal(size=5))
                assert q.enqueued == i // stride

    def test_consecutive_predictions_share_all_but_one_feature(self):
        model = make_model()
        q = StreamQueue(model, stride=1)
        rng = np.random.default_rng(6)
        previous = None
        for _ in range(10):
            frame = rng.normal(size=5)
            pred = q.push(frame)
            if pred is None:
                continue
            current = [row.tobytes() for row in q.buffered_features()]
            if previous is not None:
                assert previous[1:] == current[:-1]
            previous = current

    def test_eviction_is_fifo(self):
        model = make_model(num_frames=2)
        q = StreamQueue(model, stride=1)
        a, b, c = (np.full(5, float(v), dtype=np.float32) for v in (1, 2, 3))
        q.push(a)
        q.push(b)
        q.push(c)
        buffered = q.buffered_features()
        np.testing.assert_array_equal(buffered[0], b)
        np.testing.assert_array_equal(buffered[1], c)


class TestReplay:
    def test_replay_emits_one_record_per_prediction(self):
        model = make_model(num_frames=3)
        rng = np.random.default_rng(7)
        samples = [
            VideoSample(rng.normal(size=(8, 5)).astype(np.float32), i % 3) for i in range(4)
        ]
        records = list(replay_dataset(Dataset(samples=samples), model, stride=1))
        # per sample: predictions at pushes 3..8 = 6 records
        assert len(records) == 6 * 4
        assert {r["sample"] for r in records} == {0, 1, 2, 3}
        for r in records:
            assert 0 <= r["predicted"] < 3
            assert abs(sum(r["probabilities"]) - 1.0) < 1e-6
