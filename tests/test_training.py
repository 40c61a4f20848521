import numpy as np
import pytest

import trn.training as training_mod
from trn import nn
from trn.data import Dataset, VideoSample, generate_dataset, order_critical_spec
from trn.errors import InputError, TrainingDivergedError
from trn.relation import FrameTuple, multiscale_forward
from trn.sampling import SamplingPlan, enumerate_tuples
from trn.training import (
    EvalReport,
    TrainConfig,
    build_model,
    compare_poolings,
    evaluate,
    fit,
    rng_streams,
    train,
)


def tiny_dataset(count=16, n=12, feature_dim=6, classes=4, seed=0):
    rng = np.random.default_rng(seed)
    samples = [
        VideoSample(rng.normal(size=(n, feature_dim)).astype(np.float32), i % classes)
        for i in range(count)
    ]
    return Dataset(samples=samples, split="train")


def tiny_config(**overrides):
    base = dict(
        epochs=2,
        batch_size=4,
        learning_rate=0.05,
        momentum=0.9,
        seed=3,
        plan=SamplingPlan(num_frames=4, subsamples=2, mode="random"),
        pooling="temporal-relation",
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestTrain:
    def test_zero_learning_rate_leaves_parameters_unchanged(self):
        ds = tiny_dataset()
        cfg = tiny_config(learning_rate=0.0)
        model = build_model(ds.feature_dim, 4, cfg, hidden_dim=8)
        before = [p.copy() for p in model.parameters()]
        train(model, ds, cfg)
        for a, b in zip(before, model.parameters()):
            np.testing.assert_array_equal(a, b)

    def test_overfits_ten_samples(self):
        # center sampling fixes each video's frames, so the last epoch's
        # accuracy measures memorization; under random frame sampling it
        # is 1.0 for only about half of all training seeds
        bundle = generate_dataset(order_critical_spec(), seed=5, counts={"train": 10})
        ds = bundle["train"]
        cfg = tiny_config(
            epochs=200,
            batch_size=10,
            learning_rate=0.08,
            plan=SamplingPlan(num_frames=5, subsamples=3, mode="center"),
        )
        model, history = fit(ds, cfg, hidden_dim=32)
        assert history[-1].accuracy == 1.0

    def test_loss_history_finite_over_seeds(self):
        ds = tiny_dataset(count=24)
        for seed in range(5):
            _, history = fit(ds, tiny_config(seed=seed), hidden_dim=8)
            assert all(np.isfinite(h.loss) for h in history)

    def test_deterministic_in_float64_mode(self, float64_mode):
        ds = tiny_dataset(count=12)
        cfg = tiny_config(epochs=3)
        model_a, _ = fit(ds, cfg, hidden_dim=8)
        model_b, _ = fit(ds, cfg, hidden_dim=8)
        for a, b in zip(model_a.parameters(), model_b.parameters()):
            assert a.tobytes() == b.tobytes()

    def test_shuffled_mode_differs_from_ordered(self):
        ds = tiny_dataset(count=12)
        model_o, _ = fit(ds, tiny_config(), hidden_dim=8)
        model_s, _ = fit(ds, tiny_config(frame_order="shuffled"), hidden_dim=8)
        assert any(
            not np.array_equal(a, b)
            for a, b in zip(model_o.parameters(), model_s.parameters())
        )

    def test_baseline_poolings_train(self):
        ds = tiny_dataset(count=12)
        for pooling in ("average-pool", "single-frame"):
            model, history = fit(ds, tiny_config(pooling=pooling), hidden_dim=8)
            assert isinstance(model, nn.Mlp)
            assert all(np.isfinite(h.loss) for h in history)

    def test_dimension_mismatch_rejected(self):
        ds = tiny_dataset(feature_dim=6)
        cfg = tiny_config()
        model = build_model(7, 4, cfg, hidden_dim=8)
        with pytest.raises(InputError):
            train(model, ds, cfg)

    def test_divergence_reports_step(self):
        ds = tiny_dataset(count=8)
        cfg = tiny_config(learning_rate=1e9, epochs=6, batch_size=2)
        model = build_model(ds.feature_dim, 4, cfg, hidden_dim=8)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError):
                train(model, ds, cfg)

    def test_dropout_flag_trains(self):
        ds = tiny_dataset(count=12)
        model, history = fit(ds, tiny_config(g_dropout=0.3), hidden_dim=8)
        assert all(np.isfinite(h.loss) for h in history)


class TestBudgetProperty:
    def test_one_example_touches_n_features_and_nineteen_tuples(self, monkeypatch):
        # plan (N=8, k=3): one training example gathers exactly 8 frame
        # features once and forms 3*(8-2)+1 = 19 relation tuples, all of
        # them slot rows into that one gather
        ds = tiny_dataset(count=1, n=40)
        plan = SamplingPlan(num_frames=8, subsamples=3, mode="random")
        cfg = tiny_config(epochs=1, batch_size=1, plan=plan)
        model = build_model(ds.feature_dim, 4, cfg, hidden_dim=8)

        gathers = []
        real_gather = training_mod.FrameBank.gather

        def counting_gather(bank, videos, indices):
            gathers.append(np.shape(indices))
            return real_gather(bank, videos, indices)

        monkeypatch.setattr(training_mod.FrameBank, "gather", counting_gather)

        slot_rows = []
        real_forward = training_mod.relation_forward

        def counting_forward(model_, feats, slots, masks=None):
            assert all(s.max() < feats.shape[1] for s in slots.values())
            slot_rows.append(sum(s.shape[1] for s in slots.values()))
            return real_forward(model_, feats, slots, masks)

        monkeypatch.setattr(training_mod, "relation_forward", counting_forward)

        train(model, ds, cfg)
        assert gathers == [(1, 8)]
        assert slot_rows == [19]


class TestEvaluate:
    def test_empty_dataset_rejected(self):
        cfg = tiny_config()
        model = build_model(6, 4, cfg, hidden_dim=8)
        with pytest.raises(InputError):
            evaluate(model, Dataset(samples=[]), cfg.plan)

    def test_zero_weight_model_predicts_class_zero(self):
        # all-zero weights make every logit equal; the argmax tie rule then
        # predicts class 0 for every sample, so top1 equals the class-0
        # frequency exactly
        ds = tiny_dataset(count=20, classes=4)
        cfg = tiny_config()
        model = build_model(ds.feature_dim, 4, cfg, hidden_dim=8)
        zeroed = [np.zeros_like(p) for p in model.parameters()]
        model.set_parameters(zeroed)
        report = evaluate(model, ds, cfg.plan)
        class0 = sum(1 for s in ds.samples if s.label == 0)
        assert report.top1 == class0 / len(ds)
        np.testing.assert_array_equal(report.per_class_accuracy, [1.0, 0.0, 0.0, 0.0])

    def test_report_internally_consistent(self):
        ds = tiny_dataset(count=30, classes=4)
        cfg = tiny_config()
        model, _ = fit(ds, cfg, hidden_dim=8)
        report = evaluate(model, ds, cfg.plan)
        assert report.top1 == report.top1_from_confusion()
        counts = report.class_counts()
        weighted = float((report.per_class_accuracy * counts).sum() / counts.sum())
        assert weighted == pytest.approx(report.top1, abs=1e-12)
        assert report.confusion.sum() == len(ds)

    def test_top5_reported_only_above_five_classes(self):
        ds8 = tiny_dataset(count=16, classes=8)
        cfg = tiny_config()
        model8, _ = fit(ds8, cfg, hidden_dim=8)
        report8 = evaluate(model8, ds8, cfg.plan)
        assert report8.top5 is not None
        assert report8.top1 <= report8.top5 <= 1.0

        ds4 = tiny_dataset(count=16, classes=4)
        model4, _ = fit(ds4, cfg, hidden_dim=8)
        assert evaluate(model4, ds4, cfg.plan).top5 is None

    def test_average_pool_invariant_to_any_permutation(self):
        # literal order-invariance of the mean: shuffled evaluation of an
        # average-pool head equals ordered evaluation, class by class
        ds = tiny_dataset(count=20)
        cfg = tiny_config(pooling="average-pool")
        model, _ = fit(ds, cfg, hidden_dim=8)
        ordered = evaluate(model, ds, cfg.plan, "average-pool", "ordered")
        for seed in range(5):
            shuffled = evaluate(
                model, ds, cfg.plan, "average-pool", "shuffled", shuffle_seed=seed
            )
            np.testing.assert_array_equal(
                ordered.per_class_accuracy, shuffled.per_class_accuracy
            )
            assert ordered.top1 == shuffled.top1

    def test_relation_logits_change_under_permutation(self):
        # a random relation model is order-sensitive: nearly every sampled
        # frame permutation moves some logit
        rng = np.random.default_rng(0)
        cfg = tiny_config()
        model = build_model(6, 4, cfg, hidden_dim=8)
        feats = rng.normal(size=(4, 6))
        slot_sets = {d: enumerate_tuples(4, d) for d in model.scales}

        def logits_for(feature_rows):
            tuples = {
                d: [FrameTuple(c, feature_rows[list(c)]) for c in combos]
                for d, combos in slot_sets.items()
            }
            return multiscale_forward(model, tuples).logits

        base = logits_for(feats)
        changed = 0
        for _ in range(100):
            perm = rng.permutation(4)
            while (perm == np.arange(4)).all():
                perm = rng.permutation(4)
            changed += not np.array_equal(logits_for(feats[perm]), base)
        assert changed >= 99

    def test_label_beyond_model_classes_rejected(self):
        ds = tiny_dataset(count=8, classes=4)
        cfg = tiny_config()
        model = build_model(ds.feature_dim, 3, cfg, hidden_dim=8)
        with pytest.raises(InputError):
            evaluate(model, ds, cfg.plan)


class TestComparePoolings:
    def test_grid_rows_and_shared_seed(self):
        ds = tiny_dataset(count=24, n=16)
        val = tiny_dataset(count=12, n=16, seed=1)
        cfg = tiny_config(epochs=1)
        rows = compare_poolings(
            ds, val, cfg, scales=(2, 3), poolings=("temporal-relation", "average-pool", "single-frame")
        )
        keys = {(r["pooling"], r["scale"]) for r in rows}
        assert keys == {
            ("temporal-relation", 2),
            ("temporal-relation", 3),
            ("average-pool", 2),
            ("average-pool", 3),
            ("single-frame", 1),
        }
        for r in rows:
            assert 0.0 <= r["top1"] <= 1.0
