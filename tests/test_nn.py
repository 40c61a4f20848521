import io
import struct

import numpy as np
import pytest

from conftest import max_rel_err
from trn import nn
from trn.errors import FormatError, InputError, TrainingDivergedError


def build_mlp(dims, activations, rng, scale=1.0):
    layers = []
    for (i, o), act in zip(zip(dims, dims[1:]), activations):
        w = rng.normal(size=(o, i)) * scale
        b = rng.normal(size=o) * scale
        layers.append(nn.DenseLayer(w, b, act))
    return nn.Mlp(layers)


def fd_param_gradients(m, x, upstream, step=1e-5):
    """Independent central-difference oracle over every parameter entry."""

    def objective():
        return float(np.dot(upstream, nn.mlp_forward(m, x)))

    grads = []
    for p in m.parameters():
        g = np.zeros_like(p)
        flat, gf = p.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            f_plus = objective()
            flat[i] = orig - step
            f_minus = objective()
            flat[i] = orig
            gf[i] = (f_plus - f_minus) / (2 * step)
        grads.append(g)
    return grads


def fd_input_gradient(m, x, upstream, step=1e-5):
    x = x.copy()
    g = np.zeros_like(x)
    for i in range(x.size):
        orig = x[i]
        x[i] = orig + step
        f_plus = float(np.dot(upstream, nn.mlp_forward(m, x)))
        x[i] = orig - step
        f_minus = float(np.dot(upstream, nn.mlp_forward(m, x)))
        x[i] = orig
        g[i] = (f_plus - f_minus) / (2 * step)
    return g


class TestForward:
    def test_hand_computed_relu_layer(self):
        layer = nn.DenseLayer(np.array([[2.0, 0.0], [0.0, 3.0]]), np.array([1.0, -1.0]), "relu")
        out = nn.mlp_forward(nn.Mlp([layer]), np.array([1.0, 0.0]))
        np.testing.assert_array_equal(out, [3.0, 0.0])

    def test_zero_weights_give_activated_bias(self):
        bias = np.array([0.5, -0.5, 2.0])
        for act, expected in [("none", bias), ("relu", np.maximum(bias, 0.0))]:
            mlp = nn.Mlp([nn.DenseLayer(np.zeros((3, 4)), bias, act)])
            out = nn.mlp_forward(mlp, np.ones(4))
            np.testing.assert_array_equal(out, expected)

    def test_matches_straight_line_reimplementation(self, float64_mode):
        rng = np.random.default_rng(7)
        m = build_mlp([5, 4, 3], ["relu", "none"], rng)
        x = rng.normal(size=5)
        got = nn.mlp_forward(m, x)
        # independent straight-line version of the two affine maps
        w1, b1 = m.layers[0].weights, m.layers[0].bias
        w2, b2 = m.layers[1].weights, m.layers[1].bias
        hidden = np.maximum(w1 @ x + b1, 0.0)
        expected = w2 @ hidden + b2
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(3)
        m = build_mlp([6, 5, 2], ["relu", "none"], rng)
        x = rng.normal(size=6).astype(np.float32)
        a = nn.mlp_forward(m, x)
        b = nn.mlp_forward(m, x)
        assert a.tobytes() == b.tobytes()

    def test_batch_matches_single_rows(self):
        # batched and per-row paths agree to rounding (BLAS gemm vs gemv)
        rng = np.random.default_rng(11)
        m = build_mlp([4, 3], ["relu"], rng)
        batch = rng.normal(size=(6, 4))
        out = nn.mlp_forward(m, batch)
        for row_in, row_out in zip(batch, out):
            np.testing.assert_allclose(nn.mlp_forward(m, row_in), row_out, rtol=1e-12, atol=1e-14)

    def test_dimension_mismatch_rejected(self):
        m = build_mlp([4, 3], ["none"], np.random.default_rng(0))
        with pytest.raises(InputError):
            nn.mlp_forward(m, np.zeros(5))


class TestBackward:
    def test_zero_upstream_gives_zero_gradients(self):
        rng = np.random.default_rng(5)
        m = build_mlp([4, 3, 2], ["relu", "none"], rng)
        grads, gx = nn.mlp_backward(m, rng.normal(size=4), np.zeros(2))
        for g in grads.flat():
            assert not g.any()
        assert not gx.any()

    def test_single_linear_layer_closed_form(self):
        rng = np.random.default_rng(6)
        m = build_mlp([4, 3], ["none"], rng)
        x = rng.normal(size=4)
        up = rng.normal(size=3)
        grads, gx = nn.mlp_backward(m, x, up)
        np.testing.assert_allclose(grads.weight_grads[0], np.outer(up, x), rtol=1e-12)
        np.testing.assert_allclose(grads.bias_grads[0], up, rtol=1e-12)
        np.testing.assert_allclose(gx, m.layers[0].weights.T @ up, rtol=1e-12)

    def test_two_layer_matches_finite_differences(self, float64_mode):
        rng = np.random.default_rng(8)
        m = build_mlp([5, 4, 3], ["relu", "none"], rng)
        x = rng.normal(size=5)
        up = rng.normal(size=3)
        grads, gx = nn.mlp_backward(m, x, up)
        fd = fd_param_gradients(m, x, up)
        for got, want in zip(grads.flat(), [a for p in zip(fd[::2], fd[1::2]) for a in p]):
            assert max_rel_err(got, want) < 1e-4
        assert max_rel_err(gx, fd_input_gradient(m, x, up)) < 1e-4

    @pytest.mark.parametrize(
        "dims,acts,triples",
        [
            ([3, 4, 2], ["relu", "none"], 40),
            ([6, 4, 4], ["relu", "relu"], 30),
            ([4, 2], ["none"], 30),
            ([9, 4, 4], ["relu", "relu"], 20),
        ],
    )
    def test_repo_shapes_match_finite_differences(self, float64_mode, dims, acts, triples):
        # >= 100 random (params, input, upstream) triples across the shapes
        # this repo uses; every entry within relative error 1e-4.
        rng = np.random.default_rng(42)
        for _ in range(triples):
            m = build_mlp(dims, acts, rng)
            x = rng.normal(size=dims[0])
            up = rng.normal(size=dims[-1])
            grads, gx = nn.mlp_backward(m, x, up)
            flat_fd = fd_param_gradients(m, x, up)
            analytic_w = grads.weight_grads + [gx]
            numeric_w = flat_fd[::2] + [fd_input_gradient(m, x, up)]
            for got, want in zip(analytic_w, numeric_w):
                assert max_rel_err(got, want) < 1e-4
            for got, want in zip(grads.bias_grads, flat_fd[1::2]):
                assert max_rel_err(got, want) < 1e-4

    def test_upstream_dimension_mismatch_rejected(self):
        m = build_mlp([4, 3], ["none"], np.random.default_rng(0))
        with pytest.raises(InputError):
            nn.mlp_backward(m, np.zeros(4), np.zeros(2))


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_loss_is_log_c(self):
        for c in (2, 4, 7):
            loss, _ = nn.softmax_cross_entropy(np.zeros(c), 0)
            assert loss == pytest.approx(np.log(c), rel=1e-12)

    def test_huge_logits_stable(self):
        loss, grad = nn.softmax_cross_entropy(np.array([1000.0, 0.0]), 0)
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert np.isfinite(grad).all()

    def test_gradient_matches_finite_differences(self, float64_mode):
        rng = np.random.default_rng(9)
        for _ in range(20):
            logits = rng.normal(size=6) * 3
            label = int(rng.integers(6))
            _, grad = nn.softmax_cross_entropy(logits, label)
            step = 1e-6
            for i in range(6):
                bumped = logits.copy()
                bumped[i] += step
                up, _ = nn.softmax_cross_entropy(bumped, label)
                bumped[i] -= 2 * step
                down, _ = nn.softmax_cross_entropy(bumped, label)
                assert grad[i] == pytest.approx((up - down) / (2 * step), abs=1e-6)

    def test_softmax_is_probability_vector(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            p = nn.softmax(rng.normal(size=8) * rng.uniform(0.1, 50))
            assert (p >= 0).all()
            assert abs(p.sum() - 1.0) < 1e-9

    def test_label_out_of_range_rejected(self):
        with pytest.raises(InputError):
            nn.softmax_cross_entropy(np.zeros(3), 3)
        with pytest.raises(InputError):
            nn.softmax_cross_entropy(np.zeros(3), -1)


class TestOptimizer:
    def test_zero_learning_rate_is_identity(self):
        rng = np.random.default_rng(12)
        params = [rng.normal(size=(3, 2)), rng.normal(size=3)]
        grads = [rng.normal(size=(3, 2)), rng.normal(size=3)]
        updated = nn.Sgd(0.0, 0.9).step(params, grads)
        for p, u in zip(params, updated):
            np.testing.assert_array_equal(p, u)

    def test_unit_rate_no_momentum_subtracts_gradient(self):
        rng = np.random.default_rng(13)
        params = [rng.normal(size=4)]
        grads = [rng.normal(size=4)]
        (updated,) = nn.Sgd(1.0, 0.0).step(params, grads)
        np.testing.assert_allclose(updated, params[0] - grads[0], rtol=1e-12)

    def test_momentum_matches_hand_unrolled_recurrence(self):
        # v1 = g, p1 = p0 - lr*g; v2 = 0.9 g + g, p2 = p1 - lr*1.9 g
        p0 = np.array([1.0, -2.0])
        g = np.array([0.5, 0.25])
        opt = nn.Sgd(0.1, 0.9)
        (p1,) = opt.step([p0], [g])
        np.testing.assert_allclose(p1, p0 - 0.1 * g, rtol=1e-12)
        (p2,) = opt.step([p1], [g])
        np.testing.assert_allclose(p2, p1 - 0.1 * 1.9 * g, rtol=1e-12)

    def test_non_finite_gradient_raises(self):
        with pytest.raises(TrainingDivergedError):
            nn.Sgd(0.1).step([np.zeros(2)], [np.array([1.0, np.nan])])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InputError):
            nn.Sgd(0.1).step([np.zeros(2)], [np.zeros(3)])

    def test_overflowing_update_raises_divergence(self):
        # finite gradients can still push a parameter past the float range
        params = [np.ones(2, dtype=np.float32)]
        grads = [np.full(2, 1e30, dtype=np.float32)]
        with np.errstate(over="ignore"), pytest.raises(TrainingDivergedError):
            nn.Sgd(1e30).step(params, grads)


class TestConstruction:
    def test_layer_dim_consistency_enforced(self):
        with pytest.raises(InputError):
            nn.DenseLayer(np.zeros((3, 2)), np.zeros(2), "none")

    def test_non_finite_parameters_rejected(self):
        w = np.zeros((2, 2))
        w[0, 0] = np.inf
        with pytest.raises(InputError):
            nn.DenseLayer(w, np.zeros(2), "none")

    def test_mismatched_chain_rejected(self):
        a = nn.DenseLayer(np.zeros((3, 2)), np.zeros(3), "relu")
        b = nn.DenseLayer(np.zeros((2, 4)), np.zeros(2), "none")
        with pytest.raises(InputError):
            nn.Mlp([a, b])

    def test_gradient_set_mirrors_shapes(self):
        m = build_mlp([4, 3, 2], ["relu", "none"], np.random.default_rng(0))
        gs = nn.GradientSet.zeros_for(m)
        for g, p in zip(gs.flat(), m.parameters()):
            assert g.shape == p.shape

    def test_precision_switch(self, float64_mode):
        rng = np.random.default_rng(1)
        layer = nn.DenseLayer.init_random(3, 2, "relu", rng)
        assert layer.weights.dtype == np.float64

    def test_fan_based_init_bounds(self):
        rng = np.random.default_rng(2)
        layer = nn.DenseLayer.init_random(30, 10, "relu", rng)
        bound = np.sqrt(6.0 / 40)
        assert np.abs(layer.weights).max() <= bound
        assert not layer.bias.any()


class TestCheckpoint:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(21)
        m = build_mlp([5, 4, 2], ["relu", "none"], rng)
        m = m.astype(np.float32)
        path = tmp_path / "weights.trnw"
        nn.save_mlp(path, m)
        loaded = nn.load_mlp(path)
        assert [l.activation for l in loaded.layers] == ["relu", "none"]
        for a, b in zip(m.parameters(), loaded.parameters()):
            assert a.tobytes() == b.tobytes()

    def test_bad_magic_offset_zero(self, tmp_path):
        path = tmp_path / "bad.trnw"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError) as err:
            nn.load_mlp(path)
        assert err.value.offset == 0

    def test_oversized_layer_header_is_format_error(self, tmp_path):
        # 0xFFFFFFFF x 0xFFFFFFFF weights: the weight block would start at
        # byte 24 (magic, version, layer count, in_dim, out_dim, activation)
        path = tmp_path / "huge.trnw"
        path.write_bytes(
            nn.WEIGHTS_MAGIC + struct.pack("<IIIII", nn.CHECKPOINT_VERSION, 1, 2**32 - 1, 2**32 - 1, 0)
        )
        with pytest.raises(FormatError) as err:
            nn.load_mlp(path)
        assert err.value.offset == 24
        assert "truncated" in str(err.value)

    def test_reader_never_requests_more_than_the_file_holds(self):
        payload = struct.pack("<IIII", 1, 2**32 - 1, 2**32 - 1, 0)
        requests = []

        class Recording(io.BytesIO):
            def read(self, size=-1):
                requests.append(size)
                return super().read(size)

        with pytest.raises(FormatError):
            nn.read_mlp_payload(nn.PayloadReader(Recording(payload)))
        assert max(requests) <= len(payload)

    def test_truncated_file_reports_offset(self, tmp_path):
        rng = np.random.default_rng(22)
        m = build_mlp([4, 3], ["none"], rng).astype(np.float32)
        path = tmp_path / "weights.trnw"
        nn.save_mlp(path, m)
        clipped = tmp_path / "clipped.trnw"
        clipped.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError) as err:
            nn.load_mlp(clipped)
        assert err.value.offset is not None
