import math

import numpy as np
import oracles
import pytest

from activeseg import segmenter as sg
from activeseg.core import BinaryMask, ImageGrid, ProbMap
from activeseg.segmenter import (
    PARAM_SHAPES,
    LossWeights,
    SegmenterParams,
    TrainConfig,
    backward,
    forward,
    head_loss,
    init_params,
    load_params,
    predict,
    save_params,
    soft_dice_loss,
    total_loss,
    train,
)


def random_instance(size=16, seed=0):
    rng = np.random.default_rng(seed)
    img = ImageGrid(rng.uniform(0, 1, (size, size)))
    tgt = BinaryMask((rng.uniform(0, 1, (size, size)) > 0.5).astype(int))
    return img, tgt


def kink_free_params(seed=42, bias=0.3):
    """Shift trunk biases positive so no ReLU gate sits near its switching
    point; finite-difference probes then see a smooth loss."""
    base = init_params(seed)
    tensors = {
        name: (arr + bias if name.endswith(".bias") and not name.startswith("head") else arr.copy())
        for name, arr in base.tensors.items()
    }
    return SegmenterParams(tensors)


class TestInit:
    def test_deterministic(self):
        a, b = init_params(7), init_params(7)
        for name in PARAM_SHAPES:
            np.testing.assert_array_equal(a[name], b[name])

    def test_seeds_differ(self):
        a, b = init_params(0), init_params(1)
        assert any(not np.array_equal(a[name], b[name]) for name in PARAM_SHAPES)

    def test_valid_structure(self):
        p = init_params(0)
        for name, shape in PARAM_SHAPES.items():
            assert p[name].shape == shape
            assert np.all(np.isfinite(p[name]))
        assert not p["enc1.bias"].any()  # biases start at zero


class TestForward:
    def test_shapes_and_range(self):
        img, _ = random_instance(16)
        pred = forward(init_params(0), img)
        for head in (pred.lower, pred.middle, pred.final):
            assert head.values.shape == (16, 16)
            assert np.all((head.values > 0) & (head.values < 1))

    def test_zero_input_zero_heads_is_half(self):
        p = init_params(3)
        tensors = {k: (np.zeros_like(v) if k.startswith("head") else v) for k, v in p.tensors.items()}
        pred = forward(SegmenterParams(tensors), ImageGrid(np.zeros((8, 8))))
        for head in (pred.lower, pred.middle, pred.final):
            np.testing.assert_array_equal(head.values, np.full((8, 8), 0.5))

    def test_deterministic(self):
        img, _ = random_instance(16, seed=5)
        p = init_params(11)
        a, b = forward(p, img), forward(p, img)
        np.testing.assert_array_equal(a.final.values, b.final.values)
        np.testing.assert_array_equal(a.lower.values, b.lower.values)

    def test_rejects_unaligned_dims(self):
        with pytest.raises(ValueError, match="divisible by 4"):
            forward(init_params(0), ImageGrid(np.zeros((10, 16))))

    def test_predict_pads_and_crops(self):
        rng = np.random.default_rng(2)
        img = ImageGrid(rng.uniform(0, 1, (10, 13)))
        pred = predict(init_params(0), img)
        assert pred.final.values.shape == (10, 13)


class TestLosses:
    def test_bce_at_half_is_ln2(self):
        p = ProbMap(np.full((4, 4), 0.5))
        t = BinaryMask(np.eye(4, dtype=int))
        assert head_loss(p, t) == pytest.approx(math.log(2), abs=1e-12)

    def test_bce_perfect_prediction_is_tiny(self):
        t = BinaryMask(np.eye(4, dtype=int))
        p = ProbMap(t.values.astype(float))
        assert head_loss(p, t) < 1e-6

    def test_bce_constant_prediction(self):
        p = ProbMap(np.full((5, 5), 0.8))
        t = BinaryMask(np.ones((5, 5), dtype=int))
        assert head_loss(p, t) == pytest.approx(-math.log(0.8), rel=1e-12)

    def test_soft_dice_perfect_is_zero(self):
        t = BinaryMask((np.arange(16).reshape(4, 4) % 3 == 0).astype(int))
        assert soft_dice_loss(ProbMap(t.values.astype(float)), t) == 0.0

    def test_soft_dice_total_miss(self):
        n = 36
        p = ProbMap(np.ones((6, 6)))
        t = BinaryMask(np.zeros((6, 6), dtype=int))
        assert soft_dice_loss(p, t) == pytest.approx(1 - 1 / (n + 1), rel=1e-12)

    def test_soft_dice_matches_scalar_recomputation(self):
        rng = np.random.default_rng(8)
        p = ProbMap(rng.uniform(0, 1, (8, 8)))
        t = BinaryMask((rng.uniform(0, 1, (8, 8)) > 0.4).astype(int))
        num = den = 0.0
        for i in range(8):
            for j in range(8):
                num += p.values[i, j] * t.values[i, j]
                den += p.values[i, j] + t.values[i, j]
        expected = 1 - (2 * num + 1.0) / (den + 1.0)
        assert soft_dice_loss(p, t) == pytest.approx(expected, rel=1e-12)

    def test_total_loss_at_half_is_ln2(self):
        half = ProbMap(np.full((4, 4), 0.5))
        pred = sg.MultiHeadPrediction(half, half, half)
        t = BinaryMask(np.eye(4, dtype=int))
        assert total_loss(pred, t, LossWeights()) == pytest.approx(math.log(2), rel=1e-12)

    def test_total_loss_single_head(self):
        rng = np.random.default_rng(1)
        maps = [ProbMap(rng.uniform(0.01, 0.99, (4, 4))) for _ in range(3)]
        pred = sg.MultiHeadPrediction(*maps)
        t = BinaryMask((rng.uniform(size=(4, 4)) > 0.5).astype(int))
        w = LossWeights(alpha_l=0.0, alpha_m=0.0, alpha_f=1.0)
        assert total_loss(pred, t, w) == pytest.approx(head_loss(maps[2], t), rel=1e-12)

    def test_total_loss_matches_scalar_recomputation(self):
        # independently recombine the three per-head losses
        rng = np.random.default_rng(9)
        maps = [ProbMap(rng.uniform(0.01, 0.99, (8, 8))) for _ in range(3)]
        pred = sg.MultiHeadPrediction(*maps)
        t = BinaryMask((rng.uniform(size=(8, 8)) > 0.5).astype(int))
        per_head = []
        for m in maps:
            acc = 0.0
            for i in range(8):
                for j in range(8):
                    pv = min(max(m.values[i, j], 1e-8), 1 - 1e-8)
                    tv = t.values[i, j]
                    acc += -(tv * math.log(pv) + (1 - tv) * math.log(1 - pv))
            per_head.append(acc / 64)
        expected = 0.1 * per_head[0] + 0.3 * per_head[1] + 0.6 * per_head[2]
        assert total_loss(pred, t, LossWeights()) == pytest.approx(expected, rel=1e-12)

    def test_total_loss_between_head_losses(self):
        rng = np.random.default_rng(14)
        maps = [ProbMap(rng.uniform(0.01, 0.99, (8, 8))) for _ in range(3)]
        pred = sg.MultiHeadPrediction(*maps)
        t = BinaryMask((rng.uniform(size=(8, 8)) > 0.5).astype(int))
        losses = [head_loss(m, t) for m in maps]
        v = total_loss(pred, t, LossWeights())
        assert min(losses) <= v <= max(losses)

    @pytest.mark.parametrize("loss_kind", ["cross_entropy", "soft_dice"])
    def test_total_loss_is_the_training_loss(self, loss_kind):
        params = init_params(3)
        img, tgt = random_instance(16, seed=5)
        w = LossWeights(0.2, 0.3, 0.5)
        x = img.values[None, :, :, None]
        t = tgt.values.astype(np.float64)[None, :, :, None]
        trained_on = sg._loss_and_grads_batch(params.tensors, x, t, w, loss_kind)[0]
        assert total_loss(forward(params, img), tgt, w, loss_kind) == trained_on

    def test_float32_clamp_is_finite_and_flat_at_the_ends(self):
        # float32 cannot hold 1 - 1e-8, so the clamp widens to stay below 1
        p = np.array([0.0, 1.0, 0.5, 1.0, 0.0, 0.25], dtype=np.float32).reshape(1, 2, 3, 1)
        t = np.array([0, 1, 1, 0, 1, 0], dtype=np.float32).reshape(1, 2, 3, 1)
        loss, dz = sg._head_loss_grad_batch(p, t, "cross_entropy")
        assert math.isfinite(loss)
        clamped = (p == 0.0) | (p == 1.0)
        assert not dz[clamped].any()
        assert dz[~clamped].all()

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            LossWeights(0.2, 0.2, 0.2)
        with pytest.raises(ValueError):
            LossWeights(-0.1, 0.5, 0.6)


class TestBackward:
    @pytest.mark.parametrize("loss_kind", ["cross_entropy", "soft_dice"])
    def test_matches_finite_differences(self, loss_kind):
        params = kink_free_params()
        img, tgt = random_instance(16, seed=0)
        w = LossWeights()
        grads = backward(params, img, tgt, w, loss_kind)
        x = img.values[None, :, :, None]
        t = tgt.values.astype(float)[None, :, :, None]
        h = 1e-4
        probe_rng = np.random.default_rng(7)
        worst = 0.0
        for name in PARAM_SHAPES:
            for _ in range(12):
                i = int(probe_rng.integers(params[name].size))
                tp = {k: v.copy() for k, v in params.tensors.items()}
                tm = {k: v.copy() for k, v in params.tensors.items()}
                tp[name].ravel()[i] += h
                tm[name].ravel()[i] -= h
                lp = sg._loss_and_grads_batch(tp, x, t, w, loss_kind)[0]
                lm = sg._loss_and_grads_batch(tm, x, t, w, loss_kind)[0]
                fd = (lp - lm) / (2 * h)
                an = grads[name].ravel()[i]
                worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-8))
        assert worst < 1e-3

    def test_detached_heads_have_zero_gradient(self):
        params = init_params(1)
        img, tgt = random_instance(16, seed=2)
        w = LossWeights(alpha_l=0.0, alpha_m=0.0, alpha_f=1.0)
        grads = backward(params, img, tgt, w, "cross_entropy")
        assert not grads["head_lower.kernel"].any()
        assert not grads["head_lower.bias"].any()
        assert not grads["head_middle.kernel"].any()
        assert not grads["head_middle.bias"].any()
        assert grads["head_final.kernel"].any()

    def test_deterministic(self):
        params = init_params(4)
        img, tgt = random_instance(16, seed=3)
        a = backward(params, img, tgt)
        b = backward(params, img, tgt)
        for name in PARAM_SHAPES:
            np.testing.assert_array_equal(a[name], b[name])


class TestTrain:
    def make_pair(self, seed=0):
        rng = np.random.default_rng(seed)
        mask = np.zeros((16, 16), dtype=int)
        mask[4:12, 5:13] = 1
        img = np.clip(0.2 + 0.6 * mask + rng.normal(0, 0.05, mask.shape), 0, 1)
        return ImageGrid(img), BinaryMask(mask)

    def test_one_epoch_decreases_loss(self):
        pair = self.make_pair()
        params = init_params(0)
        cfg = TrainConfig(epochs=1, learning_rate=1e-2, batch_size=1, loss_kind="cross_entropy", seed=0)
        before = total_loss(forward(params, pair[0]), pair[1])
        after_params = train(params, [pair], cfg)
        after = total_loss(forward(after_params, pair[0]), pair[1])
        assert after < before

    def test_zero_epochs_is_identity(self):
        pair = self.make_pair()
        params = init_params(0)
        out = train(params, [pair], TrainConfig(epochs=0, seed=0))
        assert out is params

    def test_seeded_reproducibility(self):
        pairs = [self.make_pair(s) for s in range(4)]
        cfg = TrainConfig(epochs=2, learning_rate=1e-2, batch_size=2, loss_kind="soft_dice", seed=9)
        a = train(init_params(1), pairs, cfg)
        b = train(init_params(1), pairs, cfg)
        for name in PARAM_SHAPES:
            np.testing.assert_array_equal(a[name], b[name])

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            train(init_params(0), [], TrainConfig())

    def test_mixed_sizes_rejected(self):
        a = (ImageGrid(np.zeros((16, 16))), BinaryMask(np.zeros((16, 16), dtype=int)))
        b = (ImageGrid(np.zeros((8, 8))), BinaryMask(np.zeros((8, 8), dtype=int)))
        with pytest.raises(ValueError, match="single raster size"):
            train(init_params(0), [a, b], TrainConfig(epochs=1))

    def test_epochs_and_batch_size_must_be_integers(self):
        for name in ("epochs", "batch_size"):
            for bad in (1.5, 2.5, True, "2", None):
                with pytest.raises(ValueError, match=f"{name} must be an integer"):
                    TrainConfig(**{name: bad})
        cfg = TrainConfig(epochs=np.int64(2), batch_size=np.int64(3))
        assert (cfg.epochs, cfg.batch_size) == (2, 3)


def labeled_set(n, size, seed):
    return [random_instance(size, seed=seed + i) for i in range(n)]


def assert_same_bytes(a, b):
    for name in PARAM_SHAPES:
        assert a[name].tobytes() == b[name].tobytes(), name


class TestConvWorkspace:
    """The workspace conv data path against the padded-copy oracle, bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("raster", [(4, 4), (8, 20), (32, 32)])
    def test_im2col_matches_padded_copy(self, raster, dtype):
        rng = np.random.default_rng(0)
        ws = {}
        # the first batch sizes the buffers; the smaller ones take [:n] views
        for n in (3, 1, 2):
            for c in (1, 8, 16, 24, 48):
                x = rng.standard_normal((n, *raster, c)).astype(dtype)
                ref = oracles.padded_im2col(x)
                assert np.array_equal(sg._im2col(sg._border(x)), ref)
                assert np.array_equal(sg._im2col(sg._border(x, ws, "conv"), ws, "conv"), ref)

    def test_im2col_of_channel_slices(self):
        dc2 = np.random.default_rng(1).standard_normal((2, 8, 20, 24)).astype(np.float32)
        ws = {}
        for x in (dc2[..., :16], dc2[..., 16:], dc2[:, ::2, ::2, 3:11]):
            assert not x.flags.c_contiguous
            ref = oracles.padded_im2col(x)
            assert np.array_equal(sg._im2col(sg._border(x)), ref)
            assert np.array_equal(sg._im2col(sg._border(x, ws, "conv"), ws, "conv"), ref)

    @pytest.mark.parametrize("n, size, batch_size, loss_kind", [
        (5, 16, 2, "cross_entropy"),  # odd set: a tail batch of one
        (3, 16, 8, "soft_dice"),  # one batch, smaller than batch_size
        (7, 32, 3, "cross_entropy"),
    ])
    def test_train_matches_padded_copy(self, n, size, batch_size, loss_kind):
        data = labeled_set(n, size, seed=n)
        cfg = TrainConfig(epochs=2, learning_rate=0.05, batch_size=batch_size, loss_kind=loss_kind, seed=3)
        assert_same_bytes(train(init_params(1), data, cfg), oracles.padded_train(init_params(1), data, cfg))

    def test_successive_trains_at_two_sizes(self):
        params = init_params(2)
        cfg = TrainConfig(epochs=2, learning_rate=0.05, batch_size=2, seed=4)
        for size in (16, 32):
            data = labeled_set(3, size, seed=size)
            got = train(params, data, cfg)
            assert_same_bytes(got, oracles.padded_train(params, data, cfg))
            params = got

    def test_input_grads_share_buffers_by_shape(self):
        """The four input-gradient convs meet three raster shapes (dec1's and
        enc2's match), so they hold three bordered inputs and three matrices."""
        tensors = {name: arr.astype(np.float32) for name, arr in init_params(0).tensors.items()}
        x = np.zeros((2, 16, 16, 1), np.float32)
        ws = {}
        sg._loss_and_grads_batch(tensors, x, x, LossWeights(), "cross_entropy", ws)
        assert sorted(role for (key, role), _, _ in ws if key == "dgrad") == ["bordered"] * 3 + ["cols"] * 3

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_no_rows_leak_between_batches(self, dtype):
        """One workspace over batches of 3, 2 and 1: each step equals the
        workspace-free path (the one backward takes) on the same batch."""
        params = init_params(5)
        tensors = {name: arr.astype(dtype) for name, arr in params.tensors.items()}
        rng = np.random.default_rng(6)
        ws = {}
        for n in (3, 2, 1):
            x = rng.uniform(0, 1, (n, 16, 16, 1)).astype(dtype)
            t = (rng.uniform(0, 1, (n, 16, 16, 1)) > 0.5).astype(dtype)
            loss, grads = sg._loss_and_grads_batch(tensors, x, t, LossWeights(), "cross_entropy", ws)
            ref_loss, ref_grads = sg._loss_and_grads_batch(tensors, x, t, LossWeights(), "cross_entropy")
            assert loss == ref_loss
            for name in PARAM_SHAPES:
                assert np.array_equal(grads[name], ref_grads[name]), name
        if dtype is np.float64:
            ref_grads = backward(params, ImageGrid(x[0, :, :, 0]), BinaryMask(t[0, :, :, 0].astype(int)))
            for name in PARAM_SHAPES:
                assert np.array_equal(grads[name], ref_grads[name]), name


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        params = init_params(13)
        path = str(tmp_path / "ckpt.bin")
        save_params(path, params)
        loaded = load_params(path)
        for name in PARAM_SHAPES:
            np.testing.assert_array_equal(loaded[name], params[name])

    def test_rejects_foreign_files(self, tmp_path):
        path = str(tmp_path / "junk.bin")
        with open(path, "wb") as fh:
            fh.write(b"not a checkpoint\nend\n")
        with pytest.raises(ValueError):
            load_params(path)
