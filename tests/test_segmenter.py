import itertools
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import oracles
import pytest

from activeseg import segmenter as sg
from activeseg.core import BinaryMask, ImageGrid, ProbMap, pad_to_multiple
from activeseg.segmenter import (
    PARAM_SHAPES,
    LossWeights,
    SegmenterParams,
    TrainConfig,
    backward,
    init_params,
    load_params,
    predict,
    save_params,
    train,
)

W = LossWeights(alpha_l=0.1, alpha_m=0.3, alpha_f=0.6)
TRAIN = TrainConfig(epochs=10, learning_rate=1e-2, batch_size=2, loss_kind="cross_entropy", seed=0)


def random_instance(size=16, seed=0):
    rng = np.random.default_rng(seed)
    img = ImageGrid(rng.uniform(0, 1, (size, size)))
    tgt = BinaryMask((rng.uniform(0, 1, (size, size)) > 0.5).astype(int))
    return img, tgt


def head_loss(p: ProbMap, target: BinaryMask, loss_kind: str = "cross_entropy", dtype=np.float64) -> float:
    """The training loss kernel on (p, target) as a batch of one sample, in
    dtype."""
    batch = p.values.astype(dtype)[None, :, :, None], target.values.astype(dtype)[None, :, :, None]
    return sg._head_loss(*batch, loss_kind)


def total_loss(pred: sg.MultiHeadPrediction, target: BinaryMask, w: LossWeights, loss_kind: str,
               dtype=np.float64) -> float:
    """The three head losses weighted as a training step weights them, in
    dtype."""
    lower, middle, final = (head_loss(m, target, loss_kind, dtype) for m in (pred.lower, pred.middle, pred.final))
    return w.alpha_l * lower + w.alpha_m * middle + w.alpha_f * final


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
        pred = predict(init_params(0), img)
        for head in (pred.lower, pred.middle, pred.final):
            assert head.values.shape == (16, 16)
            assert np.all((head.values > 0) & (head.values < 1))

    def test_zero_input_zero_heads_is_half(self):
        p = init_params(3)
        tensors = {k: (np.zeros_like(v) if k.startswith("head") else v) for k, v in p.tensors.items()}
        pred = predict(SegmenterParams(tensors), ImageGrid(np.zeros((8, 8))))
        for head in (pred.lower, pred.middle, pred.final):
            np.testing.assert_array_equal(head.values, np.full((8, 8), 0.5))

    def test_deterministic(self):
        img, _ = random_instance(16, seed=5)
        p = init_params(11)
        a, b = predict(p, img), predict(p, img)
        np.testing.assert_array_equal(a.final.values, b.final.values)
        np.testing.assert_array_equal(a.lower.values, b.lower.values)

    def test_predict_pads_and_crops(self):
        rng = np.random.default_rng(2)
        img = ImageGrid(rng.uniform(0, 1, (10, 13)))
        pred = predict(init_params(0), img)
        assert pred.final.values.shape == (10, 13)
        # each map is the crop of the maps of the edge-padded image
        for shape in ((10, 13), (30, 29)):
            img = ImageGrid(rng.uniform(0, 1, shape))
            padded, (h, w) = pad_to_multiple(img.values, 4)
            assert padded.shape != shape
            pred, full = predict(init_params(0), img), predict(init_params(0), ImageGrid(padded))
            for head in ("lower", "middle", "final"):
                got, whole = getattr(pred, head).values, getattr(full, head).values
                assert got.shape == shape
                assert got.tobytes() == whole[:h, :w].tobytes(), head

    def test_predict_equals_padded_copy_forward(self):
        # one parameter set across raster sizes: its plan is rebuilt for
        # each new size, and the packed parameters are reused; the pass runs
        # in float32 and the maps are its exact float64 widenings
        rng = np.random.default_rng(6)
        params = kink_free_params(seed=3, bias=0.05)
        tensors32 = {name: arr.astype(np.float32) for name, arr in params.tensors.items()}
        for shape in ((32, 32), (10, 13), (32, 32), (30, 29)):
            img = ImageGrid(rng.uniform(0, 1, shape))
            padded, (h, w) = pad_to_multiple(img.values, 4)
            ref, _ = oracles._padded_forward(tensors32, padded.astype(np.float32)[None, :, :, None])
            pred = predict(params, img)
            for head in ("lower", "middle", "final"):
                assert ref[head].dtype == np.float32
                want = ref[head][0, :h, :w, 0].astype(np.float64)
                assert getattr(pred, head).values.tobytes() == want.tobytes(), (shape, head)

    def test_later_predict_leaves_earlier_maps(self):
        rng = np.random.default_rng(7)
        params = init_params(2)
        first_img, second_img = (ImageGrid(rng.uniform(0, 1, (16, 16))) for _ in range(2))
        first = predict(params, first_img)
        kept = [m.values.copy() for m in (first.lower, first.middle, first.final)]
        second = predict(params, second_img)
        assert not np.array_equal(second.final.values, kept[2])
        for m, values in zip((first.lower, first.middle, first.final), kept):
            assert np.array_equal(m.values, values)

    def test_train_drops_the_inference_plan(self):
        img, tgt = random_instance(16)
        params = init_params(0)
        before = predict(params, img)
        assert params._inference is not None
        train(params, [(img, tgt)], replace(TRAIN, epochs=1), W)
        assert params._inference is None
        after = predict(params, img)
        assert after.final.values.tobytes() == before.final.values.tobytes()


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
        assert head_loss(ProbMap(t.values.astype(float)), t, "soft_dice") == 0.0

    def test_soft_dice_total_miss(self):
        n = 36
        p = ProbMap(np.ones((6, 6)))
        t = BinaryMask(np.zeros((6, 6), dtype=int))
        assert head_loss(p, t, "soft_dice") == pytest.approx(1 - 1 / (n + 1), rel=1e-12)

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
        assert head_loss(p, t, "soft_dice") == pytest.approx(expected, rel=1e-12)

    def test_total_loss_at_half_is_ln2(self):
        half = ProbMap(np.full((4, 4), 0.5))
        pred = sg.MultiHeadPrediction(half, half, half)
        t = BinaryMask(np.eye(4, dtype=int))
        assert total_loss(pred, t, W, "cross_entropy") == pytest.approx(math.log(2), rel=1e-12)

    def test_total_loss_single_head(self):
        rng = np.random.default_rng(1)
        maps = [ProbMap(rng.uniform(0.01, 0.99, (4, 4))) for _ in range(3)]
        pred = sg.MultiHeadPrediction(*maps)
        t = BinaryMask((rng.uniform(size=(4, 4)) > 0.5).astype(int))
        w = LossWeights(alpha_l=0.0, alpha_m=0.0, alpha_f=1.0)
        assert total_loss(pred, t, w, "cross_entropy") == pytest.approx(head_loss(maps[2], t), rel=1e-12)

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
        assert total_loss(pred, t, W, "cross_entropy") == pytest.approx(expected, rel=1e-12)

    def test_total_loss_between_head_losses(self):
        rng = np.random.default_rng(14)
        maps = [ProbMap(rng.uniform(0.01, 0.99, (8, 8))) for _ in range(3)]
        pred = sg.MultiHeadPrediction(*maps)
        t = BinaryMask((rng.uniform(size=(8, 8)) > 0.5).astype(int))
        losses = [head_loss(m, t) for m in maps]
        v = total_loss(pred, t, W, "cross_entropy")
        assert min(losses) <= v <= max(losses)

    @pytest.mark.parametrize("loss_kind", ["cross_entropy", "soft_dice"])
    def test_total_loss_is_the_training_loss(self, loss_kind):
        params = init_params(3)
        img, tgt = random_instance(16, seed=5)
        w = LossWeights(0.2, 0.3, 0.5)
        x = img.values[None, :, :, None]
        t = tgt.values.astype(np.float64)[None, :, :, None]
        # predict runs the float32 forward of a training step; its maps,
        # narrowed back exactly, give the float32 step's loss
        tensors32 = {name: arr.astype(np.float32) for name, arr in params.tensors.items()}
        step32 = sg._loss_and_grads_batch(tensors32, x.astype(np.float32), t.astype(np.float32), w, loss_kind)[0]
        assert total_loss(predict(params, img), tgt, w, loss_kind, np.float32) == step32
        # backward keeps the float64 step
        step64 = sg._loss_and_grads_batch(params.tensors, x, t, w, loss_kind)[0]
        assert backward(params, img, tgt, w, loss_kind)[0] == step64

    def test_float32_clamp_is_finite_and_flat_at_the_ends(self):
        # float32 cannot hold 1 - 1e-8, so the clamp widens to stay below 1
        p = np.array([0.0, 1.0, 0.5, 1.0, 0.0, 0.25, 0.75, 1.0] * 2, dtype=np.float32).reshape(1, 4, 4, 1)
        t = np.array([0, 1, 1, 0, 1, 0, 1, 1] * 2, dtype=np.float32).reshape(1, 4, 4, 1)
        assert math.isfinite(sg._head_loss(p, t, "cross_entropy"))
        plan = sg._StepPlan.allocate(1, 4, 4, np.float32)
        plan.probs[...] = p[:, None]
        dz = plan._logit_grads(t, W, "cross_entropy")
        clamped = np.broadcast_to((p == 0.0) | (p == 1.0), dz.shape[:1] + dz.shape[2:])
        for k in range(3):
            # +0.0 outside the clamp, as np.where writes it, also where p < t
            assert not dz[:, k][clamped].any() and not np.signbit(dz[:, k][clamped]).any()
            assert dz[:, k][~clamped].all()

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            LossWeights(0.2, 0.2, 0.2)
        with pytest.raises(ValueError):
            LossWeights(-0.1, 0.5, 0.6)

    @pytest.mark.parametrize("name", ["alpha_l", "alpha_m", "alpha_f"])
    def test_weights_must_be_finite(self, name):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                replace(W, **{name: bad})


class TestBackward:
    @pytest.mark.parametrize("loss_kind", ["cross_entropy", "soft_dice"])
    def test_matches_finite_differences(self, loss_kind):
        params = kink_free_params()
        img, tgt = random_instance(16, seed=0)
        w = W
        _, grads = backward(params, img, tgt, w, loss_kind)
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
        _, grads = backward(params, img, tgt, w, "cross_entropy")
        assert not grads["head_lower.kernel"].any()
        assert not grads["head_lower.bias"].any()
        assert not grads["head_middle.kernel"].any()
        assert not grads["head_middle.bias"].any()
        assert grads["head_final.kernel"].any()

    def test_deterministic(self):
        params = init_params(4)
        img, tgt = random_instance(16, seed=3)
        loss_a, a = backward(params, img, tgt, W, "cross_entropy")
        loss_b, b = backward(params, img, tgt, W, "cross_entropy")
        assert loss_a == loss_b
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
        before, _ = backward(params, *pair, W, "cross_entropy")
        after_params = train(params, [pair], cfg, W)
        after, _ = backward(after_params, *pair, W, "cross_entropy")
        assert after < before

    def test_zero_epochs_is_identity(self):
        pair = self.make_pair()
        params = init_params(0)
        out = train(params, [pair], replace(TRAIN, epochs=0), W)
        assert out is params

    def test_seeded_reproducibility(self):
        pairs = [self.make_pair(s) for s in range(4)]
        cfg = TrainConfig(epochs=2, learning_rate=1e-2, batch_size=2, loss_kind="soft_dice", seed=9)
        a = train(init_params(1), pairs, cfg, W)
        b = train(init_params(1), pairs, cfg, W)
        for name in PARAM_SHAPES:
            np.testing.assert_array_equal(a[name], b[name])

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            train(init_params(0), [], TRAIN, W)

    def test_mixed_sizes_rejected(self):
        a = (ImageGrid(np.zeros((16, 16))), BinaryMask(np.zeros((16, 16), dtype=int)))
        b = (ImageGrid(np.zeros((8, 8))), BinaryMask(np.zeros((8, 8), dtype=int)))
        with pytest.raises(ValueError, match="single raster size"):
            train(init_params(0), [a, b], replace(TRAIN, epochs=1), W)

    def test_divergence_names_the_learning_rate_and_epoch(self):
        pairs = [self.make_pair(s) for s in range(4)]
        cfg = replace(TRAIN, epochs=2, learning_rate=1e30)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning on the way
            with pytest.raises(sg.TrainingDiverged, match=r"in epoch 1 of 2: .* at learning_rate=1e\+30$"):
                train(init_params(0), pairs, cfg, W)

    def test_learning_rate_must_be_finite(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="learning_rate must be finite"):
                replace(TRAIN, learning_rate=bad)

    def test_epochs_and_batch_size_must_be_integers(self):
        for name in ("epochs", "batch_size"):
            for bad in (1.5, 2.5, True, "2", None):
                with pytest.raises(ValueError, match=f"{name} must be an integer"):
                    replace(TRAIN, **{name: bad})
        cfg = replace(TRAIN, epochs=np.int64(2), batch_size=np.int64(3))
        assert (cfg.epochs, cfg.batch_size) == (2, 3)


def labeled_set(n, size, seed):
    return [random_instance(size, seed=seed + i) for i in range(n)]


def assert_same_bytes(a, b):
    for name in PARAM_SHAPES:
        assert a[name].tobytes() == b[name].tobytes(), name


def plateau_set(n, size, seed):
    """Noise images, each with two L-shaped plateaus: where a pooling window
    straddles a plateau's edge or its inner corner, two or three of its
    activations are equal."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n):
        img = rng.uniform(0, 1, (size, size))
        for _ in range(2):
            v = rng.uniform(0.3, 1.0)
            y0, x0 = rng.integers(0, size // 2, 2)
            hh, ww = rng.integers(size // 4, size // 2, 2)
            img[y0 : y0 + hh, x0 : x0 + ww] = v
            img[y0 + hh // 2 : y0 + hh + size // 4, x0 : x0 + ww // 2 + 1] = v
        pairs.append((ImageGrid(img), BinaryMask((rng.uniform(0, 1, (size, size)) > 0.5).astype(int))))
    return pairs


def negative_partial_ties(x, dout):
    """How many 2x2 pooling windows of x (N, H, W, C) have a positive maximum
    held by exactly two, and by exactly three, of their four activations,
    and a negative gradient dout (N, H/2, W/2, C) to route."""
    n, h, w, c = x.shape
    windows = x.reshape(n, h // 2, 2, w // 2, 2, c)
    top = windows.max(axis=(2, 4))
    ways = (windows == top[:, :, None, :, None]).sum(axis=(2, 4))
    routed = (top > 0) & (dout < 0)
    return int((routed & (ways == 2)).sum()), int((routed & (ways == 3)).sum())


class TestConvWorkspace:
    """The step plan's conv data path against the padded-copy oracle, bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("raster", [(4, 4), (8, 20), (32, 32)])
    def test_im2col_matches_padded_copy(self, raster, dtype):
        rng = np.random.default_rng(0)
        for c in (1, 8, 16, 24, 48):
            bordered = np.zeros((3, raster[0] + 2, raster[1] + 2, c), dtype)
            cols = np.empty((3, *raster, 3, 3, c), dtype)
            out = np.empty((3, *raster, 1), dtype)
            # the first batch sizes the buffers; the smaller ones take [:n] views
            for n in (3, 1, 2):
                x = rng.standard_normal((n, *raster, c)).astype(dtype)
                conv = sg._Conv(bordered[:n], cols[:n], out[:n])
                np.copyto(conv.inner, x)
                assert np.array_equal(conv.im2col(), oracles.padded_im2col(x))

    def test_im2col_of_channel_slices(self):
        dc2 = np.random.default_rng(1).standard_normal((2, 8, 20, 24)).astype(np.float32)
        for x in (dc2[..., :16], dc2[..., 16:], dc2[:, ::2, ::2, 3:11]):
            assert not x.flags.c_contiguous
            n, h, w, c = x.shape
            conv = sg._Conv(np.zeros((n, h + 2, w + 2, c), x.dtype), np.empty((n, h, w, 3, 3, c), x.dtype),
                            np.empty((n, h, w, 1), x.dtype))
            np.copyto(conv.inner, x)
            assert np.array_equal(conv.im2col(), oracles.padded_im2col(x))

    @pytest.mark.parametrize("n, size, batch_size, loss_kind", [
        (5, 16, 2, "cross_entropy"),  # odd set: a tail batch of one
        (3, 16, 8, "soft_dice"),  # one batch, smaller than batch_size
        (7, 32, 3, "cross_entropy"),
    ])
    def test_train_matches_padded_copy(self, n, size, batch_size, loss_kind):
        data = labeled_set(n, size, seed=n)
        cfg = TrainConfig(epochs=2, learning_rate=0.05, batch_size=batch_size, loss_kind=loss_kind, seed=3)
        assert_same_bytes(train(init_params(1), data, cfg, W), oracles.padded_train(init_params(1), data, cfg, W))

    @pytest.mark.parametrize("loss_kind", ["cross_entropy", "soft_dice"])
    def test_train_matches_padded_copy_at_the_benchmark_shape(self, loss_kind):
        """32x32 rasters at the fine-tuning rate, 47 samples: each epoch ends
        in a tail batch of one."""
        data = labeled_set(47, 32, seed=47)
        cfg = TrainConfig(epochs=2, learning_rate=0.5, batch_size=2, loss_kind=loss_kind, seed=3)
        assert_same_bytes(train(init_params(1), data, cfg, W), oracles.padded_train(init_params(1), data, cfg, W))

    def test_train_matches_padded_copy_when_every_pooling_window_ties(self):
        """On all-zero images every activation is a function of the biases
        alone, so all four values of every pooling window are equal; with
        positive biases the gradient must go to the window's first element,
        as argmax sends it."""
        blank = (ImageGrid(np.zeros((16, 16))), BinaryMask(np.eye(16, dtype=int)))
        cfg = TrainConfig(epochs=3, learning_rate=0.5, batch_size=2, loss_kind="cross_entropy", seed=1)
        params = kink_free_params()
        assert_same_bytes(train(params, [blank] * 3, cfg, W), oracles.padded_train(params, [blank] * 3, cfg, W))

    @pytest.mark.parametrize("loss_kind", ["cross_entropy", "soft_dice"])
    def test_train_matches_padded_copy_with_partial_ties(self, loss_kind):
        data = plateau_set(5, 32, seed=5)
        cfg = TrainConfig(epochs=2, learning_rate=0.5, batch_size=2, loss_kind=loss_kind, seed=2)
        assert_same_bytes(train(init_params(3), data, cfg, W), oracles.padded_train(init_params(3), data, cfg, W))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("loss_kind", ["cross_entropy", "soft_dice"])
    def test_loss_and_grads_match_padded_copy_with_partial_ties(self, dtype, loss_kind):
        pairs = plateau_set(2, 32, seed=5)
        tensors = {name: arr.astype(dtype) for name, arr in init_params(3).tensors.items()}
        x = np.stack([img.values for img, _ in pairs]).astype(dtype)[..., None]
        t = np.stack([m.values for _, m in pairs]).astype(dtype)[..., None]
        loss, grads = sg._loss_and_grads_batch(tensors, x, t, W, loss_kind)
        ref_loss, ref_grads = oracles.padded_loss_and_grads(tensors, x, t, W, loss_kind)
        assert loss == ref_loss
        assert_same_bytes(grads, ref_grads)
        # the case holds what it is for: 2- and 3-way ties that route a
        # negative gradient, at both pooling stages
        plan = sg._StepPlan.allocate(2, 32, 32, dtype)
        np.copyto(plan.x, x)
        plan.step(sg._param_views(sg._gemm_params(tensors, dtype)), sg._param_views(np.empty(sg._PARAM_SIZE, dtype)),
                  t, W, loss_kind)
        two, three = negative_partial_ties(plan.convs["enc1"].out, plan.bufs["enc2.dx"])
        assert two > 0 and three > 0
        assert negative_partial_ties(plan.convs["enc2"].out, plan.bufs["bottleneck.dx"])[0] > 0

    @pytest.mark.parametrize("loss_kind", ["cross_entropy", "soft_dice"])
    def test_step_allocates_less_than_one_head_map(self, loss_kind):
        """After the first step, a step works in its plan's buffers: at batch
        2 and 32x32 it allocates less than one 8 KB head map."""
        rng = np.random.default_rng(7)
        plan = sg._StepPlan.allocate(2, 32, 32, np.float32)
        np.copyto(plan.x, rng.uniform(0, 1, plan.x.shape))
        np.copyto(plan.t, rng.uniform(0, 1, plan.t.shape) > 0.5)
        flat = sg._gemm_params(init_params(1).tensors, np.float32)
        params, grads = sg._param_views(flat), sg._param_views(np.empty_like(flat))
        bufsize = np.getbufsize()
        plan.step(params, grads, plan.t, W, loss_kind)
        tracemalloc.start()
        try:
            plan.step(params, grads, plan.t, W, loss_kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < plan.probs[:, 0].nbytes == 8192
        assert np.getbufsize() == bufsize  # the step's numpy setting stays inside it

    def test_train_memory_does_not_grow_with_the_labeled_set(self):
        """A batch is written straight from its samples into the step plan,
        so no float32 copy of the labeled set is made: at 32x32 and batch 2,
        eight times the samples raise a call's peak by less than 16 KiB
        (a copy would add about 8 KiB per sample)."""
        data = labeled_set(64, 32, seed=11)
        cfg = TrainConfig(epochs=1, learning_rate=0.05, batch_size=2, loss_kind="cross_entropy", seed=4)
        train(init_params(2), data[:2], cfg, W)  # numpy's one-time allocations
        peaks = []
        for n in (8, 64):
            params = init_params(2)
            tracemalloc.start()
            try:
                train(params, data[:n], cfg, W)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 16 * 1024

    def test_successive_trains_at_two_sizes(self):
        params = init_params(2)
        cfg = TrainConfig(epochs=2, learning_rate=0.05, batch_size=2, loss_kind="cross_entropy", seed=4)
        for size in (16, 32):
            data = labeled_set(3, size, seed=size)
            got = train(params, data, cfg, W)
            assert_same_bytes(got, oracles.padded_train(params, data, cfg, W))
            params = got

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("loss_kind", ["cross_entropy", "soft_dice"])
    def test_loss_and_grads_match_padded_copy(self, dtype, loss_kind):
        tensors = {name: arr.astype(dtype) for name, arr in init_params(3).tensors.items()}
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 1, (2, 16, 16, 1)).astype(dtype)
        t = (rng.uniform(0, 1, (2, 16, 16, 1)) > 0.5).astype(dtype)
        loss, grads = sg._loss_and_grads_batch(tensors, x, t, W, loss_kind)
        ref_loss, ref_grads = oracles.padded_loss_and_grads(tensors, x, t, W, loss_kind)
        assert loss == ref_loss
        assert_same_bytes(grads, ref_grads)

    def test_backward_scratch_lives_in_consumed_im2col_matrices(self):
        """The input-gradient matrices and outputs lie in dec2's im2col
        matrix and the routed pooling gradients in dec1's, and no two
        buffers live at the same time share memory.  Events of a step: 0
        forward, 1 dec2's weight gradient, 2 its input gradient, 3 dec1's
        weight gradient, 4 its input gradient, 5 bottleneck's, 6 pool2's
        routing plus dec1's skip slice, 7 enc2's gradients, 8 pool1's
        routing plus dec2's skip slice, 9 enc1's weight gradient.  The
        upsample gradients of the up slices of dec2's and dec1's input
        gradients are taken and consumed within events 2 and 4."""
        live = {
            "dec2.cols": (0, 1),
            "dec1.cols": (0, 3),
            "dgrad.dec2.cols": (2, 2),
            "dec2.dx": (2, 8),
            "dgrad.dec1.cols": (4, 4),
            "dec1.dx": (4, 6),
            "dgrad.bottleneck.cols": (5, 5),
            "bottleneck.dx": (5, 6),
            "pool2.routed": (6, 7),
            "dgrad.enc2.cols": (7, 7),
            "enc2.dx": (7, 8),
            "pool1.routed": (8, 9),
            "up.middle": (2, 2),
            "up.lower": (4, 4),
        }
        plan = sg._StepPlan.allocate(2, 32, 32, np.float32)
        s = plan.store
        for name in sg._CONVS[1:]:
            assert np.shares_memory(s[f"dgrad.{name}.cols"], s["dec2.cols"])
            assert np.shares_memory(s[f"{name}.dx"], s["dec2.cols"])
        for head in ("middle", "lower"):
            assert np.shares_memory(s[f"up.{head}"], s["dec2.cols"])
        for pool in ("pool1", "pool2"):
            assert np.shares_memory(s[f"{pool}.routed"], s["dec1.cols"])
        for a, b in itertools.combinations(live, 2):
            if live[a][0] <= live[b][1] and live[b][0] <= live[a][1]:
                assert not np.shares_memory(s[a], s[b]), (a, b)
        for name, arr in s.items():
            if name not in live:
                assert not any(np.shares_memory(arr, s[other]) for other in live), name
        owners = {id(o): o.nbytes for o in (arr if arr.base is None else arr.base for arr in s.values())}
        assert sum(owners.values()) <= 3.86 * 2**20

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_no_rows_leak_between_batches(self, dtype):
        """One plan over batches of 3, 2 and 1: each step on ``[:n]`` views
        equals a fresh plan (the one backward takes) on the same batch."""
        params = init_params(5)
        flat = sg._gemm_params(params.tensors, dtype)
        tensors = {name: arr.astype(dtype) for name, arr in params.tensors.items()}
        rng = np.random.default_rng(6)
        full = sg._StepPlan.allocate(3, 16, 16, dtype)
        for n in (3, 2, 1):
            x = rng.uniform(0, 1, (n, 16, 16, 1)).astype(dtype)
            t = (rng.uniform(0, 1, (n, 16, 16, 1)) > 0.5).astype(dtype)
            plan = full.batch(n)
            np.copyto(plan.x, x)
            views = sg._param_views(np.empty_like(flat))
            plan.step(sg._param_views(flat), views, t, W, "cross_entropy")
            loss, grads = plan.loss(t, W, "cross_entropy"), sg._canonical(views)
            ref_loss, ref_grads = sg._loss_and_grads_batch(tensors, x, t, W, "cross_entropy")
            assert loss == ref_loss
            assert_same_bytes(grads, ref_grads)
        if dtype is np.float64:
            image, target = ImageGrid(x[0, :, :, 0]), BinaryMask(t[0, :, :, 0].astype(int))
            ref_loss, ref_grads = backward(params, image, target, W, "cross_entropy")
            assert loss == ref_loss
            assert_same_bytes(grads, ref_grads)


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
