"""Deeply supervised encoder-decoder with hand-derived gradients.

A compact two-scale U-shaped network producing three foreground-probability
heads (lower / middle / final), all upscaled to input resolution with
nearest-neighbor interpolation.  Forward, loss, and backward passes are
plain numpy so every gradient is analytic and checkable against finite
differences.

Architecture (input H x W, both divisible by 4):

    enc1:  conv3x3  1 ->  8, ReLU                 H   x W
    pool1: maxpool 2x2                            H/2 x W/2
    enc2:  conv3x3  8 -> 16, ReLU                 H/2 x W/2
    pool2: maxpool 2x2                            H/4 x W/4
    bottleneck: conv3x3 16 -> 32, ReLU            H/4 x W/4
    dec1:  NN x2, concat enc2, conv3x3 48 -> 16   H/2 x W/2
    dec2:  NN x2, concat enc1, conv3x3 24 ->  8   H   x W

Heads are 1x1 convs + sigmoid: lower on the bottleneck (NN x4 to full
size), middle on dec1 (NN x2), final on dec2.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .core import BinaryMask, ImageGrid, ProbMap, crop_to, pad_to_multiple

EPS = 1e-8
LOSS_KINDS = ("cross_entropy", "soft_dice")

# Canonical parameter layout; also fixes checkpoint ordering.
PARAM_SHAPES: Dict[str, Tuple[int, ...]] = {
    "enc1.kernel": (8, 1, 3, 3),
    "enc1.bias": (8,),
    "enc2.kernel": (16, 8, 3, 3),
    "enc2.bias": (16,),
    "bottleneck.kernel": (32, 16, 3, 3),
    "bottleneck.bias": (32,),
    "dec1.kernel": (16, 48, 3, 3),
    "dec1.bias": (16,),
    "dec2.kernel": (8, 24, 3, 3),
    "dec2.bias": (8,),
    "head_lower.kernel": (1, 32, 1, 1),
    "head_lower.bias": (1,),
    "head_middle.kernel": (1, 16, 1, 1),
    "head_middle.bias": (1,),
    "head_final.kernel": (1, 8, 1, 1),
    "head_final.bias": (1,),
}


@dataclass(frozen=True)
class SegmenterParams:
    """All trainable tensors, keyed by the canonical layout."""

    tensors: Dict[str, np.ndarray]

    def __post_init__(self):
        if set(self.tensors) != set(PARAM_SHAPES):
            missing = set(PARAM_SHAPES) - set(self.tensors)
            extra = set(self.tensors) - set(PARAM_SHAPES)
            raise ValueError(f"parameter names mismatch (missing {missing}, extra {extra})")
        frozen = {}
        for name, shape in PARAM_SHAPES.items():
            arr = np.array(self.tensors[name], dtype=np.float64)
            if arr.shape != shape:
                raise ValueError(f"{name}: expected shape {shape}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name}: non-finite values")
            arr.setflags(write=False)
            frozen[name] = arr
        object.__setattr__(self, "tensors", frozen)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]


@dataclass(frozen=True)
class MultiHeadPrediction:
    """Foreground probabilities from the three heads, all at input size."""

    lower: ProbMap
    middle: ProbMap
    final: ProbMap

    def __post_init__(self):
        shapes = {m.values.shape for m in (self.lower, self.middle, self.final)}
        if len(shapes) != 1:
            raise ValueError(f"head outputs disagree in shape: {shapes}")


@dataclass(frozen=True)
class LossWeights:
    """Per-head loss weights; must sum to one."""

    alpha_l: float = 0.1
    alpha_m: float = 0.3
    alpha_f: float = 0.6

    def __post_init__(self):
        weights = (self.alpha_l, self.alpha_m, self.alpha_f)
        if any(w < 0 for w in weights):
            raise ValueError("loss weights must be nonnegative")
        if abs(sum(weights) - 1.0) > 1e-12:
            raise ValueError(f"loss weights must sum to 1, got {sum(weights)}")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    learning_rate: float = 1e-2
    batch_size: int = 2
    loss_kind: str = "cross_entropy"
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "batch_size"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.learning_rate <= 0 or self.batch_size <= 0:
            raise ValueError("learning rate and batch size must be positive")
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"loss_kind must be one of {LOSS_KINDS}")


def init_params(seed: int) -> SegmenterParams:
    """Uniform fan-in-scaled kernel init, zero biases; fully seed-determined."""
    rng = np.random.default_rng(seed)
    tensors = {}
    for name, shape in PARAM_SHAPES.items():
        if name.endswith(".bias"):
            tensors[name] = np.zeros(shape)
        else:
            fan_in = int(np.prod(shape[1:]))
            bound = 1.0 / math.sqrt(fan_in)
            tensors[name] = rng.uniform(-bound, bound, size=shape)
    return SegmenterParams(tensors)


# ---------------------------------------------------------------------------
# numpy layer primitives (batch layout N, H, W, C; channels-last keeps every
# conv a single flat gemm over the trailing axis)
# ---------------------------------------------------------------------------


Workspace = Dict[tuple, np.ndarray]


def _buffer(ws: Optional[Workspace], key: tuple, shape: Tuple[int, ...], dtype, fill=np.zeros) -> np.ndarray:
    """A `fill`-made array of `shape`, kept in the workspace when one is given.

    A workspace buffer is keyed by `key` and by `shape` without its batch
    axis, and is sized for the largest batch it has seen; a smaller batch
    gets a ``[:n]`` view of it.
    """
    if ws is None:
        return fill(shape, dtype)
    slot = (key, shape[1:], np.dtype(dtype))
    buf = ws.get(slot)
    if buf is None or len(buf) < shape[0]:
        buf = ws[slot] = fill(shape, dtype)
    return buf[: shape[0]]


def _bordered(shape: Tuple[int, ...], dtype, ws: Optional[Workspace] = None, key: str = "") -> np.ndarray:
    """Zero-bordered (N, H+2, W+2, C) buffer for a conv input of shape
    (N, H, W, C).  Callers write only its interior ``[:, 1:-1, 1:-1]``, so a
    workspace buffer keeps the border it was allocated with."""
    n, h, w, c = shape
    return _buffer(ws, (key, "bordered"), (n, h + 2, w + 2, c), dtype)


def _border(x: np.ndarray, ws: Optional[Workspace] = None, key: str = "") -> np.ndarray:
    """x (N, H, W, C) with a one-pixel zero border (the 3x3 same padding)."""
    xp = _bordered(x.shape, x.dtype, ws, key)
    xp[:, 1:-1, 1:-1] = x
    return xp


def _border_upsampled_skip(low: np.ndarray, skip: np.ndarray, ws: Optional[Workspace], key: str) -> np.ndarray:
    """Bordered concat of (NN x2 upsample of low, skip) on the channel axis,
    both written straight into the interior."""
    n, h, w, c = skip.shape
    cl = low.shape[3]
    xp = _bordered((n, h, w, cl + c), low.dtype, ws, key)
    inner = xp[:, 1:-1, 1:-1]
    inner[..., :cl] = _upsample(low, 2)
    inner[..., cl:] = skip
    return xp


def _im2col(xp: np.ndarray, ws: Optional[Workspace] = None, key: str = "") -> np.ndarray:
    """Unfold the 3x3 windows of a zero-bordered (N, H+2, W+2, C) input:
    (N*H*W, 9*C), columns in (dy, dx, c) order, one strided copy."""
    n, hp, wp, c = xp.shape
    sn, sh, sw, sc = xp.strides
    win = as_strided(xp, (n, hp - 2, wp - 2, 3, 3, c), (sn, sh, sw, sh, sw, sc), writeable=False)
    cols = _buffer(ws, (key, "cols"), win.shape, xp.dtype, np.empty)
    np.copyto(cols, win)
    return cols.reshape(n * (hp - 2) * (wp - 2), 9 * c)


def _kernel_matrix(k: np.ndarray) -> np.ndarray:
    """(O, C, 3, 3) parameter tensor as a (9*C, O) gemm operand."""
    return np.ascontiguousarray(k.transpose(2, 3, 1, 0)).reshape(-1, k.shape[0])


def _conv3x3(cols: np.ndarray, k: np.ndarray, b: np.ndarray, out_shape: Tuple[int, ...]) -> np.ndarray:
    return (cols @ _kernel_matrix(k) + b).reshape(out_shape[:3] + (k.shape[0],))


def _conv3x3_input_grad(dout: np.ndarray, k: np.ndarray, ws: Optional[Workspace] = None) -> np.ndarray:
    """Same-pad stride-1 transpose: convolve the output gradient with the
    180-degree-rotated kernel, channel roles swapped.  Its workspace buffers
    are keyed by shape only: no two calls are ever live at once."""
    kt = k[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)  # (C, O, 3, 3)
    n, h, w, _ = dout.shape
    cols = _im2col(_border(dout, ws, "dgrad"), ws, "dgrad")
    return _conv3x3(cols, kt, np.zeros(kt.shape[0], dtype=dout.dtype), (n, h, w))


def _conv3x3_param_grad(cols: np.ndarray, dout: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    o = dout.shape[3]
    c = cols.shape[1] // 9
    dkm = cols.T @ dout.reshape(-1, o)  # (9*C, O)
    dk = np.ascontiguousarray(dkm.reshape(3, 3, c, o).transpose(3, 2, 0, 1))
    return dk, dout.sum(axis=(0, 1, 2))


def _conv1x1(x: np.ndarray, k: np.ndarray, b: np.ndarray) -> np.ndarray:
    return x @ k[:, :, 0, 0].T + b


def _maxpool2(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    n, h, w, c = x.shape
    xr = x.reshape(n, h // 2, 2, w // 2, 2, c).transpose(0, 1, 3, 5, 2, 4).reshape(n, h // 2, w // 2, c, 4)
    idx = xr.argmax(axis=-1)
    out = np.take_along_axis(xr, idx[..., None], axis=-1)[..., 0]
    return out, idx


def _maxpool2_grad(dout: np.ndarray, idx: np.ndarray, in_shape: Tuple[int, ...]) -> np.ndarray:
    n, h, w, c = in_shape
    dxr = np.zeros((n, h // 2, w // 2, c, 4), dtype=dout.dtype)
    np.put_along_axis(dxr, idx[..., None], dout[..., None], axis=-1)
    return (
        dxr.reshape(n, h // 2, w // 2, c, 2, 2)
        .transpose(0, 1, 4, 2, 5, 3)
        .reshape(n, h, w, c)
    )


def _upsample(x: np.ndarray, factor: int) -> np.ndarray:
    return x.repeat(factor, axis=1).repeat(factor, axis=2)


def _upsample_grad(dout: np.ndarray, factor: int) -> np.ndarray:
    n, h, w, c = dout.shape
    return dout.reshape(n, h // factor, factor, w // factor, factor, c).sum(axis=(2, 4))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def _forward_batch(
    tensors: Dict[str, np.ndarray], x: np.ndarray, keep_cache: bool = False, ws: Optional[Workspace] = None
):
    """Run the network on a batch (N, H, W, 1); optionally keep activations.

    With a workspace the conv buffers come from it, so the cached im2col
    matrices stay valid only until the next call with the same workspace.
    """
    t = tensors

    def conv_relu(xp, name):
        cols = _im2col(xp, ws, name)
        out_shape = (xp.shape[0], xp.shape[1] - 2, xp.shape[2] - 2)
        out = np.maximum(_conv3x3(cols, t[f"{name}.kernel"], t[f"{name}.bias"], out_shape), 0.0)
        return out, cols

    a1, cols1 = conv_relu(_border(x, ws, "enc1"), "enc1")
    p1, idx1 = _maxpool2(a1)
    a2, cols2 = conv_relu(_border(p1, ws, "enc2"), "enc2")
    p2, idx2 = _maxpool2(a2)
    a3, cols3 = conv_relu(_border(p2, ws, "bottleneck"), "bottleneck")
    d1, cols4 = conv_relu(_border_upsampled_skip(a3, a2, ws, "dec1"), "dec1")
    d2, cols5 = conv_relu(_border_upsampled_skip(d1, a1, ws, "dec2"), "dec2")

    z_lower = _upsample(_conv1x1(a3, t["head_lower.kernel"], t["head_lower.bias"]), 4)
    z_middle = _upsample(_conv1x1(d1, t["head_middle.kernel"], t["head_middle.bias"]), 2)
    z_final = _conv1x1(d2, t["head_final.kernel"], t["head_final.bias"])
    probs = {"lower": _sigmoid(z_lower), "middle": _sigmoid(z_middle), "final": _sigmoid(z_final)}
    if not keep_cache:
        return probs, None
    cache = {"idx1": idx1, "idx2": idx2, "a1": a1, "a2": a2, "a3": a3, "d1": d1, "d2": d2,
             "cols": {"enc1": cols1, "enc2": cols2, "bottleneck": cols3, "dec1": cols4, "dec2": cols5}}
    return probs, cache


def forward(params: SegmenterParams, image: ImageGrid) -> MultiHeadPrediction:
    """Three probability maps at input resolution for one image."""
    h, w = image.height, image.width
    if h % 4 != 0 or w % 4 != 0:
        raise ValueError(
            f"image dimensions must be divisible by 4, got {h}x{w}; pad the input "
            "(see predict) and crop the outputs back"
        )
    probs, _ = _forward_batch(params.tensors, image.values[None, :, :, None])
    return MultiHeadPrediction(
        lower=ProbMap(probs["lower"][0, :, :, 0]),
        middle=ProbMap(probs["middle"][0, :, :, 0]),
        final=ProbMap(probs["final"][0, :, :, 0]),
    )


def predict(params: SegmenterParams, image: ImageGrid) -> MultiHeadPrediction:
    """forward with edge-replication padding to multiples of 4 and crop-back."""
    padded, orig = pad_to_multiple(image.values, 4)
    if padded.shape == image.values.shape:
        return forward(params, image)
    pred = forward(params, ImageGrid(padded))
    return MultiHeadPrediction(
        lower=ProbMap(crop_to(pred.lower.values, orig)),
        middle=ProbMap(crop_to(pred.middle.values, orig)),
        final=ProbMap(crop_to(pred.final.values, orig)),
    )


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def _one_sample(p: ProbMap, target: BinaryMask) -> Tuple[np.ndarray, np.ndarray]:
    """(p, target) as a training batch of one sample."""
    if p.values.shape != target.values.shape:
        raise ValueError(f"shape mismatch: {p.values.shape} vs {target.values.shape}")
    return p.values[None, :, :, None], target.values.astype(np.float64)[None, :, :, None]


def head_loss(p: ProbMap, target: BinaryMask) -> float:
    """Binary cross-entropy, mean over pixels, probabilities clamped to [eps, 1-eps]."""
    return _head_loss_grad_batch(*_one_sample(p, target), "cross_entropy")[0]


def soft_dice_loss(p: ProbMap, target: BinaryMask) -> float:
    """1 - (2 sum(p t) + s) / (sum p + sum t + s), smoothing s = 1."""
    return _head_loss_grad_batch(*_one_sample(p, target), "soft_dice")[0]


def total_loss(
    pred: MultiHeadPrediction,
    target: BinaryMask,
    w: LossWeights = LossWeights(),
    loss_kind: str = "cross_entropy",
) -> float:
    """Weighted sum of the three per-head losses; each is the training loss
    (``_head_loss_grad_batch``) on a batch of this one sample."""
    if loss_kind not in LOSS_KINDS:
        raise ValueError(f"loss_kind must be one of {LOSS_KINDS}")
    lower, middle, final = (
        _head_loss_grad_batch(*_one_sample(m, target), loss_kind)[0] for m in (pred.lower, pred.middle, pred.final)
    )
    return w.alpha_l * lower + w.alpha_m * middle + w.alpha_f * final


def _head_loss_grad_batch(p: np.ndarray, t: np.ndarray, loss_kind: str) -> Tuple[float, np.ndarray]:
    """Mean-over-batch head loss and its gradient w.r.t. the head logits.

    p is the sigmoid output (N, H, W, 1); t the targets with the same shape.
    Returns dL/dz where z is the pre-sigmoid logit map.
    """
    n = p.shape[0]
    npix = p.shape[1] * p.shape[2]
    if loss_kind == "cross_entropy":
        # the clamp must stay representable: float32 cannot hold 1 - 1e-8
        eps = max(EPS, 4.0 * float(np.finfo(p.dtype).eps))
        pc = np.clip(p, eps, 1.0 - eps)
        loss = float(np.mean(-(t * np.log(pc) + (1.0 - t) * np.log(1.0 - pc))))
        inside = (p > eps) & (p < 1.0 - eps)  # clamp is flat outside
        dz = np.where(inside, p - t, 0.0) / (n * npix)
        return loss, dz
    # soft dice, per sample then averaged over the batch
    smooth = 1.0
    inter = (p * t).sum(axis=(1, 2, 3))
    psum = p.sum(axis=(1, 2, 3))
    tsum = t.sum(axis=(1, 2, 3))
    num = 2.0 * inter + smooth
    den = psum + tsum + smooth
    loss = float(np.mean(1.0 - num / den))
    # d/dp_i of -(2*inter+s)/den = -(2 t_i den - num) / den^2
    dp = -(2.0 * t * den[:, None, None, None] - num[:, None, None, None]) / (den**2)[:, None, None, None]
    dz = dp * p * (1.0 - p) / n
    return loss, dz


def _loss_and_grads_batch(
    tensors: Dict[str, np.ndarray],
    x: np.ndarray,
    t: np.ndarray,
    w: LossWeights,
    loss_kind: str,
    ws: Optional[Workspace] = None,
) -> Tuple[float, Dict[str, np.ndarray]]:
    """Total loss (batch mean) and analytic gradients for every parameter;
    the conv buffers come from the workspace when one is given."""
    probs, cache = _forward_batch(tensors, x, keep_cache=True, ws=ws)
    tens = tensors
    grads: Dict[str, np.ndarray] = {}

    loss_l, dz_l = _head_loss_grad_batch(probs["lower"], t, loss_kind)
    loss_m, dz_m = _head_loss_grad_batch(probs["middle"], t, loss_kind)
    loss_f, dz_f = _head_loss_grad_batch(probs["final"], t, loss_kind)
    total = w.alpha_l * loss_l + w.alpha_m * loss_m + w.alpha_f * loss_f
    dz_l = w.alpha_l * dz_l
    dz_m = w.alpha_m * dz_m
    dz_f = w.alpha_f * dz_f

    # heads: logits were NN-upsampled, so gradients block-sum back down
    dz_l_small = _upsample_grad(dz_l, 4)
    dz_m_small = _upsample_grad(dz_m, 2)

    def head_grads(dz: np.ndarray, feat: np.ndarray, kname: str):
        grads[f"{kname}.kernel"] = np.tensordot(dz, feat, axes=([0, 1, 2], [0, 1, 2]))[:, :, None, None]
        grads[f"{kname}.bias"] = dz.sum(axis=(0, 1, 2))
        return dz * tens[f"{kname}.kernel"][:, :, 0, 0][0]

    dfeat_lower = head_grads(dz_l_small, cache["a3"], "head_lower")
    dfeat_middle = head_grads(dz_m_small, cache["d1"], "head_middle")
    dfeat_final = head_grads(dz_f, cache["d2"], "head_final")

    cols = cache["cols"]

    # decoder stage 2
    dpre = dfeat_final * (cache["d2"] > 0)
    grads["dec2.kernel"], grads["dec2.bias"] = _conv3x3_param_grad(cols["dec2"], dpre)
    dc2 = _conv3x3_input_grad(dpre, tens["dec2.kernel"], ws)
    du2, da1_skip = dc2[:, :, :, :16], dc2[:, :, :, 16:]

    # decoder stage 1
    dd1 = dfeat_middle + _upsample_grad(du2, 2)
    dpre = dd1 * (cache["d1"] > 0)
    grads["dec1.kernel"], grads["dec1.bias"] = _conv3x3_param_grad(cols["dec1"], dpre)
    dc1 = _conv3x3_input_grad(dpre, tens["dec1.kernel"], ws)
    du1, da2_skip = dc1[:, :, :, :32], dc1[:, :, :, 32:]

    # bottleneck
    da3 = dfeat_lower + _upsample_grad(du1, 2)
    dpre = da3 * (cache["a3"] > 0)
    grads["bottleneck.kernel"], grads["bottleneck.bias"] = _conv3x3_param_grad(cols["bottleneck"], dpre)
    dp2 = _conv3x3_input_grad(dpre, tens["bottleneck.kernel"], ws)

    # encoder stage 2
    da2 = da2_skip + _maxpool2_grad(dp2, cache["idx2"], cache["a2"].shape)
    dpre = da2 * (cache["a2"] > 0)
    grads["enc2.kernel"], grads["enc2.bias"] = _conv3x3_param_grad(cols["enc2"], dpre)
    dp1 = _conv3x3_input_grad(dpre, tens["enc2.kernel"], ws)

    # encoder stage 1
    da1 = da1_skip + _maxpool2_grad(dp1, cache["idx1"], cache["a1"].shape)
    dpre = da1 * (cache["a1"] > 0)
    grads["enc1.kernel"], grads["enc1.bias"] = _conv3x3_param_grad(cols["enc1"], dpre)

    return total, grads


def backward(
    params: SegmenterParams,
    image: ImageGrid,
    target: BinaryMask,
    w: LossWeights = LossWeights(),
    loss_kind: str = "cross_entropy",
) -> Dict[str, np.ndarray]:
    """Exact gradient of the weighted multi-head loss for one sample."""
    if loss_kind not in LOSS_KINDS:
        raise ValueError(f"loss_kind must be one of {LOSS_KINDS}")
    h, wdt = image.height, image.width
    if h % 4 != 0 or wdt % 4 != 0:
        raise ValueError(f"image dimensions must be divisible by 4, got {h}x{wdt}")
    if target.values.shape != image.values.shape:
        raise ValueError("target dimensions must match the image")
    x = image.values[None, :, :, None]
    t = target.values.astype(np.float64)[None, :, :, None]
    _, grads = _loss_and_grads_batch(params.tensors, x, t, w, loss_kind)
    return grads


def train(
    params: SegmenterParams,
    labeled_set: Sequence[Tuple[ImageGrid, BinaryMask]],
    cfg: TrainConfig,
    w: LossWeights = LossWeights(),
) -> SegmenterParams:
    """Mini-batch gradient descent over the labeled set, warm-starting from params.

    All samples must share one raster size (the harness checks its datasets
    for this when it loads them); shuffling and batching are fully
    determined by cfg.seed.  Descent runs in float32 for speed
    (deterministic; parameters are stored in float64 at the API boundary).
    Every step reuses one workspace of conv buffers, sized by the first
    (largest) batch.
    """
    if len(labeled_set) == 0:
        raise ValueError("labeled set must be nonempty")
    if cfg.epochs == 0:
        return params
    shapes = {img.values.shape for img, _ in labeled_set}
    if len(shapes) != 1:
        raise ValueError(f"training requires a single raster size, got {shapes}")
    h, wdt = next(iter(shapes))
    if h % 4 != 0 or wdt % 4 != 0:
        raise ValueError(f"training images must have dimensions divisible by 4, got {h}x{wdt}")

    images = np.stack([img.values for img, _ in labeled_set]).astype(np.float32)[:, :, :, None]
    targets = np.stack([m.values for _, m in labeled_set]).astype(np.float32)[:, :, :, None]
    rng = np.random.default_rng(cfg.seed)
    work = {name: arr.astype(np.float32) for name, arr in params.tensors.items()}
    lr = np.float32(cfg.learning_rate)
    ws: Workspace = {}
    for _ in range(cfg.epochs):
        order = rng.permutation(len(labeled_set))
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            _, grads = _loss_and_grads_batch(work, images[batch], targets[batch], w, cfg.loss_kind, ws)
            work = {name: work[name] - lr * grads[name] for name in PARAM_SHAPES}
    return SegmenterParams({name: arr.astype(np.float64) for name, arr in work.items()})


# ---------------------------------------------------------------------------
# checkpoint format: text header (name + shape per line, "end" sentinel)
# followed by raw little-endian float64 in header order
# ---------------------------------------------------------------------------

_CHECKPOINT_MAGIC = "multihead-segmenter-params v1"


def _layout_lines() -> list[str]:
    return [name + " " + " ".join(str(d) for d in shape) for name, shape in PARAM_SHAPES.items()]


def save_params(path: str, params: SegmenterParams) -> None:
    lines = [_CHECKPOINT_MAGIC, *_layout_lines(), "end"]
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("ascii"))
        for name in PARAM_SHAPES:
            fh.write(params[name].astype("<f8").tobytes())


def load_params(path: str) -> SegmenterParams:
    with open(path, "rb") as fh:
        data = fh.read()
    end = data.find(b"\nend\n")
    if end < 0:
        raise ValueError(f"{path}: checkpoint header has no 'end' line")
    end += len(b"\nend\n")
    header = data[:end].decode("ascii", errors="replace").splitlines()
    if header[0] != _CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: unrecognized checkpoint header {header[0]!r}")
    if header[1:-1] != _layout_lines():
        raise ValueError(f"{path}: checkpoint layout does not match the reference architecture")
    counts = {name: int(np.prod(shape)) for name, shape in PARAM_SHAPES.items()}
    needed = 8 * sum(counts.values())
    if len(data) - end < needed:
        raise ValueError(f"{path}: checkpoint needs {needed} bytes of parameters, the file has {len(data) - end}")
    tensors = {}
    offset = end
    for name, shape in PARAM_SHAPES.items():
        arr = np.frombuffer(data, dtype="<f8", count=counts[name], offset=offset).reshape(shape)
        tensors[name] = arr.astype(np.float64)
        offset += counts[name] * 8
    return SegmenterParams(tensors)
