"""Deeply supervised encoder-decoder with hand-derived gradients.

A compact two-scale U-shaped network producing three foreground-probability
heads (lower / middle / final), all upscaled to input resolution with
nearest-neighbor interpolation.  Forward, loss, and backward passes are
plain numpy so every gradient is analytic and checkable against finite
differences.

Architecture (input H x W, both divisible by 4; ``predict`` edge-pads any
other size):

    enc1:  conv3x3  1 ->  8, ReLU                 H   x W
    pool1: maxpool 2x2                            H/2 x W/2
    enc2:  conv3x3  8 -> 16, ReLU                 H/2 x W/2
    pool2: maxpool 2x2                            H/4 x W/4
    bottleneck: conv3x3 16 -> 32, ReLU            H/4 x W/4
    dec1:  NN x2, concat enc2, conv3x3 48 -> 16   H/2 x W/2
    dec2:  NN x2, concat enc1, conv3x3 24 ->  8   H   x W

Heads are 1x1 convs + sigmoid: lower on the bottleneck (NN x4 to full
size), middle on dec1 (NN x2), final on dec2.

Passes run on a plan of preallocated buffers (``_ForwardPlan``,
``_StepPlan``) with the 3x3 kernels in their (9*C, O) gemm layout.  ``train``
builds one step plan per call and runs every step as a fixed sequence of
gemms and ``out=`` numpy calls on it; ``backward`` builds a plan per call.
A step plan keeps the backward's later scratch in the im2col matrices of
dec2 and dec1, dead once their weight gradients, the backward's first two
gemms, are taken: dec2's holds the input-gradient im2col matrices and gemm
outputs, dec1's the routed max-pool gradients.  Bordered inputs keep
memory of their own, since their zero border must last from step to step.
``predict`` keeps one float32 forward plan and one packed float32
parameter vector on each ``SegmenterParams``, built on its first call and
reused by the next; ``train`` drops them when it starts from that
parameter set, so a model state never holds both plans at once.  Training
steps and inference both run in float32; ``backward`` runs its step in
float64, the dtype of the parameters, for the gradient check.  A step
computes gradients only, from the three head maps the plan holds in one
(N, 3, H, W, 1) buffer; ``backward`` computes its loss value afterwards
from those maps.  Every float, in either dtype, equals that of the
allocating reference loop in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .core import BinaryMask, ImageGrid, ProbMap, check_seed, pad_to_multiple

EPS = 1e-8
LOSS_KINDS = ("cross_entropy", "soft_dice")
# the two 2x2 poolings need both raster sides divisible by this
RASTER_MULTIPLE = 4

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
    """All trainable tensors, keyed by the canonical layout, and the
    inference state ``predict`` builds from them on its first call."""

    tensors: Dict[str, np.ndarray]
    _inference: Optional[_Inference] = field(default=None, init=False, repr=False, compare=False)

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

    alpha_l: float
    alpha_m: float
    alpha_f: float

    def __post_init__(self):
        for name in ("alpha_l", "alpha_m", "alpha_f"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        weights = (self.alpha_l, self.alpha_m, self.alpha_f)
        if any(w < 0 for w in weights):
            raise ValueError("loss weights must be nonnegative")
        if abs(sum(weights) - 1.0) > 1e-12:
            raise ValueError(f"loss weights must sum to 1, got {sum(weights)}")


class TrainingDiverged(ValueError):
    """Descent left the parameters non-finite; the learning rate is too large."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    learning_rate: float
    batch_size: int
    loss_kind: str
    seed: int

    def __post_init__(self):
        for name in ("epochs", "batch_size"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if not math.isfinite(self.learning_rate):
            raise ValueError(f"learning_rate must be finite, got {self.learning_rate!r}")
        if self.learning_rate > float(np.finfo(np.float32).max):  # training descends in float32
            raise ValueError(f"learning_rate must fit in float32, got {self.learning_rate!r}")
        if self.learning_rate <= 0 or self.batch_size <= 0:
            raise ValueError("learning rate and batch size must be positive")
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"loss_kind must be one of {LOSS_KINDS}")
        check_seed(self.seed)


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
# parameter layout: one flat vector per parameter set, 3x3 conv kernels kept
# as their (9*C, O) gemm operand (row (dy, dx, c), column o holds
# k[o, c, dy, dx]) for as long as a call works on them
# ---------------------------------------------------------------------------

_CONVS = ("enc1", "enc2", "bottleneck", "dec1", "dec2")
# raster scale of each conv (1 = input size, 2 = half, 4 = quarter)
_CONV_SCALE = {"enc1": 1, "enc2": 2, "bottleneck": 4, "dec1": 2, "dec2": 1}


def _gemm_shape(name: str) -> Tuple[int, ...]:
    shape = PARAM_SHAPES[name]
    if name.endswith(".kernel") and shape[2:] == (3, 3):
        return (9 * shape[1], shape[0])
    return shape


def _act_key(name: str) -> str:
    """Names the activation shape of a conv (raster scale x channels); the
    ReLU masks of same-shaped activations, and the bordered inputs of
    same-shaped input-gradient convs, are shared."""
    return f"{_CONV_SCALE[name]}x{PARAM_SHAPES[f'{name}.kernel'][0]}"


_PARAM_SIZE = sum(math.prod(shape) for shape in PARAM_SHAPES.values())


def _cut(buffer: np.ndarray, shapes: Dict[str, Tuple[int, ...]], start: int = 0) -> Dict[str, np.ndarray]:
    """name -> a view of that shape of a contiguous buffer's memory, the
    views laid end to end from element ``start``."""
    flat, views, offset = buffer.reshape(-1), {}, start
    for name, shape in shapes.items():
        size = math.prod(shape)
        views[name] = flat[offset : offset + size].reshape(shape)
        offset += size
    return views


def _param_views(flat: np.ndarray) -> Dict[str, np.ndarray]:
    """name -> view of a flat parameter vector, conv kernels in gemm layout."""
    return _cut(flat, {name: _gemm_shape(name) for name in PARAM_SHAPES})


def _gemm_params(tensors: Dict[str, np.ndarray], dtype) -> np.ndarray:
    """The canonical tensors cast to dtype, packed into one flat vector."""
    flat = np.empty(_PARAM_SIZE, dtype)
    for name, view in _param_views(flat).items():
        k = tensors[name]
        if view.shape != k.shape:  # (O, C, 3, 3) -> (3, 3, C, O) rows
            view, k = view.reshape(3, 3, k.shape[1], k.shape[0]), k.transpose(2, 3, 1, 0)
        np.copyto(view, k)
    return flat


def _canonical(views: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Gemm-layout views back in the PARAM_SHAPES layout (copies)."""
    out = {}
    for name, shape in PARAM_SHAPES.items():
        v = views[name]
        if v.shape != shape:
            v = v.reshape(3, 3, shape[1], shape[0]).transpose(3, 2, 0, 1)
        out[name] = np.ascontiguousarray(v)
    return out


# ---------------------------------------------------------------------------
# numpy layer primitives (batch layout N, H, W, C; channels-last keeps every
# conv a single flat gemm over the trailing axis)
# ---------------------------------------------------------------------------


class _Conv:
    """One 3x3 same-pad conv on preallocated buffers: the zero-bordered
    (N, H+2, W+2, C) input, whose interior callers write and whose border
    stays zero; the im2col matrix, columns in (dy, dx, c) order; and the
    (N, H, W, O) gemm output.  The matrix is one copy of the input's
    (N, H, W, 3, 3, C) window view, or, for a single channel, whose windows
    hold 3-float runs, nine copies of the input shifted by (dy, dx)."""

    def __init__(self, bordered: np.ndarray, cols: np.ndarray, out: np.ndarray):
        n, hp, wp, c = bordered.shape
        h, w = hp - 2, wp - 2
        self.inner = bordered[:, 1:-1, 1:-1]
        if c == 1:
            taps = cols.reshape(n, h, w, 9)
            self.copies = [
                (taps[..., 3 * dy + dx], bordered[:, dy : dy + h, dx : dx + w, 0]) for dy in range(3) for dx in range(3)
            ]
        else:
            sn, sh, sw, sc = bordered.strides
            windows = as_strided(bordered, (n, h, w, 3, 3, c), (sn, sh, sw, sh, sw, sc), writeable=False)
            self.copies = [(cols, windows)]
        self.cols = cols.reshape(n * h * w, 9 * c)
        self.out = out
        self.out2d = out.reshape(-1, out.shape[3])

    def im2col(self) -> np.ndarray:
        for dst, src in self.copies:
            np.copyto(dst, src)
        return self.cols

    def __call__(self, kmat: np.ndarray) -> np.ndarray:
        """out = im2col(input) @ kmat, with kmat the (9*C, O) gemm operand."""
        np.matmul(self.im2col(), kmat, out=self.out2d)
        return self.out


def _blocks(x: np.ndarray, factor: int) -> np.ndarray:
    """(N, H, W, C) as its (N, H/f, f, W/f, f, C) view."""
    n, h, w, c = x.shape
    return x.reshape(n, h // factor, factor, w // factor, factor, c)


def _maxpool2(x: np.ndarray, out: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """2x2 max pooling of x (N, H, W, C) into out (N, H/2, W/2, C): the max of
    each pair of rows into rows (N, H/2, W, C), whole rows at a time, then of
    each pair of its columns.  A max is one of its operands, so only the zero
    sign of a tie between +0.0 and -0.0 could depend on the order, and these
    ReLU outputs hold no -0.0: their inputs are gemm outputs, which hold
    none, plus a bias."""
    np.maximum(x[:, 0::2], x[:, 1::2], out=rows)
    return np.maximum(rows[:, :, 0::2], rows[:, :, 1::2], out=out)


def _maxpool2_grad(dout, x, pooled, out, hit, free) -> np.ndarray:
    """Route dout (N, H/2, W/2, C) to the first element of each 2x2 window of
    x that equals its pooled value, in argmax's (dy, dx) order, so ties go
    where argmax sends them.  Each strided quarter of out (N, H, W, C) is
    dout times its hit mask, so it holds a zero of dout's sign off the hits;
    added to a gemm output, which holds no -0.0, that is the +0.0 of argmax
    routing.  hit and free are boolean scratch of dout's shape."""
    for i, (dy, dx) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        np.equal(x[:, dy::2, dx::2], pooled, out=hit)
        if i == 0:
            np.logical_not(hit, out=free)
        else:
            np.logical_and(hit, free, out=hit)
            if i < 3:
                np.logical_xor(free, hit, out=free)
        np.multiply(dout, hit, out=out[:, dy::2, dx::2])
    return out


def _upsample2_grad(dout: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The block sums of the gradient of an NN upsample by 2, for a channel
    slice dout of a gemm output, as three adds of strided views.  On such a
    slice numpy's block sum (``_blocks(dout, 2).sum(axis=(2, 4))``) adds
    each window in row-major order, ((x00 + x01) + x10) + x11, from a +0.0
    start that changes no sum here, since a gemm output holds no -0.0."""
    np.add(dout[:, 0::2, 0::2], dout[:, 0::2, 1::2], out=out)
    np.add(out, dout[:, 1::2, 0::2], out=out)
    return np.add(out, dout[:, 1::2, 1::2], out=out)


def _sigmoid(z: np.ndarray, out: np.ndarray, pos: np.ndarray, den: np.ndarray) -> np.ndarray:
    """out = 1 / (1 + e) where z >= 0 and e / (1 + e) elsewhere, with
    e = exp(-|z|), so exp never overflows.  z is overwritten; pos (bool) and
    den are scratch of z's shape."""
    np.greater_equal(z, 0, out=pos)
    np.abs(z, out=z)
    np.negative(z, out=z)
    np.exp(z, out=z)
    np.add(z, 1.0, out=den)
    np.copyto(z, 1.0, where=pos)
    return np.divide(z, den, out=out)


def _clamp_eps(dtype) -> float:
    """The cross entropy's probability clamp, which must stay representable:
    float32 cannot hold 1 - 1e-8."""
    return max(EPS, 4.0 * float(np.finfo(dtype).eps))


def _head_loss(p: np.ndarray, t: np.ndarray, loss_kind: str) -> float:
    """Mean-over-batch loss of one head map p (N, H, W, 1) against targets t
    of the same shape; soft dice per sample, then averaged."""
    if loss_kind == "cross_entropy":
        eps = _clamp_eps(p.dtype)
        pc = np.clip(p, eps, 1.0 - eps)
        return float(np.mean(-(t * np.log(pc) + (1.0 - t) * np.log(1.0 - pc))))
    smooth = 1.0
    inter = (p * t).sum(axis=(1, 2, 3))
    psum = p.sum(axis=(1, 2, 3))
    tsum = t.sum(axis=(1, 2, 3))
    return float(np.mean(1.0 - (2.0 * inter + smooth) / (psum + tsum + smooth)))


# ---------------------------------------------------------------------------
# step plan: every buffer a forward (and backward) pass writes, allocated once
# ---------------------------------------------------------------------------

# ufunc buffer size (elements) during a training step
_UFUNC_BUFFER = 256
# each head: the feature map its 1x1 conv reads and the NN upsample factor
# that takes its logits to input size
_HEADS = (("lower", "bottleneck", 4), ("middle", "dec1", 2), ("final", "dec2", 1))


def _head_views(flat: np.ndarray, h: int, w: int) -> Dict[str, np.ndarray]:
    """head -> its (N, H/f, W/f, 1) view of a flat (N, L) head buffer, the
    heads laid end to end along L."""
    views, offset = {}, 0
    for head, _, factor in _HEADS:
        hh, ww = h // factor, w // factor
        views[head] = flat[:, offset : offset + hh * ww].reshape(-1, hh, ww, 1)
        offset += hh * ww
    return views


class _ForwardPlan:
    """The buffers of one forward pass over a batch of N rasters, and the
    pass itself.  Every buffer has the batch as its leading axis, so
    ``batch(n)`` gives a plan on ``[:n]`` views of the same memory.  The
    three heads' logits lie end to end in one flat (N, L) buffer, so one
    sigmoid covers them, and their maps at input size share one
    (N, 3, H, W, 1) buffer, ``probs``, head k in ``probs[:, k]``."""

    def __init__(self, store: Dict[str, np.ndarray], n: int):
        self.store, self.n = store, n
        s = {key: arr[:n] for key, arr in store.items()}
        self.convs = {name: _Conv(s[f"{name}.in"], s[f"{name}.cols"], s[f"{name}.out"]) for name in _CONVS}
        self.bordered_x = s["enc1.in"]
        self.x = self.convs["enc1"].inner
        dec1, dec2 = self.convs["dec1"].inner, self.convs["dec2"].inner
        self.dec1_up, self.dec1_skip = _blocks(dec1[..., :32], 2), dec1[..., 32:]
        self.dec2_up, self.dec2_skip = _blocks(dec2[..., :16], 2), dec2[..., 16:]
        # per conv, its bias repeated along one (W*O) row of its gemm output
        self.bias_rows = {name: np.empty(conv.out[0, 0].size, self.x.dtype) for name, conv in self.convs.items()}
        self.probs = s["probs"]
        h, w = self.probs.shape[2:4]
        self.z, sig = _head_views(s["z"], h, w), _head_views(s["sig"], h, w)
        # per head, its map as blocks of the NN upsample and its sigmoid
        self.upsample = [
            (_blocks(self.probs[:, k], factor), sig[head][:, :, None, :, None]) for k, (head, _, factor) in enumerate(_HEADS)
        ]
        self.bufs = s

    @classmethod
    def allocate(cls, n: int, h: int, w: int, dtype):
        return cls(cls._store(n, h, w, dtype), n)

    def batch(self, n: int):
        return type(self)(self.store, n)

    @staticmethod
    def _store(n, h, w, dtype, shared_cols=True) -> Dict[str, np.ndarray]:
        """The buffers of a plan.  A forward pass needs one conv's im2col
        matrix at a time, so with shared_cols they are all views of one
        buffer, sized for the largest; a step, whose backward pass reads
        them all again, passes False."""
        store = {}
        cols_shapes = {}
        for name in _CONVS:
            o, c = PARAM_SHAPES[f"{name}.kernel"][:2]
            hh, ww = h // _CONV_SCALE[name], w // _CONV_SCALE[name]
            store[f"{name}.in"] = np.zeros((n, hh + 2, ww + 2, c), dtype)
            cols_shapes[name] = (n, hh, ww, 3, 3, c)
            store[f"{name}.out"] = np.empty((n, hh, ww, o), dtype)
        if shared_cols:
            cols = np.empty(max(math.prod(shape) for shape in cols_shapes.values()), dtype)
            for name, shape in cols_shapes.items():
                store[f"{name}.cols"] = cols[: math.prod(shape)].reshape(shape)
        else:
            for name, shape in cols_shapes.items():
                store[f"{name}.cols"] = np.empty(shape, dtype)
        flat = (n, sum((h // factor) * (w // factor) for _, _, factor in _HEADS))
        for pool, act in (("pool1", "enc1"), ("pool2", "enc2")):
            hh, ww, c = store[f"{act}.out"].shape[1:]
            store[f"{pool}.rows"] = np.empty((n, hh // 2, ww, c), dtype)
        store["z"], store["sig"], store["den"] = (np.empty(flat, dtype) for _ in range(3))
        store["pos"] = np.empty(flat, bool)
        store["probs"] = np.empty((n, len(_HEADS), h, w, 1), dtype)
        return store

    def forward(self, p: Dict[str, np.ndarray]) -> np.ndarray:
        """``probs``: the (lower, middle, final) foreground probabilities at
        input size for the batch written into ``x``, with p the gemm-layout
        parameters.  Biases add over whole (W*O) rows of a gemm output; the
        sigmoid runs at head resolution, before the NN upsample."""
        c, s = self.convs, self.bufs

        def conv_relu(name):
            out, bias = c[name](p[f"{name}.kernel"]), self.bias_rows[name]
            np.copyto(bias.reshape(-1, out.shape[3]), p[f"{name}.bias"])
            rows = out.reshape(-1, bias.size)
            np.add(rows, bias, out=rows)
            return np.maximum(out, 0.0, out=out)

        a1 = conv_relu("enc1")
        _maxpool2(a1, c["enc2"].inner, s["pool1.rows"])
        a2 = conv_relu("enc2")
        _maxpool2(a2, c["bottleneck"].inner, s["pool2.rows"])
        a3 = conv_relu("bottleneck")
        np.copyto(self.dec1_up, a3[:, :, None, :, None])
        np.copyto(self.dec1_skip, a2)
        d1 = conv_relu("dec1")
        np.copyto(self.dec2_up, d1[:, :, None, :, None])
        np.copyto(self.dec2_skip, a1)
        conv_relu("dec2")

        for head, feat, _ in _HEADS:
            z = np.matmul(c[feat].out, p[f"head_{head}.kernel"][:, :, 0, 0].T, out=self.z[head])
            np.add(z, p[f"head_{head}.bias"], out=z)
        _sigmoid(s["z"], s["sig"], s["pos"], s["den"])
        for blocks, sig in self.upsample:
            np.copyto(blocks, sig)
        return self.probs

    def loss(self, t: np.ndarray, w: LossWeights, loss_kind: str) -> float:
        """The weighted loss (batch mean) of the maps in ``probs`` against
        targets t (N, H, W, 1): the loss whose gradient a step descends."""
        lower, middle, final = (_head_loss(np.ascontiguousarray(self.probs[:, k]), t, loss_kind) for k in range(3))
        return w.alpha_l * lower + w.alpha_m * middle + w.alpha_f * final


class _StepPlan(_ForwardPlan):
    """A forward plan plus the buffers of the backward pass.

    The backward's first two gemms take the weight gradients of dec2 and
    dec1, after which their im2col matrices are dead, so the scratch the
    rest of it writes lives there, in views cut end to end:

    - dec2's matrix holds the four input-gradient im2col matrices, all at
      its start (each is consumed by its gemm at once), then the four
      input-gradient gemm outputs ``{dec2,dec1,bottleneck,enc2}.dx``, each
      of its own, since their skip slices live until enc2 and enc1;
    - dec1's matrix holds the two routed max-pool gradients.

    Two kinds of buffer keep memory of their own: the bordered inputs,
    whose zero border must last from step to step (the input-gradient convs
    of dec1 and enc2, whose shapes match, share one), and every buffer
    written before dec2's weight gradient."""

    def __init__(self, store, n):
        super().__init__(store, n)
        s = self.bufs
        self.dgrad = {
            name: _Conv(s[f"dgrad{_act_key(name)}.in"], s[f"dgrad.{name}.cols"], s[f"{name}.dx"])
            for name in _CONVS[1:]
        }
        # per input-gradient conv, the (9*O, C) gemm operand of its kernel
        # turned 180 degrees with the channel roles swapped
        self.flip = {}
        for name in _CONVS[1:]:
            o, c = PARAM_SHAPES[f"{name}.kernel"][:2]
            self.flip[name] = np.empty((9 * o, c), self.x.dtype)
        # the head weights (alpha_l, alpha_m, alpha_f), against probs' head axis
        self.alphas = np.empty((1, len(_HEADS), 1, 1, 1), self.x.dtype)
        # per head, its weighted logit gradient at input size as blocks of
        # the NN upsample
        self.dz_blocks = [_blocks(s["dz"][:, k], factor) for k, (_, _, factor) in enumerate(_HEADS)]
        self.t = s["t"]

    @staticmethod
    def _store(n, h, w, dtype):
        store = _ForwardPlan._store(n, h, w, dtype, shared_cols=False)
        dgrad_cols, dx = {}, {}
        for name in _CONVS:
            o, c = PARAM_SHAPES[f"{name}.kernel"][:2]
            hh, ww = h // _CONV_SCALE[name], w // _CONV_SCALE[name]
            key = _act_key(name)
            store[f"mask{key}"] = np.empty((n, hh, ww, o), bool)
            if name != "enc1":
                store[f"dgrad{key}.in"] = np.zeros((n, hh + 2, ww + 2, o), dtype)
                dgrad_cols[f"dgrad.{name}.cols"] = (n, hh, ww, 3, 3, o)
                dx[f"{name}.dx"] = (n, hh, ww, c)
        for cols_name, shape in dgrad_cols.items():
            store.update(_cut(store["dec2.cols"], {cols_name: shape}))
        store.update(_cut(store["dec2.cols"], dx, start=max(map(math.prod, dgrad_cols.values()))))
        routed = {f"{pool}.routed": store[f"{act}.out"].shape for pool, act in (("pool1", "enc1"), ("pool2", "enc2"))}
        store.update(_cut(store["dec1.cols"], routed))
        for head, feat, _ in _HEADS:
            store[f"dfeat.{head}"] = np.empty_like(store[f"{feat}.out"])
            store[f"dz.{head}"] = np.empty_like(store[f"{feat}.out"][..., :1])
        for head in ("lower", "middle"):
            store[f"up.{head}"] = np.empty_like(store[f"dfeat.{head}"])
        for pool, pooled in (("pool1", "enc2"), ("pool2", "bottleneck")):
            window_shape = store[f"{pooled}.in"][:, 1:-1, 1:-1].shape
            store[f"{pool}.hit"] = np.empty(window_shape, bool)
            store[f"{pool}.free"] = np.empty(window_shape, bool)
        # the head-loss kernel: its gradient, scratch and per-(sample, head)
        # soft-dice sums
        store["dz"] = np.empty_like(store["probs"])
        store["loss.scratch"] = np.empty_like(store["probs"])
        store["loss.inside"] = np.empty(store["probs"].shape, bool)
        store["loss.below"] = np.empty(store["probs"].shape, bool)
        store["loss.2t"] = np.empty((n, 1, h, w, 1), dtype)
        for key in ("inter", "psum", "num", "den", "den2"):
            store[f"loss.{key}"] = np.empty((n, len(_HEADS)), dtype)
        store["loss.tsum"] = np.empty((n, 1), dtype)
        store["t"] = np.empty((n, h, w, 1), dtype)
        return store

    def _logit_grads(self, t: np.ndarray, w: LossWeights, loss_kind: str) -> np.ndarray:
        """The gradient of each head's loss w.r.t. its logits at input size,
        times the head's weight, in the (N, 3, H, W, 1) buffer ``dz``: float
        for float the gradient of the batch mean of ``_head_loss``.  The
        cross entropy's clamp is flat, so its gradient is +0.0 outside."""
        s, probs, dz = self.bufs, self.probs, self.bufs["dz"]
        n, npix = probs.shape[0], probs.shape[2] * probs.shape[3]
        tt = t[:, None]
        if loss_kind == "cross_entropy":
            eps = _clamp_eps(probs.dtype)
            inside, below = s["loss.inside"], s["loss.below"]
            np.subtract(probs, tt, out=dz)
            np.greater(probs, eps, out=inside)
            np.less(probs, 1.0 - eps, out=below)
            np.logical_and(inside, below, out=inside)
            np.logical_not(inside, out=inside)
            np.copyto(dz, 0.0, where=inside)
            np.divide(dz, n * npix, out=dz)
        else:
            # d/dp_i of -(2*inter+s)/den = -(2 t_i den - num) / den^2
            scratch, num, den, den2 = s["loss.scratch"], s["loss.num"], s["loss.den"], s["loss.den2"]
            np.multiply(probs, tt, out=scratch)
            np.add.reduce(scratch, axis=(2, 3, 4), out=s["loss.inter"])
            np.add.reduce(probs, axis=(2, 3, 4), out=s["loss.psum"])
            np.add.reduce(t, axis=(1, 2, 3), out=s["loss.tsum"][:, 0])
            np.multiply(s["loss.inter"], 2.0, out=num)
            np.add(num, 1.0, out=num)
            np.add(s["loss.psum"], s["loss.tsum"], out=den)
            np.add(den, 1.0, out=den)
            np.square(den, out=den2)
            np.multiply(tt, 2.0, out=s["loss.2t"])
            np.multiply(s["loss.2t"], den[:, :, None, None, None], out=dz)
            np.subtract(dz, num[:, :, None, None, None], out=dz)
            np.negative(dz, out=dz)
            np.divide(dz, den2[:, :, None, None, None], out=dz)
            np.multiply(dz, probs, out=dz)
            np.subtract(1.0, probs, out=scratch)
            np.multiply(dz, scratch, out=dz)
            np.divide(dz, n, out=dz)
        self.alphas[0, :, 0, 0, 0] = (w.alpha_l, w.alpha_m, w.alpha_f)
        return np.multiply(dz, self.alphas, out=dz)

    def step(self, p, g, t, w: LossWeights, loss_kind: str) -> None:
        """The analytic gradient of every parameter (gemm layout) into g, for
        the total loss (batch mean) of the batch in ``x`` against targets t.
        The loss value itself is left to ``loss``."""
        with np.errstate():  # restores the buffer size on exit
            # numpy gives each ufunc call over strided or broadcast operands
            # iteration buffers of up to this many elements per operand, and
            # allocates them even where nothing is cast; at the default 8192
            # a batch-2 32x32 step peaked at 68 KB of them
            np.setbufsize(_UFUNC_BUFFER)
            self._step(p, g, t, w, loss_kind)

    def _step(self, p, g, t, w, loss_kind):
        c, s, dg = self.convs, self.bufs, self.dgrad
        self.forward(p)
        dz = self._logit_grads(t, w, loss_kind)

        # heads: logits were NN-upsampled, so gradients block-sum back down;
        # the final head's is copied out of the stack to be contiguous
        def head_grads(k, head, feat, factor):
            dzk = s[f"dz.{head}"]
            if factor > 1:
                np.add.reduce(self.dz_blocks[k], axis=(2, 4), out=dzk)
            else:
                np.copyto(dzk, dz[:, k])
            kern, act = p[f"head_{head}.kernel"], c[feat].out
            np.dot(dzk.reshape(1, -1), act.reshape(-1, kern.shape[1]), out=g[f"head_{head}.kernel"].reshape(1, -1))
            np.add.reduce(dzk, axis=(0, 1, 2), out=g[f"head_{head}.bias"])
            return np.multiply(dzk, kern[0, :, 0, 0], out=s[f"dfeat.{head}"])

        dfeat_lower, dfeat_middle, dfeat_final = (head_grads(k, *head) for k, head in enumerate(_HEADS))

        def conv_grads(name, da):
            """Parameter gradients of conv `name` from da, the gradient at its
            ReLU output (turned in place into the pre-activation gradient),
            and its input gradient unless it is the first layer."""
            act = c[name].out
            mask = np.greater(act, 0, out=s[f"mask{_act_key(name)}"])
            dpre = np.multiply(da, mask, out=da)
            dpre2d = dpre.reshape(-1, act.shape[3])
            np.matmul(c[name].cols.T, dpre2d, out=g[f"{name}.kernel"])
            np.add.reduce(dpre, axis=(0, 1, 2), out=g[f"{name}.bias"])
            if name == "enc1":
                return None
            km = p[f"{name}.kernel"]
            o, ch = km.shape[1], km.shape[0] // 9
            flip = self.flip[name]
            np.copyto(flip.reshape(3, 3, o, ch), km.reshape(3, 3, ch, o)[::-1, ::-1].transpose(0, 1, 3, 2))
            np.copyto(dg[name].inner, dpre)
            return dg[name](flip)

        dc2 = conv_grads("dec2", dfeat_final)
        du2, da1_skip = dc2[..., :16], dc2[..., 16:]

        dd1 = np.add(dfeat_middle, _upsample2_grad(du2, s["up.middle"]), out=dfeat_middle)
        dc1 = conv_grads("dec1", dd1)
        du1, da2_skip = dc1[..., :32], dc1[..., 32:]

        da3 = np.add(dfeat_lower, _upsample2_grad(du1, s["up.lower"]), out=dfeat_lower)
        dp2 = conv_grads("bottleneck", da3)

        pool2 = [s[f"pool2.{part}"] for part in ("routed", "hit", "free")]
        routed = _maxpool2_grad(dp2, c["enc2"].out, c["bottleneck"].inner, *pool2)
        dp1 = conv_grads("enc2", np.add(da2_skip, routed, out=routed))

        pool1 = [s[f"pool1.{part}"] for part in ("routed", "hit", "free")]
        routed = _maxpool2_grad(dp1, c["enc1"].out, c["enc2"].inner, *pool1)
        conv_grads("enc1", np.add(da1_skip, routed, out=routed))


# ---------------------------------------------------------------------------
# inference and loss
# ---------------------------------------------------------------------------


class _Inference:
    """What ``predict`` reuses across its calls on one parameter set: the
    parameters packed in gemm layout, and a single-image forward plan for
    the raster size of the last call, both in float32, the precision
    ``train`` descends in."""

    def __init__(self, tensors: Dict[str, np.ndarray]):
        self.params = _param_views(_gemm_params(tensors, np.float32))
        self.plan: Optional[_ForwardPlan] = None

    def plan_for(self, h: int, w: int) -> _ForwardPlan:
        if self.plan is None or self.plan.probs.shape[2:4] != (h, w):
            self.plan = None  # free the old buffers before allocating new ones
            self.plan = _ForwardPlan.allocate(1, h, w, np.float32)
        return self.plan


def predict(params: SegmenterParams, image: ImageGrid) -> MultiHeadPrediction:
    """Three probability maps at input resolution for one image of any size:
    one forward pass over the image edge-padded to multiples of 4, cropped
    back.  The pass runs in float32 on the plan kept on params (built by
    the first call), on the image rounded to float32 as ``train`` rounds
    it; the maps are float64 copies, exact widenings of the float32 ones,
    so a later call changes no earlier result.  Calls on one parameter set
    must not overlap."""
    padded, (h, w) = pad_to_multiple(image.values, RASTER_MULTIPLE)
    inference = params._inference
    if inference is None:
        inference = _Inference(params.tensors)
        object.__setattr__(params, "_inference", inference)
    plan = inference.plan_for(*padded.shape)
    plan.x[0, :, :, 0] = padded
    probs = plan.forward(inference.params)
    lower, middle, final = (ProbMap(probs[0, k, :h, :w, 0]) for k in range(3))
    return MultiHeadPrediction(lower=lower, middle=middle, final=final)


def _loss_and_grads_batch(
    tensors: Dict[str, np.ndarray], x: np.ndarray, t: np.ndarray, w: LossWeights, loss_kind: str
) -> Tuple[float, Dict[str, np.ndarray]]:
    """Total loss (batch mean) and analytic gradients for every parameter,
    one step on a plan of its own, in the dtype of x and the tensors."""
    dtype = np.result_type(x, tensors["enc1.kernel"])
    plan = _StepPlan.allocate(x.shape[0], x.shape[1], x.shape[2], dtype)
    np.copyto(plan.x, x)
    grads = _param_views(np.empty(_PARAM_SIZE, dtype))
    plan.step(_param_views(_gemm_params(tensors, dtype)), grads, t, w, loss_kind)
    return plan.loss(t, w, loss_kind), _canonical(grads)


def backward(
    params: SegmenterParams,
    image: ImageGrid,
    target: BinaryMask,
    w: LossWeights,
    loss_kind: str,
) -> Tuple[float, Dict[str, np.ndarray]]:
    """The weighted multi-head loss of one sample, the loss that training
    descends, and its exact gradient for every parameter."""
    if loss_kind not in LOSS_KINDS:
        raise ValueError(f"loss_kind must be one of {LOSS_KINDS}")
    h, wdt = image.height, image.width
    if h % RASTER_MULTIPLE != 0 or wdt % RASTER_MULTIPLE != 0:
        raise ValueError(f"image dimensions must be divisible by {RASTER_MULTIPLE}, got {h}x{wdt}")
    if target.values.shape != image.values.shape:
        raise ValueError("target dimensions must match the image")
    x = image.values[None, :, :, None]
    t = target.values.astype(np.float64)[None, :, :, None]
    return _loss_and_grads_batch(params.tensors, x, t, w, loss_kind)


def train(
    params: SegmenterParams,
    labeled_set: Sequence[Tuple[ImageGrid, BinaryMask]],
    cfg: TrainConfig,
    w: LossWeights,
) -> SegmenterParams:
    """Mini-batch gradient descent over the labeled set, warm-starting from params.

    All samples must share one raster size (the harness checks its datasets
    for this when it loads them); shuffling and batching are fully
    determined by cfg.seed.  Descent runs in float32 for speed
    (deterministic; parameters are stored in float64 at the API boundary).
    Every step runs on one step plan, sized by the first (largest) batch; a
    smaller tail batch takes ``[:n]`` views of its buffers.  The parameters
    and their gradients are two flat float32 vectors, conv kernels in gemm
    layout, and the descent step updates them in place.  After each epoch a
    non-finite parameter raises ``TrainingDiverged``, naming the epoch and
    the learning rate.  Before it allocates its step plan it drops the
    inference plan ``predict`` kept on params.
    """
    if len(labeled_set) == 0:
        raise ValueError("labeled set must be nonempty")
    if cfg.epochs == 0:
        return params
    shapes = {img.values.shape for img, _ in labeled_set}
    if len(shapes) != 1:
        raise ValueError(f"training requires a single raster size, got {shapes}")
    h, wdt = next(iter(shapes))
    if h % RASTER_MULTIPLE != 0 or wdt % RASTER_MULTIPLE != 0:
        raise ValueError(f"training images must have dimensions divisible by {RASTER_MULTIPLE}, got {h}x{wdt}")

    object.__setattr__(params, "_inference", None)
    # images with the zero border of the first conv, so a batch is one gather
    images = np.zeros((len(labeled_set), h + 2, wdt + 2, 1), np.float32)
    images[:, 1:-1, 1:-1, 0] = np.stack([img.values for img, _ in labeled_set])
    targets = np.stack([m.values for _, m in labeled_set]).astype(np.float32)[:, :, :, None]
    rng = np.random.default_rng(cfg.seed)
    flat = _gemm_params(params.tensors, np.float32)
    grad = np.empty_like(flat)
    work, grads = _param_views(flat), _param_views(grad)
    lr = np.float32(cfg.learning_rate)
    full = _StepPlan.allocate(min(cfg.batch_size, len(labeled_set)), h, wdt, np.float32)
    plans = {full.n: full}
    # a diverging descent overflows; the epoch check below reports it once
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.epochs + 1):
            order = rng.permutation(len(labeled_set))
            for start in range(0, len(order), cfg.batch_size):
                batch = order[start : start + cfg.batch_size]
                plan = plans.get(len(batch)) or plans.setdefault(len(batch), full.batch(len(batch)))
                np.take(images, batch, axis=0, out=plan.bordered_x)
                np.take(targets, batch, axis=0, out=plan.t)
                plan.step(work, grads, plan.t, w, cfg.loss_kind)
                grad *= lr  # flat -= lr * grad, float for float
                flat -= grad
            if not np.isfinite(flat).all():
                raise TrainingDiverged(
                    f"training diverged in epoch {epoch} of {cfg.epochs}: non-finite parameters "
                    f"at learning_rate={cfg.learning_rate!r}"
                )
    return SegmenterParams(_canonical(work))


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
