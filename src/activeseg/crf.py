"""Fully connected binary CRF refined by mean-field inference.

Pairwise potentials combine a spatial Gaussian kernel and a bilateral
(spatial + intensity) kernel under Potts compatibility; unaries come from
a foreground-probability map.  Messages are passed through truncated
kernels (radius 3 sigma, capped at the image extent); the all-pairs energy
and mean-field step that check them live in ``tests/oracles.py``.

A decode keeps its field as two planes (2, H, W), background then
foreground, so the softmax is maximum, exp, add and divide over whole
planes, the same floats as reductions over a label axis.  With two labels
a step needs only the difference m1 - m0 of the labels' messages, and by
linearity of the windowed sums that is one Gaussian and one bilateral
message of the signed plane q0 - q1, not one of each per label.  The
spatial kernel is a numpy separable filter in SciPy's summation order,
equal bit for bit to ``ndimage.correlate1d``.  The bilateral range weights
ws * exp(-(I_i - I_j)**2 / 2 schan**2) are built once per decode, in place
in one dense flat buffer per offset row, for half of the offsets (the
kernel is symmetric), and shared by every mean-field step.  A step adds
each offset row's terms into the plane with one ordered np.add.reduce over
a 2-D block, in the same order as a loop over the offsets, so the floats
are the same.  The table and the bilateral sum work in the dtype of the
image they get: ``infer`` gives them a float32 copy, the precision of the
segmenter that made the map, and casts the signed plane to float32 for them
once per step; the unaries, the field, the Gaussian message, the energies
and the softmax stay float64.  Its cost stays O(r**2 * H * W) for window
radius r; the published SKIN_LESION_CENTER (r = 85 at 192x240) stays out
of reach until a bilateral grid or permutohedral lattice replaces the
window.
"""

from __future__ import annotations

import math
import numbers
import typing
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .core import BinaryMask, ImageGrid, ProbMap

UNARY_EPS = 1e-8
FLOAT32_TINY, FLOAT32_MAX = float(np.finfo(np.float32).tiny), float(np.finfo(np.float32).max)


@dataclass(frozen=True)
class CrfParams:
    """Kernel scales, compatibility weights, and mean-field step count."""

    gaussian_sdims: float
    gaussian_compat: float
    bilateral_sdims: float
    bilateral_schan: float
    bilateral_compat: float
    steps: int

    def __post_init__(self):
        for name, kind in PARAM_TYPES.items():
            value = getattr(self, name)
            if kind is not float:
                continue
            # inf overflows the kernel radius; a nan compat would switch its kernel off (nan > 0.0 is false)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            if name.endswith("_compat"):  # a zero weight switches its kernel off
                if value < 0:
                    raise ValueError(f"{name} must be nonnegative")
            elif value <= 0:
                raise ValueError(f"{name} must be positive")
            elif name == "bilateral_schan" and not usable_scale(value):  # the float32 table multiplies by it
                raise ValueError(f"{name} must make 1/(2*{name}**2) a normal float32, got {value!r}")
            elif not _finite_inverse_variance(value):  # the spatial weights divide by it in float64
                raise ValueError(f"{name} must make 1/(2*{name}**2) finite, got {value!r}")
        if isinstance(self.steps, bool) or not isinstance(self.steps, numbers.Integral):
            raise ValueError(f"steps must be an integer, got {self.steps!r}")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")


def _finite_inverse_variance(scale: float) -> bool:
    """Whether scale has a finite nonzero square and a finite 1 / (2 scale**2),
    the float64 factor of the spatial weights; where it overflows, numpy
    warns on every decode."""
    square = scale * scale
    return 0.0 < square < math.inf and 1.0 / (2.0 * square) < math.inf


def usable_scale(scale: float) -> bool:
    """Whether the bilateral intensity width can be scale: 1 / (2 scale**2),
    the factor the range weights multiply by, must be a normal float32, the
    precision of the bilateral table.  There a factor that rounds to inf
    makes two equal intensities give 0 * inf = nan, and one that rounds to 0
    makes the inf border give nan."""
    twice_square = 2.0 * (scale * scale)
    return twice_square > 0.0 and FLOAT32_TINY <= 1.0 / twice_square <= FLOAT32_MAX


# every CrfParams field and its type, float or int, in declaration order
PARAM_TYPES = typing.get_type_hints(CrfParams)


# Published tuned centers for the two full-scale corpora this engine was
# shaped after: dermoscopy skin-lesion photographs (192x240) and hand
# radiographs (512x512).  Spatial sdims are in pixels at those resolutions,
# schan in the corpus' normalized intensity units.
SKIN_LESION_CENTER = CrfParams(
    gaussian_sdims=29.93,
    gaussian_compat=9.06,
    bilateral_sdims=28.19,
    bilateral_schan=5.59,
    bilateral_compat=9.46,
    steps=2,
)
BONE_AGE_CENTER = CrfParams(
    gaussian_sdims=1.0,
    gaussian_compat=6.0,
    bilateral_sdims=1.0,
    bilateral_schan=7.0,
    bilateral_compat=4.0,
    steps=1,
)


def _neg_unary(p: ProbMap) -> np.ndarray:
    """The negated unary energies as planes (2, H, W): log(1 - p), then
    log(p), each clipped to [UNARY_EPS, 1 - UNARY_EPS] first."""
    planes = np.empty((2, *p.values.shape))
    np.clip(1.0 - p.values, UNARY_EPS, 1.0 - UNARY_EPS, out=planes[0])
    np.clip(p.values, UNARY_EPS, 1.0 - UNARY_EPS, out=planes[1])
    return np.log(planes, out=planes)


def unary_from_prob(p: ProbMap) -> np.ndarray:
    """Negative-log unary energies, shape (H, W, 2): [:, :, 0] background."""
    return np.ascontiguousarray(np.negative(_neg_unary(p)).transpose(1, 2, 0))


def _softmax2(neg_energy: np.ndarray) -> np.ndarray:
    """Per-pixel softmax over the two planes of a (2, H, W) field.  The same
    floats as reductions over a label axis: the max of two values is one of
    them, and the sum of two is their one add."""
    e = neg_energy - np.maximum(neg_energy[0], neg_energy[1])
    np.exp(e, out=e)
    return np.divide(e, e[0] + e[1], out=e)


def _spatial_weights(sdims: float, radius: int) -> np.ndarray:
    d = np.arange(-radius, radius + 1, dtype=np.float64)
    return np.exp(-(d**2) / (2.0 * sdims**2))


def _kernel_radius(sdims: float, shape: tuple[int, int]) -> int:
    # truncation at 3 sigma; never wider than the raster itself
    return min(int(np.ceil(3.0 * sdims)), max(shape[0], shape[1]) - 1) if max(shape) > 1 else 0


def _separable_pass(src: np.ndarray, w: np.ndarray, axis: int, out: np.ndarray, tmp: np.ndarray) -> None:
    """out = src filtered along axis by the symmetric weights w (length 2r + 1).

    src is zero-bordered by r along axis, so out is r shorter on each side.
    The terms are summed as SciPy's correlate1d sums a symmetric filter:
    x[i] * w[r], then (x[i - j] + x[i + j]) * w[r - j] for j = r down to 1.
    """
    r = (w.size - 1) // 2
    n = out.shape[axis]

    def shifted(d: int) -> np.ndarray:
        index = [slice(None)] * src.ndim
        index[axis] = slice(r + d, r + d + n)
        return src[tuple(index)]

    np.multiply(shifted(0), w[r], out=out)
    for j in range(r, 0, -1):
        np.add(shifted(-j), shifted(j), out=tmp)
        tmp *= w[r - j]
        out += tmp


def _gaussian_message(q: np.ndarray, sdims: float) -> np.ndarray:
    """Windowed sum_j k(i, j) q[j] for the separable spatial kernel, for a
    plane q (H, W), excluding j = i.

    Zero border, axis 0 of the raster first, then axis 1.  The padded input
    is zero in its border columns, so the first pass leaves exact zeros there
    for the second.
    """
    h, w = q.shape
    radius = _kernel_radius(sdims, (h, w))
    weights = _spatial_weights(sdims, radius)
    padded = np.zeros((h + 2 * radius, w + 2 * radius))
    padded[radius : radius + h, radius : radius + w] = q
    rows = np.empty((h, w + 2 * radius))
    _separable_pass(padded, weights, 0, rows, np.empty_like(rows))
    acc = np.empty((h, w))
    _separable_pass(rows, weights, 1, acc, np.empty_like(acc))
    acc -= q  # remove the self term (kernel value 1 at zero offset)
    return acc


def _bilateral_table(image: np.ndarray, sdims: float, schan: float) -> list[np.ndarray]:
    """Windowed bilateral kernel k(i, i + o) for the half of the offsets
    o = (dy, dx) with dy > 0, or dy = 0 and dx > 0.

    Entry dy (0 ... ry) has shape (2 rx + 1, (H - dy) * W): row rx + dx holds
    k(i, i + o) for the pixels i of raster rows 0 ... H - dy - 1, flattened
    row-major.  It is exactly 0 where x + dx leaves the raster (an inf border
    makes exp give 0 there) and, for dy = 0, where dx <= 0.  The other half
    is the mirror image: k(i, i - o) = k(i - o, i) bit for bit, because
    (a - b)**2 == (b - a)**2 in IEEE arithmetic.  The entries have the
    dtype of image.
    """
    h, w = image.shape
    radius = _kernel_radius(sdims, image.shape)
    ry, rx = min(radius, h - 1), min(radius, w - 1)
    inv_spatial = 1.0 / (2.0 * sdims**2)
    neg_inv_chan = -1.0 / (2.0 * schan**2)
    padded = np.pad(image, ((0, 0), (rx, rx)), constant_values=np.inf)
    # near[k, y, x] = image[y, x + dx] for dx = k - rx (inf off the raster)
    near = sliding_window_view(padded, 2 * rx + 1, axis=1).transpose(2, 0, 1)
    dx = np.arange(-rx, rx + 1)
    table = []
    for dy in range(ry + 1):
        first = -rx if dy > 0 else 1
        shape = (2 * rx + 1, h - dy, w)
        # dy = 0: rows dx <= 0 stay 0
        weights = np.empty(shape, image.dtype) if dy > 0 else np.zeros(shape, image.dtype)
        # exp(-(d**2) / 2 schan**2) as exp(d**2 * -(1 / 2 schan**2)): negating
        # an operand of a product negates the rounded product exactly
        block = np.subtract(image[: h - dy], near[rx + first :, dy:], out=weights[rx + first :])
        np.square(block, out=block)
        np.multiply(block, neg_inv_chan, out=block)
        np.exp(block, out=block)
        ws = np.exp(-(dy * dy + dx[rx + first :] ** 2) * inv_spatial).astype(image.dtype)
        np.multiply(block, ws[:, None, None], out=block)
        table.append(weights.reshape(2 * rx + 1, (h - dy) * w))
    return table


def _bilateral_message(q: np.ndarray, table: list[np.ndarray]) -> np.ndarray:
    """Windowed bilateral sum_j k(i, j) q[j] for a plane q (H, W), excluding
    j = i.

    Every pixel adds its terms in row-major offset order, one np.add.reduce
    over axis 0 of a 2-D block per offset row dy: plane 0 is the running
    sum, the planes after it the terms of dx = -rx ... rx, added one after
    another.  The recorded reference outcomes depend on those exact float
    bits.  Flat reads that wrap into the next raster row meet zero weights,
    so their terms are +0.0 or, where q is negative, -0.0; the sum starts at
    +0.0, and adding a zero of either sign changes no sum.  q and the table
    share one dtype, the dtype of the sum.
    """
    h, w = q.shape
    size = h * w
    width = table[0].shape[0]  # 2 rx + 1
    rx = width // 2
    flat = q.reshape(size)
    out = np.zeros(size, q.dtype)
    item = out.itemsize
    padded = np.zeros(size + 2 * rx, q.dtype)
    padded[rx : rx + size] = flat
    # source[k, j] = q[j + dx] for dx = k - rx, zero off the flat raster
    source = as_strided(padded, (width, size), (item, item), writeable=False)
    scratch = np.zeros((width + 1, size + width), q.dtype)
    # Products stored in plane p >= 1 from column rx + 1 are read back through
    # `shifted`, p columns to the right of plane 0: shifted by dx = p - 1 - rx,
    # with zeros beyond both ends.  The offset rows dy < 0 come first, growing in
    # length, so no earlier row has written where a later one reads zeros.
    shifted = as_strided(scratch, (width + 1, size), (scratch.strides[0] + item, item), writeable=False)
    # offsets -o, up to (0, -1): the term at pixel i is the product table[o] * q taken at pixel i - o
    for dy in range(1 - len(table), 1):
        weights = table[-dy] if dy < 0 else table[0][rx + 1 :]
        planes, pixels = weights.shape[0] + 1, weights.shape[1]
        target = out[size - pixels :]
        # mirrored offsets: the last weight row goes to plane 1
        np.multiply(weights, flat[:pixels], out=scratch[planes - 1 : 0 : -1, rx + 1 : rx + 1 + pixels])
        scratch[0, :pixels] = target
        np.add.reduce(shifted[:planes, :pixels], axis=0, out=target)
    # offsets o, from (0, 1) on: the term at pixel i is table[o] at i times q at i + o;
    # these rows write over the zero border, so they come last
    for dy in range(len(table)):
        weights = table[dy] if dy > 0 else table[0][rx + 1 :]
        planes, pixels = weights.shape[0] + 1, weights.shape[1]
        near = source[width + 1 - planes :, dy * w : dy * w + pixels]
        np.multiply(weights, near, out=scratch[1:planes, :pixels])
        scratch[0, :pixels] = out[:pixels]
        np.add.reduce(scratch[:planes, :pixels], axis=0, out=out[:pixels])
    return out.reshape(h, w)


def _potts_messages(image: np.ndarray, params: CrfParams) -> Callable[[np.ndarray], np.ndarray]:
    """Map from a field q (2, H, W) to the difference m1 - m0 (H, W) of its
    windowed Potts messages.

    Label l is penalized by the kernel-weighted mass of the other label, so
    m1 - m0 = gaussian_compat * G(q0 - q1) + bilateral_compat * B(q0 - q1)
    for the linear windowed sums G and B: one message per kernel, on the
    signed plane d = q0 - q1, in place of one per label.  The bilateral
    weights depend only on the image and the parameters, so they are built
    here, once, and reused by every call.  They and the bilateral sum are in
    the dtype of image, d cast to it once per call; d, the Gaussian message
    and the difference returned are float64.
    """
    table = None
    if params.bilateral_compat > 0.0:
        table = _bilateral_table(image, params.bilateral_sdims, params.bilateral_schan)

    def windowed(q: np.ndarray) -> np.ndarray:
        signed = q[0] - q[1]
        message = np.zeros(signed.shape)
        if params.gaussian_compat > 0.0:
            message += params.gaussian_compat * _gaussian_message(signed, params.gaussian_sdims)
        if table is not None:
            bilateral = _bilateral_message(signed.astype(image.dtype), table)
            message += params.bilateral_compat * bilateral.astype(np.float64)
        return message

    return windowed


def _step(q: np.ndarray, neg_unary: np.ndarray, messages: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """One mean-field update of the planar field q (2, H, W).  The softmax
    is unchanged when both labels' energies drop by m0, so the background
    plane keeps its negated unary and the foreground one loses m1 - m0."""
    energy = neg_unary.copy()
    energy[1] -= messages(q)
    return _softmax2(energy)


def infer(image: ImageGrid, p: ProbMap, params: CrfParams) -> BinaryMask:
    """Mean-field decode: init from unaries, run params.steps updates, argmax.

    The field is two planes (2, H, W), background then foreground; each
    step sends one Gaussian and one bilateral message of the signed plane
    q0 - q1.  The messages' image-dependent weights are built once per call
    and shared by every step; the bilateral ones, and the bilateral sum, are
    float32, the precision the segmenter runs in.  The unaries, the field, the
    energies and the softmax stay float64.  The final field, which the
    argmax reads, must hold finite probabilities whose two labels sum to 1
    within 1e-12 at every pixel.  Argmax ties resolve to foreground, so
    with zero pairwise weights the result equals thresholding the input map
    at 0.5.
    """
    if p.values.shape != image.values.shape:
        raise ValueError("field, image, and unary dimensions must agree")
    neg_unary = _neg_unary(p)
    messages = _potts_messages(image.values.astype(np.float32), params)
    q = _softmax2(neg_unary)
    for _ in range(params.steps):
        q = _step(q, neg_unary, messages)
    if not np.all(np.isfinite(q)) or q.min() < 0 or q.max() > 1:
        raise ValueError("marginals must be finite probabilities")
    if np.abs(q[0] + q[1] - 1.0).max() > 1e-12:
        raise ValueError("per-pixel marginals must sum to 1 within 1e-12")
    return BinaryMask((q[1] >= q[0]).astype(np.uint8))
