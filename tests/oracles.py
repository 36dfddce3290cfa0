"""Independent reference implementations used to check the fast paths.

The CRF references share no code with the package but its unaries.  The
exact path sums Potts messages over all pixel pairs with dense kernel
matrices (small images only) and gives the exact Gibbs energy of a
labeling; the package's windowed path must stay within 1e-3 of its step.
The brute-force step is written as plain scalar loops and checks the exact
one.  The per-offset windowed paths recompute each bilateral weight for
every message, offset and step.  The two-label one sends one message per
label, the textbook update; the signed one sends one per kernel, on the
signed plane q0 - q1.  The package's windowed path, which builds the
weights once per decode, must match the signed one bit for bit on its
float64 path, and give the two-label one's masks.
``windowed_step``, ``windowed_infer`` and ``initial_field`` are not
references: they run the package's own code, the step ``crf.infer`` loops
over, so no second copy of it exists.

The padded-copy training loop allocates its conv data afresh for every
call: ``np.pad``, a sliding-window view and a transposed copy per im2col,
``np.concatenate`` for the decoder inputs.  Its layer primitives (the gemm
with its kernel transposes, argmax pooling, upsampling, the boolean-indexed
sigmoid) are verbatim copies of the ones the package's training loop used
before it ran on a preallocated step plan, and its head loss and gradient
is a verbatim copy of the allocating one the package used before its step
plan computed gradients only.  The package's ``train`` must match it bit
for bit.
"""

import math
from typing import Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.ndimage import correlate1d

from activeseg import crf
from activeseg import segmenter as sg
from activeseg.core import BinaryMask
from activeseg.crf import unary_from_prob

EXACT_SIZE_LIMIT = 64  # largest height/width accepted by the all-pairs paths


def brute_force_meanfield_step(q, image, unary, params, radii=None):
    """One mean-field update over all pixel pairs, scalar arithmetic.

    With radii = (gaussian, bilateral), each kernel is cut to the square
    window of that radius, as the windowed path cuts it.
    """
    h, w = image.shape
    reach = (math.inf, math.inf) if radii is None else radii
    out = np.zeros((h, w, 2))
    for i in range(h):
        for j in range(w):
            for lab in (0, 1):
                msg = 0.0
                for a in range(h):
                    for b in range(w):
                        if (a, b) == (i, j):
                            continue
                        d2 = (i - a) ** 2 + (j - b) ** 2
                        far = max(abs(i - a), abs(j - b))
                        kg = math.exp(-d2 / (2 * params.gaussian_sdims**2)) if far <= reach[0] else 0.0
                        kb = math.exp(
                            -d2 / (2 * params.bilateral_sdims**2)
                            - (image[i, j] - image[a, b]) ** 2
                            / (2 * params.bilateral_schan**2)
                        ) if far <= reach[1] else 0.0
                        msg += (
                            params.gaussian_compat * kg + params.bilateral_compat * kb
                        ) * q[a, b, 1 - lab]
                out[i, j, lab] = math.exp(-unary[i, j, lab] - msg)
            out[i, j] /= out[i, j].sum()
    return out


def _kernel_radius(sdims, shape):
    # truncation at 3 sigma; never wider than the raster itself
    return min(int(np.ceil(3.0 * sdims)), max(shape[0], shape[1]) - 1) if max(shape) > 1 else 0


def _gaussian_message(q_l, sdims):
    """Windowed sum_j k(i, j) q_j for the separable spatial kernel, excluding j = i."""
    radius = _kernel_radius(sdims, q_l.shape)
    d = np.arange(-radius, radius + 1, dtype=np.float64)
    w = np.exp(-(d**2) / (2.0 * sdims**2))
    acc = correlate1d(q_l, w, axis=0, mode="constant", cval=0.0)
    acc = correlate1d(acc, w, axis=1, mode="constant", cval=0.0)
    return acc - q_l  # remove the self term (kernel value 1 at zero offset)


def _bilateral_message(q_l, image, sdims, schan):
    """Windowed bilateral sum_j k(i, j) q_j, excluding j = i."""
    h, w = q_l.shape
    radius = _kernel_radius(sdims, q_l.shape)
    # offsets longer than an axis pair no pixels
    ry, rx = min(radius, h - 1), min(radius, w - 1)
    acc = np.zeros_like(q_l)
    inv_spatial = 1.0 / (2.0 * sdims**2)
    inv_chan = 1.0 / (2.0 * schan**2)
    for dy in range(-ry, ry + 1):
        for dx in range(-rx, rx + 1):
            if dy == 0 and dx == 0:
                continue
            ws = np.exp(-(dy * dy + dx * dx) * inv_spatial)
            tgt_r = slice(max(0, -dy), h - max(0, dy))
            src_r = slice(max(0, dy), h - max(0, -dy))
            tgt_c = slice(max(0, -dx), w - max(0, dx))
            src_c = slice(max(0, dx), w - max(0, -dx))
            diff = image[tgt_r, tgt_c] - image[src_r, src_c]
            acc[tgt_r, tgt_c] += ws * np.exp(-(diff**2) * inv_chan) * q_l[src_r, src_c]
    return acc


def _softmax2(neg_energy):
    shifted = neg_energy - neg_energy.max(axis=2, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=2, keepdims=True)


def per_offset_windowed_step(q, image, unary, params):
    """One windowed mean-field update that recomputes every bilateral weight
    for each label, offset by offset."""
    h, w = image.shape
    messages = np.zeros((h, w, 2))
    for label in (0, 1):
        other = q[:, :, 1 - label]
        msg = np.zeros((h, w))
        if params.gaussian_compat > 0.0:
            msg += params.gaussian_compat * _gaussian_message(other, params.gaussian_sdims)
        if params.bilateral_compat > 0.0:
            msg += params.bilateral_compat * _bilateral_message(
                other, image, params.bilateral_sdims, params.bilateral_schan
            )
        messages[:, :, label] = msg
    return _softmax2(-unary - messages)


def per_offset_signed_step(q, image, unary, params):
    """One windowed mean-field update that sends a single message per
    kernel, on the signed plane d = q0 - q1, recomputing every bilateral
    weight offset by offset: m1 - m0 is gaussian_compat * G(d) +
    bilateral_compat * B(d), and the softmax is unchanged when the
    background energy keeps its unary and the foreground one takes m1 - m0."""
    h, w = image.shape
    signed = q[:, :, 0] - q[:, :, 1]
    msg = np.zeros((h, w))
    if params.gaussian_compat > 0.0:
        msg += params.gaussian_compat * _gaussian_message(signed, params.gaussian_sdims)
    if params.bilateral_compat > 0.0:
        msg += params.bilateral_compat * _bilateral_message(
            signed, image, params.bilateral_sdims, params.bilateral_schan
        )
    neg_energy = -unary
    neg_energy[:, :, 1] -= msg
    return _softmax2(neg_energy)


def per_offset_windowed_infer(image, unary, params):
    """Mean-field decode over per_offset_windowed_step; ties go to foreground."""
    q = _softmax2(-unary)
    for _ in range(params.steps):
        q = per_offset_windowed_step(q, image, unary, params)
    return (q[:, :, 1] >= q[:, :, 0]).astype(np.uint8)


def windowed_step(q, image, unary, params, dtype=np.float64):
    """One step of the package's decode, the update ``crf.infer`` repeats
    params.steps times from ``initial_field(unary)``, on fields in the
    (H, W, 2) layout of the references; ``crf.infer`` keeps its field as
    planes (2, H, W).  The bilateral weights and sums run in dtype:
    ``crf.infer`` runs them in float32, and the default float64 path is the
    one the references check to 1e-9 and bit for bit."""
    planes = crf._step(
        np.ascontiguousarray(q.transpose(2, 0, 1)),
        np.negative(unary.transpose(2, 0, 1)),
        crf._potts_messages(image.values.astype(dtype), params),
    )
    return planes.transpose(1, 2, 0)


def windowed_infer(image, unary, params):
    """``crf.infer``'s decode on the float64 path: the mask of params.steps
    ``windowed_step`` updates from ``initial_field(unary)``; ties go to
    foreground."""
    q = initial_field(unary)
    for _ in range(params.steps):
        q = windowed_step(q, image, unary, params)
    return (q[:, :, 1] >= q[:, :, 0]).astype(np.uint8)


def initial_field(unary):
    """The field ``crf.infer`` starts from, in the (H, W, 2) layout."""
    return crf._softmax2(np.negative(unary.transpose(2, 0, 1))).transpose(1, 2, 0)


def _exact_kernel_matrices(image, params):
    """Dense Gaussian and bilateral kernel matrices over all pixel pairs."""
    h, w = image.shape
    rows, cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    coords = np.stack([rows.ravel(), cols.ravel()], axis=1).astype(np.float64)
    d2 = ((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2)
    k_gauss = np.exp(-d2 / (2.0 * params.gaussian_sdims**2))
    intensity = image.ravel()
    i2 = (intensity[:, None] - intensity[None, :]) ** 2
    k_bilat = np.exp(-d2 / (2.0 * params.bilateral_sdims**2) - i2 / (2.0 * params.bilateral_schan**2))
    return k_gauss, k_bilat


def _check_exact_size(shape, what):
    if max(shape) > EXACT_SIZE_LIMIT:
        raise ValueError(
            f"{what} is oracle-grade and limited to {EXACT_SIZE_LIMIT}x{EXACT_SIZE_LIMIT} "
            f"images, got {shape[0]}x{shape[1]}"
        )


def gibbs_energy(y, image, p, params):
    """Exact energy of a labeling: unary sum plus all pairwise Potts penalties."""
    shape = (image.height, image.width)
    if y.values.shape != image.values.shape or p.values.shape != image.values.shape:
        raise ValueError("mask, image, and probability map must share dimensions")
    _check_exact_size(shape, "gibbs_energy")
    unary = unary_from_prob(p)
    labels = y.values.ravel().astype(np.int64)
    n = labels.size
    energy = float(np.take_along_axis(unary.reshape(n, 2), labels[:, None], axis=1).sum())
    k_gauss, k_bilat = _exact_kernel_matrices(image.values, params)
    differ = labels[:, None] != labels[None, :]
    pair = params.gaussian_compat * k_gauss + params.bilateral_compat * k_bilat
    upper = np.triu(differ, k=1)
    energy += float(pair[upper].sum())
    return energy


def exact_messages(image, params):
    """Map from a field q (H, W, 2) to its all-pairs Potts messages (H, W, 2)."""
    h, w = image.shape
    _check_exact_size((h, w), "exact meanfield_step")
    k_gauss, k_bilat = _exact_kernel_matrices(image, params)

    def exact(q):
        messages = np.zeros((h, w, 2))
        q_flat = q.reshape(h * w, 2)
        for weight, kernel in (
            (params.gaussian_compat, k_gauss),
            (params.bilateral_compat, k_bilat),
        ):
            if weight == 0.0:
                continue
            summed = kernel @ q_flat - q_flat  # exclude j = i (kernel diagonal is 1)
            # label l is penalized by mass on the other label (Potts)
            messages[:, :, 0] += weight * summed[:, 1].reshape(h, w)
            messages[:, :, 1] += weight * summed[:, 0].reshape(h, w)
        return messages

    return exact


def meanfield_step(q, image, unary, params):
    """One Jacobi-style mean-field update of every pixel's marginal, with
    messages summed over all pixel pairs."""
    h, w = image.height, image.width
    if q.shape[:2] != (h, w) or unary.shape != (h, w, 2):
        raise ValueError("field, image, and unary dimensions must agree")
    return _softmax2(-unary - exact_messages(image.values, params)(q))


def exact_infer(image, p, params):
    """Mean-field decode over the exact step; ties go to foreground."""
    unary = unary_from_prob(p)
    q = _softmax2(-unary)
    for _ in range(params.steps):
        q = meanfield_step(q, image, unary, params)
    return BinaryMask((q[:, :, 1] >= q[:, :, 0]).astype(np.uint8))


# ---------------------------------------------------------------------------
# layer primitives of the padded-copy loop, verbatim from the package's
# earlier allocating training step
# ---------------------------------------------------------------------------


def _kernel_matrix(k: np.ndarray) -> np.ndarray:
    """(O, C, 3, 3) parameter tensor as a (9*C, O) gemm operand."""
    return np.ascontiguousarray(k.transpose(2, 3, 1, 0)).reshape(-1, k.shape[0])


def _conv3x3(cols: np.ndarray, k: np.ndarray, b: np.ndarray, out_shape: Tuple[int, ...]) -> np.ndarray:
    return (cols @ _kernel_matrix(k) + b).reshape(out_shape[:3] + (k.shape[0],))


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


def _head_loss_grad_batch(p: np.ndarray, t: np.ndarray, loss_kind: str) -> Tuple[float, np.ndarray]:
    """Mean-over-batch head loss and its gradient w.r.t. the head logits.

    p is the sigmoid output (N, H, W, 1); t the targets with the same shape.
    Returns dL/dz where z is the pre-sigmoid logit map.
    """
    n = p.shape[0]
    npix = p.shape[1] * p.shape[2]
    if loss_kind == "cross_entropy":
        # the clamp must stay representable: float32 cannot hold 1 - 1e-8
        eps = max(sg.EPS, 4.0 * float(np.finfo(p.dtype).eps))
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


def padded_im2col(x):
    """Unfold 3x3 same-pad windows: (N, H, W, C) -> (N*H*W, 9*C)."""
    n, h, w, c = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    win = sliding_window_view(xp, (3, 3), axis=(1, 2))  # (N, H, W, C, 3, 3)
    return np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3)).reshape(n * h * w, 9 * c)


def _padded_input_grad(dout, k):
    kt = k[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)  # (C, O, 3, 3)
    n, h, w, _ = dout.shape
    return _conv3x3(padded_im2col(dout), kt, np.zeros(kt.shape[0], dtype=dout.dtype), (n, h, w))


def _padded_forward(t, x):
    def conv_relu(inp, name):
        cols = padded_im2col(inp)
        out = np.maximum(_conv3x3(cols, t[f"{name}.kernel"], t[f"{name}.bias"], inp.shape), 0.0)
        return out, cols

    a1, cols1 = conv_relu(x, "enc1")
    p1, idx1 = _maxpool2(a1)
    a2, cols2 = conv_relu(p1, "enc2")
    p2, idx2 = _maxpool2(a2)
    a3, cols3 = conv_relu(p2, "bottleneck")
    c1 = np.concatenate([_upsample(a3, 2), a2], axis=3)
    d1, cols4 = conv_relu(c1, "dec1")
    c2 = np.concatenate([_upsample(d1, 2), a1], axis=3)
    d2, cols5 = conv_relu(c2, "dec2")

    z_lower = _upsample(_conv1x1(a3, t["head_lower.kernel"], t["head_lower.bias"]), 4)
    z_middle = _upsample(_conv1x1(d1, t["head_middle.kernel"], t["head_middle.bias"]), 2)
    z_final = _conv1x1(d2, t["head_final.kernel"], t["head_final.bias"])
    probs = {"lower": _sigmoid(z_lower), "middle": _sigmoid(z_middle), "final": _sigmoid(z_final)}
    cache = {"idx1": idx1, "idx2": idx2, "a1": a1, "a2": a2, "a3": a3, "d1": d1, "d2": d2,
             "cols": {"enc1": cols1, "enc2": cols2, "bottleneck": cols3, "dec1": cols4, "dec2": cols5}}
    return probs, cache


def padded_loss_and_grads(tens, x, t, w, loss_kind):
    """Total loss and gradients of one batch on freshly allocated conv data."""
    probs, cache = _padded_forward(tens, x)
    grads = {}

    loss_l, dz_l = _head_loss_grad_batch(probs["lower"], t, loss_kind)
    loss_m, dz_m = _head_loss_grad_batch(probs["middle"], t, loss_kind)
    loss_f, dz_f = _head_loss_grad_batch(probs["final"], t, loss_kind)
    total = w.alpha_l * loss_l + w.alpha_m * loss_m + w.alpha_f * loss_f
    dz_l = w.alpha_l * dz_l
    dz_m = w.alpha_m * dz_m
    dz_f = w.alpha_f * dz_f

    dz_l_small = _upsample_grad(dz_l, 4)
    dz_m_small = _upsample_grad(dz_m, 2)

    def head_grads(dz, feat, kname):
        grads[f"{kname}.kernel"] = np.tensordot(dz, feat, axes=([0, 1, 2], [0, 1, 2]))[:, :, None, None]
        grads[f"{kname}.bias"] = dz.sum(axis=(0, 1, 2))
        return dz * tens[f"{kname}.kernel"][:, :, 0, 0][0]

    dfeat_lower = head_grads(dz_l_small, cache["a3"], "head_lower")
    dfeat_middle = head_grads(dz_m_small, cache["d1"], "head_middle")
    dfeat_final = head_grads(dz_f, cache["d2"], "head_final")

    cols = cache["cols"]

    dpre = dfeat_final * (cache["d2"] > 0)
    grads["dec2.kernel"], grads["dec2.bias"] = _conv3x3_param_grad(cols["dec2"], dpre)
    dc2 = _padded_input_grad(dpre, tens["dec2.kernel"])
    du2, da1_skip = dc2[:, :, :, :16], dc2[:, :, :, 16:]

    dd1 = dfeat_middle + _upsample_grad(du2, 2)
    dpre = dd1 * (cache["d1"] > 0)
    grads["dec1.kernel"], grads["dec1.bias"] = _conv3x3_param_grad(cols["dec1"], dpre)
    dc1 = _padded_input_grad(dpre, tens["dec1.kernel"])
    du1, da2_skip = dc1[:, :, :, :32], dc1[:, :, :, 32:]

    da3 = dfeat_lower + _upsample_grad(du1, 2)
    dpre = da3 * (cache["a3"] > 0)
    grads["bottleneck.kernel"], grads["bottleneck.bias"] = _conv3x3_param_grad(cols["bottleneck"], dpre)
    dp2 = _padded_input_grad(dpre, tens["bottleneck.kernel"])

    da2 = da2_skip + _maxpool2_grad(dp2, cache["idx2"], cache["a2"].shape)
    dpre = da2 * (cache["a2"] > 0)
    grads["enc2.kernel"], grads["enc2.bias"] = _conv3x3_param_grad(cols["enc2"], dpre)
    dp1 = _padded_input_grad(dpre, tens["enc2.kernel"])

    da1 = da1_skip + _maxpool2_grad(dp1, cache["idx1"], cache["a1"].shape)
    dpre = da1 * (cache["a1"] > 0)
    grads["enc1.kernel"], grads["enc1.bias"] = _conv3x3_param_grad(cols["enc1"], dpre)

    return total, grads


def padded_train(params, labeled_set, cfg, w):
    """Mini-batch descent in float32, each step on freshly allocated conv data."""
    images = np.stack([img.values for img, _ in labeled_set]).astype(np.float32)[:, :, :, None]
    targets = np.stack([m.values for _, m in labeled_set]).astype(np.float32)[:, :, :, None]
    rng = np.random.default_rng(cfg.seed)
    work = {name: arr.astype(np.float32) for name, arr in params.tensors.items()}
    lr = np.float32(cfg.learning_rate)
    for _ in range(cfg.epochs):
        order = rng.permutation(len(labeled_set))
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            _, grads = padded_loss_and_grads(work, images[batch], targets[batch], w, cfg.loss_kind)
            work = {name: work[name] - lr * grads[name] for name in sg.PARAM_SHAPES}
    return sg.SegmenterParams({name: arr.astype(np.float64) for name, arr in work.items()})
