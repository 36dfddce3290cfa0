"""Independent reference implementations used to check the fast paths.

The CRF references share no code with the package.  The brute-force step is
written as plain scalar loops.  The per-offset windowed path recomputes each
bilateral weight for every label, offset and step; the package's windowed
path, which builds them once per decode, must match it bit for bit.

The padded-copy training loop allocates its conv data afresh for every
call: ``np.pad``, a sliding-window view and a transposed copy per im2col,
``np.concatenate`` for the decoder inputs.  It reuses only the package's
layer primitives that take no part in that data movement (the gemm, pooling,
upsampling, sigmoid and the head losses).  The package's ``train``, which
keeps its conv buffers in one workspace per call, must match it bit for bit.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.ndimage import correlate1d

from activeseg import segmenter as sg


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
    acc = np.zeros_like(q_l)
    inv_spatial = 1.0 / (2.0 * sdims**2)
    inv_chan = 1.0 / (2.0 * schan**2)
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
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
    for each label, offset by offset.  Needs a raster no thinner than the
    bilateral kernel radius."""
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


def per_offset_windowed_infer(image, unary, params):
    """Mean-field decode over per_offset_windowed_step; ties go to foreground."""
    q = _softmax2(-unary)
    for _ in range(params.steps):
        q = per_offset_windowed_step(q, image, unary, params)
    return (q[:, :, 1] >= q[:, :, 0]).astype(np.uint8)


def padded_im2col(x):
    """Unfold 3x3 same-pad windows: (N, H, W, C) -> (N*H*W, 9*C)."""
    n, h, w, c = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    win = sliding_window_view(xp, (3, 3), axis=(1, 2))  # (N, H, W, C, 3, 3)
    return np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3)).reshape(n * h * w, 9 * c)


def _padded_input_grad(dout, k):
    kt = k[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)  # (C, O, 3, 3)
    n, h, w, _ = dout.shape
    return sg._conv3x3(padded_im2col(dout), kt, np.zeros(kt.shape[0], dtype=dout.dtype), (n, h, w))


def _padded_forward(t, x):
    def conv_relu(inp, name):
        cols = padded_im2col(inp)
        out = np.maximum(sg._conv3x3(cols, t[f"{name}.kernel"], t[f"{name}.bias"], inp.shape), 0.0)
        return out, cols

    a1, cols1 = conv_relu(x, "enc1")
    p1, idx1 = sg._maxpool2(a1)
    a2, cols2 = conv_relu(p1, "enc2")
    p2, idx2 = sg._maxpool2(a2)
    a3, cols3 = conv_relu(p2, "bottleneck")
    c1 = np.concatenate([sg._upsample(a3, 2), a2], axis=3)
    d1, cols4 = conv_relu(c1, "dec1")
    c2 = np.concatenate([sg._upsample(d1, 2), a1], axis=3)
    d2, cols5 = conv_relu(c2, "dec2")

    z_lower = sg._upsample(sg._conv1x1(a3, t["head_lower.kernel"], t["head_lower.bias"]), 4)
    z_middle = sg._upsample(sg._conv1x1(d1, t["head_middle.kernel"], t["head_middle.bias"]), 2)
    z_final = sg._conv1x1(d2, t["head_final.kernel"], t["head_final.bias"])
    probs = {"lower": sg._sigmoid(z_lower), "middle": sg._sigmoid(z_middle), "final": sg._sigmoid(z_final)}
    cache = {"idx1": idx1, "idx2": idx2, "a1": a1, "a2": a2, "a3": a3, "d1": d1, "d2": d2,
             "cols": {"enc1": cols1, "enc2": cols2, "bottleneck": cols3, "dec1": cols4, "dec2": cols5}}
    return probs, cache


def padded_loss_and_grads(tens, x, t, w, loss_kind):
    """Total loss and gradients of one batch on freshly allocated conv data."""
    probs, cache = _padded_forward(tens, x)
    grads = {}

    loss_l, dz_l = sg._head_loss_grad_batch(probs["lower"], t, loss_kind)
    loss_m, dz_m = sg._head_loss_grad_batch(probs["middle"], t, loss_kind)
    loss_f, dz_f = sg._head_loss_grad_batch(probs["final"], t, loss_kind)
    total = w.alpha_l * loss_l + w.alpha_m * loss_m + w.alpha_f * loss_f
    dz_l = w.alpha_l * dz_l
    dz_m = w.alpha_m * dz_m
    dz_f = w.alpha_f * dz_f

    dz_l_small = sg._upsample_grad(dz_l, 4)
    dz_m_small = sg._upsample_grad(dz_m, 2)

    def head_grads(dz, feat, kname):
        grads[f"{kname}.kernel"] = np.tensordot(dz, feat, axes=([0, 1, 2], [0, 1, 2]))[:, :, None, None]
        grads[f"{kname}.bias"] = dz.sum(axis=(0, 1, 2))
        return dz * tens[f"{kname}.kernel"][:, :, 0, 0][0]

    dfeat_lower = head_grads(dz_l_small, cache["a3"], "head_lower")
    dfeat_middle = head_grads(dz_m_small, cache["d1"], "head_middle")
    dfeat_final = head_grads(dz_f, cache["d2"], "head_final")

    cols = cache["cols"]

    dpre = dfeat_final * (cache["d2"] > 0)
    grads["dec2.kernel"], grads["dec2.bias"] = sg._conv3x3_param_grad(cols["dec2"], dpre)
    dc2 = _padded_input_grad(dpre, tens["dec2.kernel"])
    du2, da1_skip = dc2[:, :, :, :16], dc2[:, :, :, 16:]

    dd1 = dfeat_middle + sg._upsample_grad(du2, 2)
    dpre = dd1 * (cache["d1"] > 0)
    grads["dec1.kernel"], grads["dec1.bias"] = sg._conv3x3_param_grad(cols["dec1"], dpre)
    dc1 = _padded_input_grad(dpre, tens["dec1.kernel"])
    du1, da2_skip = dc1[:, :, :, :32], dc1[:, :, :, 32:]

    da3 = dfeat_lower + sg._upsample_grad(du1, 2)
    dpre = da3 * (cache["a3"] > 0)
    grads["bottleneck.kernel"], grads["bottleneck.bias"] = sg._conv3x3_param_grad(cols["bottleneck"], dpre)
    dp2 = _padded_input_grad(dpre, tens["bottleneck.kernel"])

    da2 = da2_skip + sg._maxpool2_grad(dp2, cache["idx2"], cache["a2"].shape)
    dpre = da2 * (cache["a2"] > 0)
    grads["enc2.kernel"], grads["enc2.bias"] = sg._conv3x3_param_grad(cols["enc2"], dpre)
    dp1 = _padded_input_grad(dpre, tens["enc2.kernel"])

    da1 = da1_skip + sg._maxpool2_grad(dp1, cache["idx1"], cache["a1"].shape)
    dpre = da1 * (cache["a1"] > 0)
    grads["enc1.kernel"], grads["enc1.bias"] = sg._conv3x3_param_grad(cols["enc1"], dpre)

    return total, grads


def padded_train(params, labeled_set, cfg, w=sg.LossWeights()):
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
