"""Independent reference implementations used to check the fast paths.

Everything here shares no code with the package.  The brute-force step is
written as plain scalar loops.  The per-offset windowed path recomputes each
bilateral weight for every label, offset and step; the package's windowed
path, which builds them once per decode, must match it bit for bit.
"""

import math

import numpy as np
from scipy.ndimage import correlate1d


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
