import itertools
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

import oracles
from activeseg import crf as crf_module
from activeseg.core import BinaryMask, ImageGrid, ProbMap, binarize, dice
from activeseg.crf import BONE_AGE_CENTER, SKIN_LESION_CENTER, CrfParams, infer, unary_from_prob
from activeseg.harness import default_experiment
from activeseg.weaklabeler import CrfEnsemble, PerturbSpec, build_ensemble, load_ensemble, save_ensemble
from oracles import exact_infer, gibbs_energy, initial_field, meanfield_step, windowed_step

DEFAULT_AL = default_experiment().al


def brute_force_step(q, image, unary, params):
    """Independent mean-field update: plain scalar loops, no shared code."""
    h, w = image.shape
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
                        kg = math.exp(-d2 / (2 * params.gaussian_sdims**2))
                        kb = math.exp(
                            -d2 / (2 * params.bilateral_sdims**2)
                            - (image[i, j] - image[a, b]) ** 2 / (2 * params.bilateral_schan**2)
                        )
                        msg += (
                            params.gaussian_compat * kg + params.bilateral_compat * kb
                        ) * q[a, b, 1 - lab]
                out[i, j, lab] = math.exp(-unary[i, j, lab] - msg)
            out[i, j] /= out[i, j].sum()
    return out


def random_case(rng, h, w):
    image = ImageGrid(rng.uniform(0, 1, (h, w)))
    p = ProbMap(rng.uniform(0, 1, (h, w)))
    return image, p


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            CrfParams(0.0, 1.0, 1.0, 1.0, 1.0, 1)
        with pytest.raises(ValueError):
            CrfParams(1.0, -0.1, 1.0, 1.0, 1.0, 1)
        with pytest.raises(ValueError):
            CrfParams(1.0, 1.0, 1.0, 1.0, 1.0, 0)

    def test_steps_must_be_an_integer(self):
        for bad in (2.5, True, "2", None):
            with pytest.raises(ValueError, match="steps must be an integer"):
                CrfParams(1.0, 1.0, 1.0, 1.0, 1.0, bad)
        assert CrfParams(1.0, 1.0, 1.0, 1.0, 1.0, np.int64(2)).steps == 2

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_values_rejected(self, value):
        names = ("gaussian_sdims", "gaussian_compat", "bilateral_sdims", "bilateral_schan", "bilateral_compat")
        for index, name in enumerate(names):
            args = [1.0] * 5 + [1]
            args[index] = value
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                CrfParams(*args)

    @pytest.mark.parametrize("value", [1e-160, 3.8e-20, 6.6e18, 1e155])
    def test_intensity_width_needs_a_normal_float32_inverse_variance(self, value):
        # 1/(2 s**2) overflows float32 below about 3.84e-20 and underflows it
        # above about 6.5e18; the float32 bilateral table then holds nan
        args = [1.0] * 5 + [1]
        args[3] = value
        with pytest.raises(ValueError, match=r"bilateral_schan must make 1/\(2\*bilateral_schan\*\*2\) a normal float32"):
            CrfParams(*args)

    @pytest.mark.parametrize("value", [1e-160, 1e155])
    def test_spatial_widths_need_a_finite_inverse_variance(self, value):
        # 1/(2 s**2) overflows float64 at 1e-160, and s**2 itself at 1e155
        for index, name in ((0, "gaussian_sdims"), (2, "bilateral_sdims")):
            args = [1.0] * 5 + [1]
            args[index] = value
            with pytest.raises(ValueError, match=f"{name} must make 1/\\(2\\*{name}\\*\\*2\\) finite"):
                CrfParams(*args)

    @pytest.mark.parametrize(
        "index, value",
        [(3, 3.84e-20), (3, 6.5e18)] + [(i, v) for i in (0, 2) for v in (1e-150, 1e-30, 6.6e18, 1e19, 1e154)],
    )
    def test_extreme_accepted_scales_decode(self, index, value):
        # the spatial widths keep the wider float64 range: their weights are float64 until after exp
        image, p = random_case(np.random.default_rng(15), 6, 6)
        image = ImageGrid(np.where(image.values > 0.5, 0.75, 0.25))  # equal intensities meet
        args = [1.0] * 5 + [2]
        args[index] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            infer(image, p, CrfParams(*args))

    def test_text_roundtrip(self, tmp_path):
        p = CrfParams(29.93, 9.06, 28.19, 5.59, 9.46, 2)
        path = str(tmp_path / "ens.txt")
        save_ensemble(path, CrfEnsemble(members=(p,), center=p, spec=PerturbSpec(0.05, 1e-3, False), rng_seed=0))
        assert load_ensemble(path).members == (p,)

    def test_published_centers(self):
        assert SKIN_LESION_CENTER.steps == 2
        assert BONE_AGE_CENTER.steps == 1
        assert SKIN_LESION_CENTER.gaussian_sdims == pytest.approx(29.93)
        assert BONE_AGE_CENTER.bilateral_schan == pytest.approx(7.0)


class TestUnary:
    def test_half_probability_gives_ln2(self):
        u = unary_from_prob(ProbMap(np.full((2, 2), 0.5)))
        np.testing.assert_allclose(u, math.log(2), rtol=1e-12)

    def test_saturated_probability(self):
        u = unary_from_prob(ProbMap(np.array([[1.0]])))
        assert u[0, 0, 1] == pytest.approx(-math.log(1 - 1e-8))
        assert u[0, 0, 0] == pytest.approx(-math.log(1e-8))

    def test_monotone_in_probability(self):
        ps = np.linspace(0.01, 0.99, 50)
        u = unary_from_prob(ProbMap(ps[None, :]))
        assert np.all(np.diff(u[0, :, 1]) < 0)  # foreground energy falls as p rises
        assert np.all(np.diff(u[0, :, 0]) > 0)


class TestGibbsEnergy:
    def test_zero_compat_is_unary_sum(self):
        rng = np.random.default_rng(0)
        image, p = random_case(rng, 4, 4)
        y = binarize(p)
        params = CrfParams(1.0, 0.0, 1.0, 0.5, 0.0, 1)
        u = unary_from_prob(p)
        expected = sum(
            u[i, j, y.values[i, j]] for i in range(4) for j in range(4)
        )
        assert gibbs_energy(y, image, p, params) == pytest.approx(expected, rel=1e-12)

    def test_uniform_label_kills_pairwise(self):
        image = ImageGrid(np.full((3, 3), 0.4))
        p = ProbMap(np.full((3, 3), 0.7))
        y = BinaryMask(np.ones((3, 3), dtype=int))
        params = CrfParams(1.0, 5.0, 1.0, 0.5, 5.0, 1)
        u = unary_from_prob(p)
        assert gibbs_energy(y, image, p, params) == pytest.approx(u[:, :, 1].sum(), rel=1e-12)

    def test_two_pixel_hand_computation(self):
        # 2x1 raster, worked out term by term from the energy definition
        image = ImageGrid(np.array([[0.9], [0.2]]))
        p = ProbMap(np.array([[0.8], [0.3]]))
        y = BinaryMask(np.array([[1], [0]]))
        params = CrfParams(
            gaussian_sdims=1.0,
            gaussian_compat=2.0,
            bilateral_sdims=2.0,
            bilateral_schan=0.5,
            bilateral_compat=3.0,
            steps=1,
        )
        expected = (
            -math.log(0.8)  # unary, pixel 0 labeled foreground
            - math.log(1 - 0.3)  # unary, pixel 1 labeled background
            + 2.0 * math.exp(-1.0 / 2.0)  # Gaussian pair, distance 1
            + 3.0 * math.exp(-1.0 / 8.0 - 0.7**2 / 0.5)  # bilateral pair
        )
        assert gibbs_energy(y, image, p, params) == pytest.approx(expected, rel=1e-12)

    def test_size_limit(self):
        big = ImageGrid(np.zeros((65, 65)))
        p = ProbMap(np.zeros((65, 65)))
        y = BinaryMask(np.zeros((65, 65), dtype=int))
        with pytest.raises(ValueError, match="oracle-grade"):
            gibbs_energy(y, big, p, CrfParams(1, 1, 1, 1, 1, 1))


class TestMeanFieldStep:
    def test_zero_compat_ignores_field(self):
        rng = np.random.default_rng(1)
        image, p = random_case(rng, 5, 5)
        u = unary_from_prob(p)
        params = CrfParams(1.0, 0.0, 1.0, 0.5, 0.0, 1)
        q_random = np.stack([x := rng.uniform(0.2, 0.8, (5, 5)), 1 - x], axis=2)
        out = meanfield_step(q_random, image, u, params)
        softmax = initial_field(u)
        np.testing.assert_allclose(out, softmax, atol=1e-12)

    def test_exact_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            image, p = random_case(rng, 6, 6)
            params = CrfParams(
                gaussian_sdims=rng.uniform(0.8, 3.0),
                gaussian_compat=rng.uniform(0.0, 2.0),
                bilateral_sdims=rng.uniform(0.8, 3.0),
                bilateral_schan=rng.uniform(0.1, 0.6),
                bilateral_compat=rng.uniform(0.0, 2.0),
                steps=1,
            )
            u = unary_from_prob(p)
            q = initial_field(u)
            ours = meanfield_step(q, image, u, params)
            ref = brute_force_step(q, image.values, u, params)
            np.testing.assert_allclose(ours, ref, atol=1e-9)

    def test_windowed_close_to_exact(self):
        rng = np.random.default_rng(3)
        # all but the first raster are thinner than most kernel radii drawn
        # here: offsets longer than a side pair no pixels
        for shape, _ in itertools.product([(6, 6), (2, 6), (3, 6), (6, 3), (6, 2), (3, 5)], range(5)):
            image, p = random_case(rng, *shape)
            params = CrfParams(
                gaussian_sdims=rng.uniform(1.0, 3.0),
                gaussian_compat=rng.uniform(0.0, 2.0),
                bilateral_sdims=rng.uniform(1.0, 3.0),
                bilateral_schan=rng.uniform(0.1, 0.6),
                bilateral_compat=rng.uniform(0.0, 2.0),
                steps=1,
            )
            u = unary_from_prob(p)
            q = initial_field(u)
            a = windowed_step(q, image, u, params)
            b = meanfield_step(q, image, u, params)
            assert np.abs(a - b).max() < 1e-3

    def test_two_pixel_hand_computation(self):
        # closed-form one-step update on a 2x1 raster
        image = ImageGrid(np.array([[0.9], [0.2]]))
        p = ProbMap(np.array([[0.8], [0.3]]))
        params = CrfParams(1.0, 2.0, 2.0, 0.5, 3.0, 1)
        u = unary_from_prob(p)
        q = initial_field(u)
        pair = 2.0 * math.exp(-0.5) + 3.0 * math.exp(-1.0 / 8.0 - 0.49 / 0.5)
        expected = np.zeros((2, 1, 2))
        for i, other in ((0, 1), (1, 0)):
            for lab in (0, 1):
                expected[i, 0, lab] = math.exp(-u[i, 0, lab] - pair * q[other, 0, 1 - lab])
            expected[i, 0] /= expected[i, 0].sum()
        out = meanfield_step(q, image, u, params)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_field_stays_normalized(self):
        rng = np.random.default_rng(4)
        image, p = random_case(rng, 8, 8)
        params = CrfParams(1.5, 1.0, 2.0, 0.3, 1.0, 1)
        u = unary_from_prob(p)
        q = initial_field(u)
        for _ in range(5):
            q = windowed_step(q, image, u, params)
            assert np.abs(q.sum(axis=2) - 1.0).max() <= 1e-12

    def test_kernel_symmetry_and_decay(self):
        rng = np.random.default_rng(5)
        image, _ = random_case(rng, 5, 4)
        kg, kb = oracles._exact_kernel_matrices(image.values, CrfParams(1.3, 1.0, 1.7, 0.4, 1.0, 1))
        np.testing.assert_allclose(kg, kg.T, atol=0)
        np.testing.assert_allclose(kb, kb.T, atol=0)
        np.testing.assert_allclose(np.diag(kg), 1.0)
        # strictly decreasing in spatial distance along one row of pixels
        row = kg[0, :4]  # pixels (0,0), (0,1), (0,2), (0,3)
        assert np.all(np.diff(row) < 0)


class TestInfer:
    def test_zero_compat_equals_threshold(self):
        rng = np.random.default_rng(6)
        params = CrfParams(1.0, 0.0, 1.0, 0.5, 0.0, 2)
        for _ in range(100):
            image, p = random_case(rng, 7, 5)
            out = infer(image, p, params)
            np.testing.assert_array_equal(out.values, binarize(p).values)

    def test_tie_goes_to_foreground(self):
        image = ImageGrid(np.full((2, 2), 0.5))
        p = ProbMap(np.full((2, 2), 0.5))
        out = infer(image, p, CrfParams(1.0, 0.0, 1.0, 0.5, 0.0, 1))
        assert out.values.all()

    def test_smoothing_cleans_salt_and_pepper(self):
        # the exact oracle's decode and the package's windowed one
        rng = np.random.default_rng(7)
        improvements = {exact_infer: 0, infer: 0}
        for _ in range(10):
            clean = np.zeros((16, 16), dtype=np.uint8)
            clean[4:12, 4:12] = 1
            noisy = clean.copy()
            flips = rng.uniform(size=clean.shape) < 0.1
            noisy[flips] = 1 - noisy[flips]
            image = ImageGrid(0.2 + 0.6 * clean.astype(float))
            prob = ProbMap(np.where(noisy == 1, 0.8, 0.2))
            params = CrfParams(1.5, 0.4, 2.0, 0.15, 0.6, 2)
            before = dice(BinaryMask(noisy), BinaryMask(clean))
            for decode in improvements:
                improvements[decode] += dice(decode(image, prob, params), BinaryMask(clean)) > before
        assert min(improvements.values()) >= 8


def window_radius(sdims, shape):
    return min(math.ceil(3.0 * sdims), max(shape) - 1)


class TestThinRasters:
    """Rasters with a side shorter than the kernel radius: offsets longer
    than that side pair no pixels.  The window cuts the long side, so the
    reference is the all-pairs oracle cut to the same window."""

    @pytest.mark.parametrize("shape", [(3, 40), (40, 3)])
    def test_default_center_matches_window_cut_oracle(self, shape):
        center = DEFAULT_AL.crf_center
        rng = np.random.default_rng(9)
        image, p = random_case(rng, *shape)
        u = unary_from_prob(p)
        q = initial_field(u)
        radii = (
            window_radius(center.gaussian_sdims, shape),
            window_radius(center.bilateral_sdims, shape),
        )
        assert radii[1] > min(shape)
        for _ in range(center.steps):
            ours = windowed_step(q, image, u, center)
            ref = oracles.brute_force_meanfield_step(q, image.values, u, center, radii)
            np.testing.assert_allclose(ours, ref, atol=1e-9)
            q = ours
        mask = infer(image, p, center)
        assert mask.values.shape == shape


class TestTruncatedWindow:
    """Rasters wider than the window, where the 3-sigma cut drops pixel
    pairs.  Criterion 2 compares against the exact path only on rasters the
    window covers whole; here the reference is the all-pairs oracle cut to
    the same window."""

    @pytest.mark.parametrize("shape", [(8, 20), (12, 12), (17, 23)])
    def test_center_and_members_match_window_cut_oracle(self, shape):
        center = DEFAULT_AL.crf_center
        rng = np.random.default_rng(11)
        image, p = random_case(rng, *shape)
        u = unary_from_prob(p)
        for params in [center, *build_ensemble(center, 5, DEFAULT_AL.perturb, 0).members]:
            radii = (
                window_radius(params.gaussian_sdims, shape),
                window_radius(params.bilateral_sdims, shape),
            )
            assert max(radii) < max(shape) - 1
            q = initial_field(u)
            for _ in range(params.steps):
                ours = windowed_step(q, image, u, params)
                ref = oracles.brute_force_meanfield_step(q, image.values, u, params, radii)
                np.testing.assert_allclose(ours, ref, atol=1e-9)
                q = ours


def bit_identity_params():
    """The default center, its five perturbed members, and each compat at 0."""
    center = DEFAULT_AL.crf_center
    members = build_ensemble(center, 5, DEFAULT_AL.perturb, 0).members
    return (
        [center, *members]
        + [replace(center, gaussian_compat=0.0), replace(center, bilateral_compat=0.0)]
        + [replace(center, gaussian_compat=0.0, bilateral_compat=0.0)]
    )


BIT_IDENTITY_SHAPES = [(1, 1), (1, 9), (8, 20), (17, 23), (32, 32), (3, 40), (40, 3), (64, 48)]


class TestWindowedBitIdentity:
    """The windowed path against the per-offset loops kept in oracles.py,
    with their offsets cut at each raster side as the window cuts them,
    thin rasters included.  Its step sends one message per kernel on the
    signed plane q0 - q1: the same floats in the same order as the signed
    per-offset step, so equal bit for bit.  The two-label per-offset step
    sends one message per label; its fields differ in the last bits, and
    its masks must not differ."""

    @pytest.mark.parametrize("shape", BIT_IDENTITY_SHAPES)
    def test_fields_and_masks_equal(self, shape):
        rng = np.random.default_rng(10)
        for params in bit_identity_params():
            image, p = random_case(rng, *shape)
            u = unary_from_prob(p)
            q = initial_field(u)
            for _ in range(params.steps):
                ours = windowed_step(q, image, u, params)
                ref = oracles.per_offset_signed_step(q, image.values, u, params)
                assert np.array_equal(ours, ref)
                q = ours
            mask = oracles.windowed_infer(image, u, params)
            assert np.array_equal(mask, oracles.per_offset_windowed_infer(image.values, u, params))


class TestFloat32Path:
    """``crf.infer`` runs the bilateral weights and sums in float32 and
    everything else in float64; the checks above run the float64 path."""

    def test_step_close_to_exact(self):
        # criterion 2's cases and bound
        rng = np.random.default_rng(20)
        for _ in range(20):
            image = ImageGrid(rng.uniform(0, 1, (6, 6)))
            p = ProbMap(rng.uniform(0, 1, (6, 6)))
            params = CrfParams(
                gaussian_sdims=rng.uniform(0.8, 3.0),
                gaussian_compat=rng.uniform(0.0, 2.0),
                bilateral_sdims=rng.uniform(0.8, 3.0),
                bilateral_schan=rng.uniform(0.1, 0.6),
                bilateral_compat=rng.uniform(0.0, 2.0),
                steps=1,
            )
            u = unary_from_prob(p)
            q = initial_field(u)
            ours = windowed_step(q, image, u, params, np.float32)
            assert ours.dtype == np.float64
            assert np.abs(ours - meanfield_step(q, image, u, params)).max() < 1e-3

    def test_kernels_run_in_the_image_dtype(self):
        rng = np.random.default_rng(13)
        image = rng.uniform(0, 1, (8, 20)).astype(np.float32)
        table = crf_module._bilateral_table(image, 2.5, 0.15)
        assert {t.dtype for t in table} == {np.dtype(np.float32)}
        q = rng.uniform(-1, 1, (8, 20)).astype(np.float32)
        assert crf_module._bilateral_message(q, table).dtype == np.float32

    def test_infer_builds_its_table_in_float32(self, monkeypatch):
        seen, real = [], crf_module._bilateral_table

        def spy(image, *args):
            seen.append(image.dtype)
            return real(image, *args)

        monkeypatch.setattr(crf_module, "_bilateral_table", spy)
        image, p = random_case(np.random.default_rng(14), 8, 8)
        infer(image, p, DEFAULT_AL.crf_center)
        assert seen == [np.float32]

    @pytest.mark.parametrize("shape", BIT_IDENTITY_SHAPES)
    def test_masks_equal_the_float64_path(self, shape):
        rng = np.random.default_rng(10)
        for params in bit_identity_params():
            image, p = random_case(rng, *shape)
            u = unary_from_prob(p)
            mask = infer(image, p, params)
            assert np.array_equal(mask.values, oracles.windowed_infer(image, u, params)), params


GAUSSIAN_SDIMS = (0.7, 1.0, 1.3, 1.7, 2.2, 2.7, 3.3)


def message_field(rng, kind, shape):
    if kind == "random":
        return rng.uniform(0, 1, shape)
    if kind == "signed":  # the plane q0 - q1 that a mean-field step filters
        return rng.uniform(-1, 1, shape)
    if kind == "binary":
        return (rng.uniform(0, 1, shape) > 0.5).astype(np.float64)
    return np.full(shape, 0.37)


class TestGaussianMessageSummationOrder:
    """The numpy separable filter against scipy's correlate1d (oracles.py),
    bit for bit.  Only scipy's symmetric order, farthest offset pair first,
    gives equal floats on every case; nearest first differs on most."""

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (3, 40), (8, 20), (17, 23), (32, 32), (192, 240)])
    def test_equals_correlate1d(self, shape):
        rng = np.random.default_rng(12)
        differing = []
        for sdims in GAUSSIAN_SDIMS:
            for kind in ("random", "signed", "binary", "constant"):
                q = message_field(rng, kind, shape)
                ours = crf_module._gaussian_message(q, sdims)
                if not np.array_equal(ours, oracles._gaussian_message(q, sdims)):
                    differing.append((sdims, kind))
        assert differing == []


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(crf_module.__file__)))
    code = (
        "import sys, activeseg, activeseg.cli\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "print(loaded)\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
