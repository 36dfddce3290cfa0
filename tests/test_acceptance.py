"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them
all).  The end-to-end criteria share one set of seeded loop runs via a
module-scoped fixture.
"""

import os
import time
from dataclasses import replace

import numpy as np
import pytest

from oracles import brute_force_meanfield_step, initial_field, meanfield_step, windowed_step

from activeseg import alloop, harness, segmenter as sg, selection
from activeseg.core import BinaryMask, ImageGrid, ProbMap, binarize, dice
from activeseg.crf import CrfParams, infer, unary_from_prob
from activeseg.harness import default_experiment
from activeseg.segmenter import SegmenterParams, init_params
from activeseg.selection import confidence, confidence_threshold, rank_correlation, score_sample
from activeseg.weaklabeler import build_ensemble, refine


def check(num, ok, detail):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared end-to-end runs (criteria 7, 8, 9, 11)
# ---------------------------------------------------------------------------

STUDY_SEEDS = (0, 1, 2, 3, 4)
FULLSUP_SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def loop_study():
    """Default-experiment runs for every arm the end-to-end criteria need."""
    study = {"dsal": {}, "random": {}, "nopseudo": {}, "pseudo_raw": {}, "fullsup": {},
             "dsal_seconds": {}, "fullsup_seconds": {}}
    for seed in STUDY_SEEDS:
        cfg = default_experiment(seed=seed)
        split = harness.make_split(harness.load_samples(cfg), cfg)
        t0 = time.perf_counter()
        study["dsal"][seed] = alloop.run_detailed(split, cfg.al)
        study["dsal_seconds"][seed] = time.perf_counter() - t0
        study["random"][seed] = alloop.run_detailed(split, replace(cfg.al, query_strategy="random"))
        study["nopseudo"][seed] = alloop.run_detailed(split, replace(cfg.al, k_weak=0))
        study["pseudo_raw"][seed] = alloop.run_detailed(
            split, replace(cfg.al, confidence_filter=False, ensemble_crf=False)
        )
        if seed in FULLSUP_SEEDS:
            t0 = time.perf_counter()
            pairs = [(s.image, s.require_ground_truth()) for s in list(split.initial) + list(split.pool)]
            params = sg.train(
                init_params(seed), pairs, replace(cfg.al.train, epochs=40), cfg.al.loss_weights
            )
            study["fullsup"][seed] = alloop.evaluate(params, split.test)[0]
            study["fullsup_seconds"][seed] = time.perf_counter() - t0
    return study


class TestCriterion1Gradients:
    @pytest.mark.parametrize("loss_kind", ["cross_entropy", "soft_dice"])
    def test_analytic_matches_finite_differences(self, loss_kind):
        t_start = time.perf_counter()
        base = init_params(42)
        # positively shifted trunk biases keep every ReLU away from its
        # switching point within the h = 1e-4 probe
        tensors = {
            name: (arr + 0.3 if name.endswith(".bias") and not name.startswith("head") else arr.copy())
            for name, arr in base.tensors.items()
        }
        params = SegmenterParams(tensors)
        rng = np.random.default_rng(0)
        img = ImageGrid(rng.uniform(0, 1, (16, 16)))
        tgt = BinaryMask((rng.uniform(0, 1, (16, 16)) > 0.5).astype(int))
        w = default_experiment().al.loss_weights
        _, grads = sg.backward(params, img, tgt, w, loss_kind)

        x = img.values[None, :, :, None]
        t = tgt.values.astype(float)[None, :, :, None]
        h = 1e-4
        probe_rng = np.random.default_rng(7)
        worst = 0.0
        n_probes = 0
        for name in sg.PARAM_SHAPES:
            for _ in range(10):
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
                n_probes += 1
        elapsed = time.perf_counter() - t_start
        check(
            1,
            worst < 1e-3 and n_probes >= 100 and elapsed < 60.0,
            f"{loss_kind}: {n_probes} probes, worst rel err {worst:.2e}, {elapsed:.1f}s",
        )


class TestCriterion2CrfOracle:
    def test_paths_agree(self):
        rng = np.random.default_rng(20)
        worst_windowed = 0.0
        worst_exact = 0.0
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
            exact = meanfield_step(q, image, u, params)
            windowed = windowed_step(q, image, u, params)
            brute = brute_force_meanfield_step(q, image.values, u, params)
            worst_windowed = max(worst_windowed, float(np.abs(windowed - exact).max()))
            worst_exact = max(worst_exact, float(np.abs(exact - brute).max()))
        check(
            2,
            worst_windowed < 1e-3 and worst_exact < 1e-9,
            f"windowed vs exact {worst_windowed:.2e} (<1e-3), exact vs independent {worst_exact:.2e} (<1e-9)",
        )


class TestCriterion3DegenerateCrf:
    def test_zero_compat_is_threshold(self):
        rng = np.random.default_rng(30)
        params = CrfParams(1.0, 0.0, 1.0, 0.5, 0.0, 2)
        mismatches = 0
        for _ in range(100):
            image = ImageGrid(rng.uniform(0, 1, (8, 6)))
            p = ProbMap(rng.uniform(0, 1, (8, 6)))
            out = infer(image, p, params)
            mismatches += not np.array_equal(out.values, binarize(p).values)
        check(3, mismatches == 0, f"{mismatches} mismatches over 100 random maps (exact equality)")


class TestCriterion4ConfidenceBounds:
    def test_bounds_and_extremes(self):
        rng = np.random.default_rng(40)
        in_bounds = all(
            0.0 <= confidence(ProbMap(rng.uniform(size=(9, 5)))) <= 0.5 for _ in range(1000)
        )
        at_half = confidence(ProbMap(np.full((8, 8), 0.5)))
        binary = confidence(ProbMap((rng.uniform(size=(8, 8)) > 0.5).astype(float)))
        check(
            4,
            in_bounds and at_half == 0.0 and binary == 0.5,
            f"1000 maps in [0, 0.5]; all-0.5 map -> {at_half}; binary map -> {binary}",
        )


class TestCriterion5HistogramThreshold:
    def test_top_decile_passes(self):
        rng = np.random.default_rng(50)
        ok = True
        for _ in range(50):
            a, b = sorted(rng.uniform(0.0, 0.5, size=2))
            if b - a < 1e-6:
                continue
            scores = list(rng.uniform(a, b, size=198)) + [a, b]
            t_conf = confidence_threshold(scores, 10)
            passed = {s for s in scores if s > t_conf}
            expected = {s for s in scores if s > a + 0.9 * (b - a)}
            ok = ok and passed == expected
        check(5, ok, "B=10: exactly the samples above a + 0.9(b-a) pass, 50 random spans")


class TestCriterion6SelectionDeterminism:
    def test_random_score_sets(self):
        rng = np.random.default_rng(60)
        ok = True
        for _ in range(500):
            n = int(rng.integers(1, 60))
            ids = [f"s{i:03d}" for i in range(n)]
            scores = []
            for sid in ids:
                mean = round(float(rng.uniform(0, 1)), 2)  # rounding forces ties
                scores.append(
                    selection.SampleScores(
                        sample_id=sid,
                        l_dsc=mean,
                        m_dsc=mean,
                        confidence=float(rng.uniform(0, 0.5)),
                    )
                )
            k_s, k_w = int(rng.integers(0, 10)), int(rng.integers(0, 10))
            order = list(rng.permutation(n))
            a = selection.select_queries(scores, k_s, k_w, 10, pseudo_enabled=True, confidence_filter=True)
            b = selection.select_queries([scores[i] for i in order], k_s, k_w, 10, pseudo_enabled=True, confidence_filter=True)
            ok = ok and a == b
            ok = ok and not (set(a.strong_ids) & set(a.weak_ids))
            ok = ok and len(a.strong_ids) <= k_s and len(a.weak_ids) <= k_w
        check(6, ok, "500 random score sets: deterministic, disjoint, size-bounded")


class TestCriterion7LabelEfficiency:
    def test_reaches_fullsup_fraction_cheaply(self, loop_study):
        budget = 0.6
        fullsup = np.mean([loop_study["fullsup"][s] for s in FULLSUP_SEEDS])
        total_labels = 240  # initial 40 + pool 200, all consumed by full supervision
        best_cheap = []
        for seed in FULLSUP_SEEDS:
            records = loop_study["dsal"][seed].records
            cheap = [
                r.test_dsc
                for r in records
                if (40 + 20 * r.iteration) / total_labels <= budget
            ]
            best_cheap.append(max(cheap))
        reached = float(np.mean(best_cheap))
        elapsed = sum(loop_study["dsal_seconds"][s] for s in FULLSUP_SEEDS) + sum(
            loop_study["fullsup_seconds"][s] for s in FULLSUP_SEEDS
        )
        check(
            7,
            reached >= 0.95 * fullsup and elapsed < 1800,
            f"mean best DSC at <=60% oracle labels {reached:.4f} vs 95% of full supervision "
            f"{0.95 * fullsup:.4f}; runtime {elapsed:.0f}s (<1800s)",
        )


class TestCriterion8BeatsRandom:
    def test_mean_final_dsc(self, loop_study):
        dsal = np.mean([loop_study["dsal"][s].records[-1].test_dsc for s in STUDY_SEEDS])
        rand = np.mean([loop_study["random"][s].records[-1].test_dsc for s in STUDY_SEEDS])
        check(
            8,
            dsal >= rand,
            f"mean final DSC over {len(STUDY_SEEDS)} paired seeds: method {dsal:.4f} vs random {rand:.4f}",
        )


class TestCriterion9RankCorrelation:
    def test_base_model_correlation(self, loop_study):
        # iteration-0 pairs are the base-trained model scored on the held-out set
        pairs = [
            (m, r)
            for it, _, m, r in loop_study["dsal"][0].correlation_pairs
            if it == 0
        ]
        coeff = rank_correlation([m for m, _ in pairs], [r for _, r in pairs])
        check(
            9,
            len(pairs) >= 50 and coeff >= 0.5,
            f"rank-regression coefficient {coeff:.3f} over {len(pairs)} held-out samples (>=0.5)",
        )


class TestCriterion10EnsembleRefinement:
    def test_vote_vs_center_and_input(self):
        rng = np.random.default_rng(100)
        center = CrfParams(1.5, 0.4, 2.5, 0.15, 0.6, 2)
        spec = default_experiment().al.perturb
        hits = 0
        for trial in range(20):
            clean = np.zeros((32, 32), dtype=np.uint8)
            clean[8:24, 8:24] = 1
            corrupted = clean.copy()
            inner = np.zeros_like(clean, dtype=bool)
            inner[10:22, 10:22] = True
            band = (clean == 1) ^ inner  # two-pixel ring at the boundary
            band |= np.pad(clean, 2)[4:, 4:][:32, :32].astype(bool) & (clean == 0)
            flips = band & (rng.uniform(size=clean.shape) < 0.35)
            corrupted[flips] = 1 - corrupted[flips]
            image = ImageGrid(np.clip(0.2 + 0.6 * clean + rng.normal(0, 0.05, clean.shape), 0, 1))
            prob = ProbMap(np.where(corrupted == 1, 0.85, 0.15))
            ens = build_ensemble(center, 5, spec, seed=trial)
            vote = refine(ens, image, prob)
            single = infer(image, prob, center)
            clean_mask = BinaryMask(clean)
            d_vote = dice(vote, clean_mask)
            d_single = dice(single, clean_mask)
            d_input = dice(BinaryMask(corrupted), clean_mask)
            hits += (d_vote >= d_single - 0.01) and (d_vote >= d_input)
        check(10, hits >= 16, f"vote beat (center - 0.01) and the corrupted input in {hits}/20 trials")


class TestCriterion11AblationOrdering:
    def test_mean_final_dsc_ordering(self, loop_study):
        slack = 0.005
        nopseudo = np.mean([loop_study["nopseudo"][s].records[-1].test_dsc for s in STUDY_SEEDS])
        pseudo = np.mean([loop_study["pseudo_raw"][s].records[-1].test_dsc for s in STUDY_SEEDS])
        full = np.mean([loop_study["dsal"][s].records[-1].test_dsc for s in STUDY_SEEDS])
        check(
            11,
            pseudo >= nopseudo - slack and full >= pseudo - slack,
            f"mean final DSC: no-pseudo {nopseudo:.4f} <= +pseudo {pseudo:.4f} <= "
            f"+pseudo+confidence+ensemble {full:.4f} (slack {slack})",
        )


class TestCriterion12Determinism:
    def test_byte_identical_csvs(self, tmp_path):
        def small_experiment(out):
            cfg = default_experiment(output_dir=str(out), seed=5)
            return replace(
                cfg,
                dataset=replace(cfg.dataset, n_samples=40, image_size=16, noise_level=0.1),
                n_initial=6,
                n_pool=20,
                n_test=14,
                al=replace(
                    cfg.al,
                    iterations=3,
                    k_strong=4,
                    k_weak=2,
                    pseudo_start_iter=2,
                    train=replace(cfg.al.train, epochs=2),
                    base_epochs=3,
                    ensemble_size=3,
                    ensemble_rounds=1,
                ),
                with_baseline=True,
            )

        harness.run_experiment(small_experiment(tmp_path / "a"))
        harness.run_experiment(small_experiment(tmp_path / "b"))
        identical = []
        for sub in ("", "random"):
            dir_a = os.path.join(str(tmp_path / "a"), sub)
            for name in sorted(os.listdir(dir_a)):
                if not name.endswith(".csv"):
                    continue
                with open(os.path.join(dir_a, name), "rb") as fh:
                    bytes_a = fh.read()
                with open(os.path.join(str(tmp_path / "b"), sub, name), "rb") as fh:
                    bytes_b = fh.read()
                identical.append((f"{sub}/{name}", bytes_a == bytes_b))
        check(
            12,
            all(ok for _, ok in identical),
            f"{len(identical)} CSVs byte-identical across reruns: "
            + ", ".join(name for name, _ in identical),
        )
