from dataclasses import replace

import numpy as np
import pytest

from activeseg.core import BinaryMask, ImageGrid, ProbMap, binarize, dice
from activeseg.crf import CrfParams, infer
from activeseg.harness import CONFIG_KEYS
from activeseg.weaklabeler import (
    CrfEnsemble,
    PerturbSpec,
    build_ensemble,
    greedy_finetune,
    load_ensemble,
    majority_vote,
    perturb,
    refine,
    save_ensemble,
)

CENTER = CrfParams(
    gaussian_sdims=1.5,
    gaussian_compat=0.4,
    bilateral_sdims=2.5,
    bilateral_schan=0.15,
    bilateral_compat=0.6,
    steps=2,
)
SPEC = PerturbSpec(relative_sigma=0.05, floor=1e-3, perturb_steps=False)


class TestPerturb:
    def test_zero_sigma_is_identity(self):
        spec = replace(SPEC, relative_sigma=0.0)
        member = perturb(CENTER, spec, np.random.default_rng(0))
        assert member == CENTER

    def test_seeded_reproducibility(self):
        spec = SPEC
        a = perturb(CENTER, spec, np.random.default_rng(5))
        b = perturb(CENTER, spec, np.random.default_rng(5))
        assert a == b

    def test_three_sigma_coverage(self):
        # center 29.93 with 5% sigma: |draw - center| < 3 sigma nearly always
        center = CrfParams(29.93, 9.06, 28.19, 5.59, 9.46, 2)
        spec = replace(SPEC, relative_sigma=0.05)
        rng = np.random.default_rng(11)
        inside = 0
        trials = 10_000
        for _ in range(trials):
            m = perturb(center, spec, rng)
            inside += abs(m.gaussian_sdims - 29.93) <= 3 * 0.05 * 29.93
        assert inside / trials >= 0.997 - 0.002  # 3-sigma mass minus sampling slack

    def test_floor_applies(self):
        tiny = CrfParams(1e-3, 1e-3, 1e-3, 1e-3, 1e-3, 1)
        spec = replace(SPEC, relative_sigma=0.4)
        rng = np.random.default_rng(1)
        for _ in range(100):
            m = perturb(tiny, spec, rng)
            assert m.gaussian_sdims >= 1e-3
            assert m.bilateral_compat >= 1e-3

    def test_zero_weight_stays_zero_and_keeps_the_other_draws(self):
        on = build_ensemble(CENTER, 5, SPEC, 0)
        off = build_ensemble(replace(CENTER, gaussian_compat=0.0), 5, SPEC, 0)
        for a, b in zip(on.members, off.members):
            assert b == replace(a, gaussian_compat=0.0)

    def test_steps_fixed_by_default(self):
        rng = np.random.default_rng(2)
        assert all(perturb(CENTER, SPEC, rng).steps == CENTER.steps for _ in range(20))

    def test_perturbed_steps_are_seeded_positive_integers(self):
        spec = replace(SPEC, relative_sigma=0.4, perturb_steps=True)
        draws = [perturb(CENTER, spec, np.random.default_rng(seed)) for seed in range(40)]
        assert all(type(m.steps) is int and m.steps >= 1 for m in draws)
        assert len({m.steps for m in draws}) > 1
        assert draws == [perturb(CENTER, spec, np.random.default_rng(seed)) for seed in range(40)]

    def test_sigma_bound(self):
        with pytest.raises(ValueError):
            replace(SPEC, relative_sigma=0.5)


class TestEnsemble:
    def test_even_size_rejected(self):
        with pytest.raises(ValueError):
            build_ensemble(CENTER, 4, SPEC, 0)

    def test_singleton(self):
        ens = build_ensemble(CENTER, 1, replace(SPEC, relative_sigma=0.0), 0)
        assert len(ens.members) == 1
        assert ens.members[0] == CENTER

    def test_reproducible_distinct_members(self):
        a = build_ensemble(CENTER, 5, SPEC, 7)
        b = build_ensemble(CENTER, 5, SPEC, 7)
        assert a.members == b.members
        assert len(set(a.members)) == 5

    def test_snapshot_roundtrip(self, tmp_path):
        ens = build_ensemble(CENTER, 5, SPEC, 3)
        path = str(tmp_path / "ens.txt")
        save_ensemble(path, ens)
        loaded = load_ensemble(path)
        assert loaded == ens
        assert loaded.spec == SPEC

    def test_snapshot_keeps_perturbed_steps(self, tmp_path):
        spec = replace(SPEC, relative_sigma=0.4, perturb_steps=True)
        ens = build_ensemble(CENTER, 7, spec, 3)
        assert {m.steps for m in ens.members} != {CENTER.steps}
        path = str(tmp_path / "ens.txt")
        save_ensemble(path, ens)
        assert load_ensemble(path) == ens


class TestSnapshotFormat:
    def test_text_is_pinned(self, tmp_path):
        path = tmp_path / "ens.txt"
        save_ensemble(str(path), build_ensemble(CENTER, 3, SPEC, 0))
        assert path.read_text(encoding="ascii") == SNAPSHOT

    def test_crf_keys_are_the_config_keys(self):
        center = SNAPSHOT.split("[center]\n")[1].split("[")[0]
        keys = [line.partition("=")[0] for line in center.splitlines()]
        assert keys == [key.name.removeprefix("crf.") for key in CONFIG_KEYS if key.name.startswith("crf.")]


SNAPSHOT = """\
crf-ensemble v1
seed=0
members=3
[perturb]
relative_sigma=0.05
floor=0.001
perturb_steps=False
[center]
gaussian.sdims=1.5
gaussian.compat=0.4
bilateral.sdims=2.5
bilateral.schan=0.15
bilateral.compat=0.6
steps=2
[member 0]
gaussian.sdims=1.6082768216023595
gaussian.compat=0.3820810804722852
bilateral.sdims=2.5919944587721298
bilateral.schan=0.1500440778030382
bilateral.compat=0.6256014536917858
steps=2
[member 1]
gaussian.sdims=1.5603817104280677
gaussian.compat=0.3617588156501923
bilateral.sdims=2.0629188439477533
bilateral.schan=0.15700334768444174
bilateral.compat=0.6388090292031872
steps=2
[member 2]
gaussian.sdims=1.5706574252833203
gaussian.compat=0.38603014959083676
bilateral.sdims=2.6985632170026816
bilateral.schan=0.15717044156601226
bilateral.compat=0.5429342412808058
steps=2
"""


class TestMajorityVote:
    def masks(self, *rows_list):
        return [BinaryMask(np.array(r)) for r in rows_list]

    def test_two_of_three(self):
        a, b, c = self.masks([[1, 0]], [[1, 1]], [[0, 0]])
        assert majority_vote([a, b, c]).values.tolist() == [[1, 0]]

    def test_unanimous(self):
        m = BinaryMask(np.array([[1, 0], [0, 1]]))
        assert majority_vote([m, m, m]).values.tolist() == m.values.tolist()

    def test_matches_counting(self):
        rng = np.random.default_rng(3)
        masks = [BinaryMask((rng.uniform(size=(8, 8)) > 0.5).astype(int)) for _ in range(5)]
        vote = majority_vote(masks)
        for i in range(8):
            for j in range(8):
                count = sum(m.values[i, j] for m in masks)
                assert vote.values[i, j] == (1 if count > 2.5 else 0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        masks = [BinaryMask((rng.uniform(size=(4, 4)) > 0.5).astype(int)) for _ in range(5)]
        base = majority_vote(masks)
        for _ in range(5):
            perm = list(rng.permutation(5))
            np.testing.assert_array_equal(majority_vote([masks[i] for i in perm]).values, base.values)

    def test_even_count_rejected(self):
        m = BinaryMask(np.zeros((2, 2), dtype=int))
        with pytest.raises(ValueError):
            majority_vote([m, m])


class TestRefine:
    def test_singleton_equals_center_inference(self):
        rng = np.random.default_rng(5)
        image = ImageGrid(rng.uniform(0, 1, (8, 8)))
        p = ProbMap(rng.uniform(0, 1, (8, 8)))
        ens = build_ensemble(CENTER, 1, replace(SPEC, relative_sigma=0.0), 0)
        np.testing.assert_array_equal(
            refine(ens, image, p).values, infer(image, p, CENTER).values
        )

    def test_zero_pairwise_is_threshold(self):
        rng = np.random.default_rng(6)
        off = CrfParams(1.0, 0.0, 1.0, 0.5, 0.0, 2)
        ens = build_ensemble(off, 3, replace(SPEC, relative_sigma=0.0), 0)
        assert all(m.gaussian_compat == m.bilateral_compat == 0.0 for m in ens.members)
        image = ImageGrid(rng.uniform(0, 1, (8, 8)))
        p = ProbMap(rng.uniform(0, 1, (8, 8)))
        np.testing.assert_array_equal(refine(ens, image, p).values, binarize(p).values)

    def test_improves_noisy_square(self):
        rng = np.random.default_rng(7)
        wins = 0
        for _ in range(20):
            clean = np.zeros((32, 32), dtype=np.uint8)
            clean[8:24, 8:24] = 1
            noisy = clean.copy()
            flips = rng.uniform(size=clean.shape) < 0.12
            noisy[flips] = 1 - noisy[flips]
            image = ImageGrid(0.2 + 0.6 * clean.astype(float))
            prob = ProbMap(np.where(noisy == 1, 0.85, 0.15))
            ens = build_ensemble(CENTER, 5, SPEC, int(rng.integers(1 << 30)))
            refined = refine(ens, image, prob)
            wins += dice(refined, BinaryMask(clean)) >= dice(BinaryMask(noisy), BinaryMask(clean))
        assert wins >= 16  # at least 80% of seeded trials


class TestLazyVote:
    """refine decodes members in ensemble order and stops once every pixel
    holds floor(M / 2) + 1 equal votes."""

    @staticmethod
    def scripted(monkeypatch, masks):
        """Members told apart by their step count; ``weaklabeler.infer``
        returns member k's scripted mask and logs k."""
        from activeseg import weaklabeler

        members = tuple(replace(CENTER, steps=k + 1) for k in range(len(masks)))
        decoded = []

        def fake_infer(image, p, params):
            decoded.append(params.steps - 1)
            return BinaryMask(masks[params.steps - 1])

        monkeypatch.setattr(weaklabeler, "infer", fake_infer)
        return CrfEnsemble(members=members, center=CENTER, spec=SPEC, rng_seed=0), decoded

    @staticmethod
    def decided(masks, need):
        """Whether every pixel holds need equal votes among masks."""
        counts = masks.sum(axis=0)
        return bool(np.all((counts >= need) | (len(masks) - counts >= need)))

    @pytest.mark.parametrize("m", [1, 3, 5, 7])
    def test_equals_the_full_vote_and_stops_once_decided(self, monkeypatch, m):
        need = m // 2 + 1
        rng = np.random.default_rng(m)
        image = ImageGrid(np.zeros((4, 4)))
        p = ProbMap(np.full((4, 4), 0.5))
        stops = set()
        for _ in range(200):
            # members mostly agree with a base mask, so every stopping point occurs
            base = rng.uniform(size=(4, 4)) < 0.5
            flip = rng.uniform(size=(m, 4, 4)) < rng.choice([0.0, 0.02, 0.2])
            masks = (base ^ flip).astype(np.uint8)
            ens, decoded = self.scripted(monkeypatch, masks)
            out = refine(ens, image, p)
            assert np.array_equal(out.values, majority_vote([BinaryMask(x) for x in masks]).values)
            assert decoded == list(range(len(decoded)))
            assert self.decided(masks[: len(decoded)], need)
            if len(decoded) > need:  # the vote was open one decode earlier
                assert not self.decided(masks[: len(decoded) - 1], need)
            else:
                assert len(decoded) == need
            stops.add(len(decoded))
        assert {need, m} <= stops
        if m > need + 1:
            assert stops & set(range(need + 1, m))

    @pytest.mark.parametrize("m", [1, 3, 5, 7])
    def test_decodes_equal_the_full_vote(self, m):
        rng = np.random.default_rng(20 + m)
        for seed in range(5):
            image = ImageGrid(rng.uniform(0, 1, (12, 12)))
            p = ProbMap(rng.uniform(0, 1, (12, 12)))
            ens = build_ensemble(CENTER, m, replace(SPEC, relative_sigma=0.3), seed)
            full = majority_vote([infer(image, p, member) for member in ens.members])
            np.testing.assert_array_equal(refine(ens, image, p).values, full.values)

    def test_spy_sees_refine_stop_and_greedy_decode_every_member(self, monkeypatch):
        from activeseg import weaklabeler

        decodes = []
        monkeypatch.setattr(weaklabeler, "infer", lambda *args: decodes.append(args) or infer(*args))
        off = CrfParams(1.0, 0.0, 1.0, 0.5, 0.0, 1)  # every member thresholds: unanimous
        ens = build_ensemble(off, 5, SPEC, 0)
        image = ImageGrid(np.full((8, 8), 0.5))
        p = ProbMap(np.random.default_rng(3).uniform(0, 1, (8, 8)))
        refine(ens, image, p)
        assert [params for _, _, params in decodes] == list(ens.members[:3])
        decodes.clear()
        validation = TestGreedyFinetune().validation_case()
        greedy_finetune(ens, validation, 1)
        assert len(decodes) == 5 * len(validation)


class TestGreedyFinetune:
    def validation_case(self, seed=8, n=3):
        rng = np.random.default_rng(seed)
        items = []
        for _ in range(n):
            clean = np.zeros((16, 16), dtype=np.uint8)
            clean[4:12, 4:12] = 1
            noisy = clean.copy()
            flips = rng.uniform(size=clean.shape) < 0.1
            noisy[flips] = 1 - noisy[flips]
            image = ImageGrid(0.2 + 0.6 * clean.astype(float))
            prob = ProbMap(np.where(noisy == 1, 0.8, 0.2))
            items.append((image, prob, BinaryMask(clean)))
        return items

    def test_zero_rounds_unchanged(self):
        ens = build_ensemble(CENTER, 3, SPEC, 0)
        out = greedy_finetune(ens, self.validation_case(), 0)
        assert out is ens

    def test_good_ensemble_returned_unchanged(self):
        # zero-sigma ensemble: vote equals every member, so vote dice can
        # never fall below the member mean and round 1 stops immediately
        ens = build_ensemble(CENTER, 3, replace(SPEC, relative_sigma=0.0), 0)
        out = greedy_finetune(ens, self.validation_case(), 3)
        assert out.members == ens.members

    def test_dominant_member_becomes_center(self):
        # one member has sane parameters, the rest have pairwise terms so
        # strong they flood the mask; the vote then underperforms and the
        # sane member must be picked as the new reference
        good = CENTER
        flood = CrfParams(6.0, 50.0, 6.0, 5.0, 50.0, 2)
        ens = CrfEnsemble(members=(flood, good, flood), center=flood,
                          spec=replace(SPEC, relative_sigma=0.01), rng_seed=5)
        validation = self.validation_case()
        out = greedy_finetune(ens, validation, 2)
        assert out.center == good

    def test_one_round_scores_only_the_input(self, monkeypatch):
        # R rounds score at most R ensembles, the input and R - 1 re-centred
        # ones, and build only those: with one round the flood ensemble above
        # is decoded once per member and sample, and comes back as it went in
        from activeseg import weaklabeler

        flood = CrfParams(6.0, 50.0, 6.0, 5.0, 50.0, 2)
        ens = CrfEnsemble(members=(flood, CENTER, flood), center=flood,
                          spec=replace(SPEC, relative_sigma=0.01), rng_seed=5)
        validation = self.validation_case()
        decodes, builds = [], []
        monkeypatch.setattr(weaklabeler, "infer", lambda *args: decodes.append(args) or infer(*args))
        monkeypatch.setattr(weaklabeler, "build_ensemble",
                            lambda *args: builds.append(args) or build_ensemble(*args))
        out = greedy_finetune(ens, validation, 1)
        assert out is ens
        assert len(decodes) == 3 * len(validation)
        assert builds == []
        greedy_finetune(ens, validation, 2)
        assert len(builds) == 1

    def test_never_regresses(self):
        rng = np.random.default_rng(9)
        validation = self.validation_case()

        def vote_dice(ens):
            return float(
                np.mean([dice(refine(ens, img, p), gt) for img, p, gt in validation])
            )

        for seed in range(3):
            ens = build_ensemble(CENTER, 3, replace(SPEC, relative_sigma=0.2), seed)
            before = vote_dice(ens)
            after = vote_dice(greedy_finetune(replace(ens, spec=SPEC), validation, 2))
            assert after >= before - 1e-12

    def test_empty_validation_rejected(self):
        ens = build_ensemble(CENTER, 3, SPEC, 0)
        with pytest.raises(ValueError):
            greedy_finetune(ens, [], 1)
