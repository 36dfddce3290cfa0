import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from activeseg.core import ProbMap
from activeseg.harness import write_scores_csv
from activeseg.segmenter import MultiHeadPrediction
from activeseg.selection import (
    SampleScores,
    confidence,
    confidence_threshold,
    descending_ranks,
    rank_correlation,
    score_sample,
    select_queries,
)


def pmap(values) -> ProbMap:
    return ProbMap(np.asarray(values, dtype=float))


def scores_from(uncertainties, confidences=None, ids=None):
    n = len(uncertainties)
    confidences = confidences if confidences is not None else [0.25] * n
    ids = ids if ids is not None else [f"s{i:03d}" for i in range(n)]
    out = []
    for sid, u, c in zip(ids, uncertainties, confidences):
        mean = 1.0 - u
        out.append(SampleScores(sample_id=sid, l_dsc=mean, m_dsc=mean, confidence=c))
    return out


class TestConfidence:
    def test_ambiguous_map_is_zero(self):
        assert confidence(pmap(np.full((5, 5), 0.5))) == 0.0

    def test_binary_map_is_half(self):
        rng = np.random.default_rng(0)
        m = (rng.uniform(size=(6, 6)) > 0.5).astype(float)
        assert confidence(pmap(m)) == 0.5

    def test_constant_three_quarters(self):
        assert confidence(pmap(np.full((4, 4), 0.75))) == 0.25

    def test_bounds_on_random_maps(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            c = confidence(pmap(rng.uniform(size=(7, 3))))
            assert 0.0 <= c <= 0.5


class TestScoreSample:
    def test_identical_heads(self):
        rng = np.random.default_rng(2)
        m = pmap(rng.uniform(size=(8, 8)))
        s = score_sample(MultiHeadPrediction(m, m, m), "a")
        assert s.l_dsc == s.m_dsc == s.mean_dsc == 1.0
        assert s.uncertainty == 0.0

    def test_disjoint_heads(self):
        lower = pmap([[0.9, 0.1], [0.1, 0.1]])
        middle = pmap([[0.8, 0.2], [0.2, 0.1]])
        final = pmap([[0.1, 0.9], [0.9, 0.9]])
        s = score_sample(MultiHeadPrediction(lower, middle, final), "a")
        assert s.mean_dsc == 0.0
        assert s.uncertainty == 1.0

    def test_mean_of_head_agreements(self):
        # l_dsc = 0.8 and m_dsc = 0.6 by construction
        final = pmap([[0.9] * 5, [0.1] * 5])  # 5 foreground pixels
        lower = pmap([[0.9, 0.9, 0.9, 0.1, 0.1], [0.1] * 5])  # 3 fg, all shared
        middle = pmap([[0.9, 0.9, 0.1, 0.1, 0.1], [0.9] * 5])  # 7 fg, 2 shared: 2*2/12
        s = score_sample(MultiHeadPrediction(lower, middle, final), "a")
        assert s.l_dsc == pytest.approx(2 * 3 / 8)  # 0.75
        assert s.m_dsc == pytest.approx(2 * 2 / 12)
        assert s.mean_dsc == (s.l_dsc + s.m_dsc) / 2
        assert s.uncertainty == 1.0 - s.mean_dsc

    def test_invariants_validated(self):
        with pytest.raises(ValueError):
            SampleScores("x", 0.5, 0.5, 0.7)  # confidence out of range

    def test_derived_scores_are_the_scorer_floats(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            l, m = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
            s = SampleScores("x", l, m, 0.25)
            mean = (l + m) / 2.0
            assert s.mean_dsc == mean
            assert s.uncertainty == 1.0 - mean


class TestConfidenceThreshold:
    def test_uppermost_bin_start(self):
        assert confidence_threshold([0.1, 0.35, 0.6], 5) == pytest.approx(0.5)

    def test_all_equal_passes_everything(self):
        t = confidence_threshold([0.3, 0.3, 0.3], 10)
        assert t < 0.3

    def test_ten_bins_top_decile(self):
        rng = np.random.default_rng(3)
        scores = list(rng.uniform(0.1, 0.5, size=200))
        t = confidence_threshold(scores, 10)
        lo, hi = min(scores), max(scores)
        expected = {s for s in scores if s > lo + 0.9 * (hi - lo)}
        assert {s for s in scores if s > t} == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            confidence_threshold([], 10)
        with pytest.raises(ValueError):
            confidence_threshold([0.1], 1)

    @given(st.lists(st.floats(0, 0.5), min_size=2, max_size=40), st.integers(2, 30))
    @settings(max_examples=80, deadline=None)
    def test_raising_bins_never_lowers_threshold(self, scores, bins):
        t1 = confidence_threshold(scores, bins)
        t2 = confidence_threshold(scores, bins + 1)
        assert t2 >= t1


class TestSelectQueries:
    def test_top_k_most_uncertain(self):
        scores = scores_from([0.1, 0.9, 0.5, 0.8, 0.2])
        split = select_queries(scores, 2, 0, 10, pseudo_enabled=False, confidence_filter=True)
        assert split.strong_ids == ("s001", "s003")
        assert split.weak_ids == ()

    def test_weak_from_certain_confident(self):
        # high-uncertainty ones go strong; weak picks low uncertainty above t_conf
        unc = [0.9, 0.8, 0.1, 0.2, 0.3, 0.4]
        conf = [0.10, 0.12, 0.45, 0.44, 0.20, 0.43]
        scores = scores_from(unc, conf)
        split = select_queries(scores, 2, 2, 5, pseudo_enabled=True, confidence_filter=True)
        assert split.strong_ids == ("s000", "s001")
        # t_conf = 0.10 + 0.8*0.35 = 0.38; passing: s002, s003, s005
        assert split.t_conf == pytest.approx(0.38)
        assert split.weak_ids == ("s002", "s003")

    def test_all_fail_filter(self):
        scores = scores_from([0.5, 0.6, 0.7], [0.2, 0.2, 0.2000001])
        split = select_queries(scores, 1, 2, 10, pseudo_enabled=True, confidence_filter=True)
        # only the top-range sample passes, but it went to strong
        assert split.strong_ids == ("s002",)
        assert split.weak_ids == ()

    def test_pseudo_disabled(self):
        scores = scores_from([0.5, 0.6, 0.7], [0.4, 0.4, 0.4])
        split = select_queries(scores, 1, 2, 10, pseudo_enabled=False, confidence_filter=True)
        assert split.weak_ids == ()
        assert split.t_conf == math.inf

    def test_filter_disabled_takes_bottom_k(self):
        scores = scores_from([0.9, 0.1, 0.2, 0.3], [0.0, 0.0, 0.0, 0.5])
        split = select_queries(scores, 1, 2, 10, pseudo_enabled=True, confidence_filter=False)
        assert split.strong_ids == ("s000",)
        assert split.weak_ids == ("s001", "s002")

    def test_ties_break_by_id(self):
        scores = scores_from([0.5, 0.5, 0.5, 0.5], ids=["d", "b", "c", "a"])
        split = select_queries(scores, 2, 0, 10, pseudo_enabled=False, confidence_filter=True)
        assert split.strong_ids == ("a", "b")

    def test_short_pool_takes_all(self):
        scores = scores_from([0.5, 0.6], [0.49, 0.48])
        split = select_queries(scores, 5, 5, 10, pseudo_enabled=True, confidence_filter=True)
        assert set(split.strong_ids) == {"s000", "s001"}
        assert split.weak_ids == ()

    def test_determinism_and_disjointness_random(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(1, 40))
            unc = rng.uniform(0, 1, n).round(2)  # rounding forces ties
            conf = rng.uniform(0, 0.5, n).round(2)
            scores = scores_from(list(unc), list(conf))
            k_s, k_w = int(rng.integers(0, 8)), int(rng.integers(0, 8))
            a = select_queries(scores, k_s, k_w, 10, pseudo_enabled=True, confidence_filter=True)
            b = select_queries(list(reversed(scores)), k_s, k_w, 10, pseudo_enabled=True, confidence_filter=True)
            assert a == b  # input order must not matter
            assert not (set(a.strong_ids) & set(a.weak_ids))
            assert len(a.strong_ids) <= k_s and len(a.weak_ids) <= k_w


class TestRankCorrelation:
    def test_comonotone(self):
        assert rank_correlation([0.1, 0.5, 0.9], [1.0, 2.0, 3.0]) == pytest.approx(1.0)

    def test_antimonotone(self):
        assert rank_correlation([0.1, 0.5, 0.9], [3.0, 2.0, 1.0]) == pytest.approx(-1.0)

    def test_matches_scipy_spearman(self):
        from scipy.stats import spearmanr

        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.uniform(size=20)
            b = rng.uniform(size=20)
            assert rank_correlation(a, b) == pytest.approx(spearmanr(a, b).statistic, abs=1e-12)

    def test_ties_average_ranks(self):
        from scipy.stats import spearmanr

        a = [0.5, 0.5, 0.2, 0.9, 0.2]
        b = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert rank_correlation(a, b) == pytest.approx(spearmanr(a, b).statistic, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            rank_correlation([1, 2], [1, 2])
        with pytest.raises(ValueError):
            rank_correlation([1, 2, 3], [1, 2])
        with pytest.raises(ValueError):
            rank_correlation([1, 1, 1], [1, 2, 3])

    @given(st.lists(st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0)), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_descending_ranks_match_scipy_rankdata(self, values):
        from scipy.stats import rankdata

        np.testing.assert_array_equal(descending_ranks(values), rankdata(-np.asarray(values)))


class TestScoresCsv:
    def test_schema_and_formatting(self, tmp_path):
        rows = [(1, scores_from([0.25], [0.125], ["a"])[0], "strong")]
        write_scores_csv(str(tmp_path / "scores.csv"), rows)
        lines = (tmp_path / "scores.csv").read_text().splitlines()
        assert lines[0] == "iteration,sample_id,l_dsc,m_dsc,mean_dsc,uncertainty,confidence,selected_as"
        assert lines[1] == "1,a,0.75,0.75,0.75,0.25,0.125,strong"

    def test_rejects_bad_mark(self, tmp_path):
        rows = [(1, scores_from([0.5])[0], "meh")]
        with pytest.raises(ValueError):
            write_scores_csv(str(tmp_path / "scores.csv"), rows)

    def test_bad_mark_writes_no_file(self, tmp_path):
        rows = [(1, s, "weak") for s in scores_from([0.5, 0.25])] + [(2, scores_from([0.5])[0], "meh")]
        with pytest.raises(ValueError, match="bad selected_as value 'meh'"):
            write_scores_csv(str(tmp_path / "scores.csv"), rows)
        assert list(tmp_path.iterdir()) == []
