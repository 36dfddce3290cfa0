from collections import Counter

import numpy as np
import pytest
from dataclasses import replace

from activeseg import alloop
from activeseg.alloop import ALConfig, DatasetSplit, oracle_label, run_detailed, run_iteration
from activeseg.core import BinaryMask, ImageGrid, PoolState, Sample, binarize, move_to_labeled
from activeseg.crf import CrfParams
from activeseg.harness import SyntheticSpec, default_experiment, generate_synthetic
from activeseg.segmenter import TrainConfig, init_params


def tiny_dataset(n, seed=0, size=16):
    return generate_synthetic(
        SyntheticSpec(n_samples=n, image_size=size, shape="ellipse",
                      noise_level=0.1, occlusion_prob=0.3, seed=seed)
    )


def tiny_config(**overrides) -> ALConfig:
    train = TrainConfig(epochs=1, learning_rate=0.3, batch_size=2, loss_kind="cross_entropy", seed=0)
    defaults = dict(
        iterations=3,
        k_strong=3,
        k_weak=2,
        bins=5,
        pseudo_start_iter=2,
        train=train,
        base_epochs=1,
        crf_center=CrfParams(1.5, 0.3, 2.0, 0.15, 0.4, 1),
        ensemble_size=3,
        ensemble_rounds=1,
        seed=0,
    )
    defaults.update(overrides)
    return replace(default_experiment().al, **defaults)


def tiny_split(n_initial=4, n_pool=12, n_test=4, seed=0):
    data = tiny_dataset(n_initial + n_pool + n_test, seed=seed)
    return DatasetSplit(
        initial=tuple(data[:n_initial]),
        pool=tuple(data[n_initial : n_initial + n_pool]),
        test=tuple(data[n_initial + n_pool :]),
    )


def semantic(records):
    """Record content minus the wall-clock phase durations."""
    return [
        (r.iteration, r.strong_ids, r.weak_ids, r.test_dsc, r.pool_remaining, r.labeled_total)
        for r in records
    ]


class TestOracle:
    def test_returns_stored_mask(self):
        s = tiny_dataset(1)[0]
        np.testing.assert_array_equal(oracle_label(s).values, s.ground_truth.values)

    def test_idempotent(self):
        s = tiny_dataset(1)[0]
        a, b = oracle_label(s), oracle_label(s)
        np.testing.assert_array_equal(a.values, b.values)

    def test_missing_ground_truth(self):
        s = Sample(id="x", image=ImageGrid(np.zeros((4, 4))))
        with pytest.raises(ValueError):
            oracle_label(s)


class TestRunIteration:
    def setup_state(self, cfg, split):
        masks = [oracle_label(s) for s in split.initial]
        state = PoolState(labeled=(), unlabeled=tuple(split.initial) + tuple(split.pool))
        state = move_to_labeled(state, [s.id for s in split.initial], masks, "initial")
        return state, init_params(cfg.seed)

    def test_pool_arithmetic(self):
        cfg = tiny_config(pseudo_start_iter=1)
        split = tiny_split()
        state, params = self.setup_state(cfg, split)
        ensemble = alloop._prepare_ensemble(state, params, cfg)
        new_state, _, record = run_iteration(state, params, cfg, 1, ensemble, split.test)
        assert len(new_state.unlabeled) == len(state.unlabeled) - len(record.strong_ids) - len(record.weak_ids)
        assert len(new_state.labeled) == len(state.labeled) + len(record.strong_ids) + len(record.weak_ids)
        assert record.weak_ids, "round 1 is a pseudo round here"
        assert record.iteration == 1
        assert len(record.strong_ids) == cfg.k_strong
        assert [s.sample_id for s in record.scores] == sorted(s.id for s in state.unlabeled)

    def test_no_pseudo_before_start(self):
        cfg = tiny_config(pseudo_start_iter=3)
        split = tiny_split()
        state, params = self.setup_state(cfg, split)
        _, _, record = run_iteration(state, params, cfg, 1, None, split.test)
        assert record.weak_ids == ()

    def test_oversized_query_takes_all(self):
        cfg = tiny_config(k_strong=50, pseudo_start_iter=9)
        split = tiny_split()
        state, params = self.setup_state(cfg, split)
        new_state, _, record = run_iteration(state, params, cfg, 1, None, split.test)
        assert len(record.strong_ids) == 12
        assert len(new_state.unlabeled) == 0

    def test_deterministic_records(self):
        cfg = tiny_config()
        split = tiny_split()
        state, params = self.setup_state(cfg, split)
        a = run_iteration(state, params, cfg, 1, None, split.test)
        b = run_iteration(state, params, cfg, 1, None, split.test)
        assert a[2].strong_ids == b[2].strong_ids
        assert a[2].test_dsc == b[2].test_dsc

    def test_empty_pool_is_terminal(self):
        cfg = tiny_config()
        split = tiny_split(n_pool=3)
        state, params = self.setup_state(cfg, split)
        state, params, _ = run_iteration(state, params, cfg, 1, None, split.test)
        with pytest.raises(ValueError, match="complete"):
            run_iteration(state, params, cfg, 2, None, split.test)

    def test_pseudo_round_without_ensemble_thresholds_the_scoring_maps(self, monkeypatch):
        cfg = tiny_config(pseudo_start_iter=1)
        split = tiny_split()
        state, params = self.setup_state(cfg, split)
        finals = {}  # image id -> final map of each forward pass with the round's params
        original = alloop.segmenter.predict

        def spy(p, image):
            pred = original(p, image)
            if p is params:
                finals[id(image)] = pred.final
            return pred

        monkeypatch.setattr(alloop.segmenter, "predict", spy)
        new_state, _, record = run_iteration(state, params, cfg, 1, None, split.test)
        pseudo = [e for e in new_state.labeled if e.provenance == "pseudo"]
        assert pseudo, "test must exercise the weak-labeling path"
        assert [e.sample.id for e in pseudo] == list(record.weak_ids)
        for e in pseudo:
            np.testing.assert_array_equal(e.mask.values, binarize(finals[id(e.sample.image)]).values)


class TestRun:
    def test_no_sample_selected_twice(self):
        split = tiny_split()
        result = run_detailed(split, tiny_config())
        seen = set()
        for rec in result.records:
            ids = set(rec.strong_ids) | set(rec.weak_ids)
            assert not (ids & seen)
            seen |= ids

    def test_provenance_reconciles(self):
        split = tiny_split()
        result = run_detailed(split, tiny_config())
        counts = result.final_pool.provenance_counts()
        assert counts["initial"] == len(split.initial)
        assert counts["oracle"] == sum(len(r.strong_ids) for r in result.records)
        assert counts["pseudo"] == sum(len(r.weak_ids) for r in result.records)
        assert sum(counts.values()) == len(result.final_pool.labeled)

    def test_pool_conservation(self):
        split = tiny_split()
        result = run_detailed(split, tiny_config())
        total = len(split.initial) + len(split.pool)
        assert len(result.final_pool.labeled) + len(result.final_pool.unlabeled) == total

    def test_reproducible(self):
        split = tiny_split()
        cfg = tiny_config()
        a = run_detailed(split, cfg)
        b = run_detailed(split, cfg)
        assert semantic(a.records) == semantic(b.records)
        assert a.correlation_pairs == b.correlation_pairs

    def test_rsna_shaped_exhaustion(self):
        # |initial| 10, pool 129, 10 oracle + 10 pseudo per round: six full
        # rounds leave 9 samples, the seventh drains them
        data = tiny_dataset(149, seed=3)
        split = DatasetSplit(initial=tuple(data[:10]), pool=tuple(data[10:139]), test=tuple(data[139:]))
        cfg = tiny_config(iterations=12, k_strong=10, k_weak=10, bins=5, pseudo_start_iter=1,
                          confidence_filter=False)
        result = run_detailed(split, cfg)
        consumed = [len(r.strong_ids) + len(r.weak_ids) for r in result.records]
        assert consumed[:6] == [20] * 6
        assert consumed[6] == 9
        assert len(result.records) == 7
        assert result.final_pool.unlabeled == ()

    def test_random_baseline_has_no_weak_labels(self):
        split = tiny_split()
        result = run_detailed(split, tiny_config(query_strategy="random", pseudo_start_iter=1))
        assert all(r.weak_ids == () for r in result.records)
        assert result.final_pool.provenance_counts()["pseudo"] == 0

    def test_random_baseline_seeded(self):
        split = tiny_split()
        cfg = tiny_config(query_strategy="random")
        a = run_detailed(split, cfg)
        b = run_detailed(split, cfg)
        assert semantic(a.records) == semantic(b.records)

    def test_target_dsc_stops_early(self):
        split = tiny_split()
        result = run_detailed(split, tiny_config(target_dsc=0.0))
        assert len(result.records) == 1

    def test_each_model_state_forwards_the_test_set_once(self, monkeypatch):
        split = tiny_split()
        calls: list = []  # keeps every object alive, so its id is not reused
        original = alloop.segmenter.predict

        def spy(params, image):
            calls.append((params, image))
            return original(params, image)

        monkeypatch.setattr(alloop.segmenter, "predict", spy)
        result = run_detailed(split, tiny_config())
        for s in split.test:
            assert sum(1 for _, image in calls if image is s.image) == len(result.records) + 1
        weak = [sid for r in result.records for sid in r.weak_ids]
        assert weak, "test must exercise the weak-labeling path"
        # the weak samples' maps come from the pass that scored them: no
        # model state forwards any image twice
        counts = Counter((id(params), id(image)) for params, image in calls)
        assert max(counts.values()) == 1

    def test_correlation_pairs_are_the_evaluated_test_dsc(self):
        result = run_detailed(tiny_split(), tiny_config())
        test_dscs = [result.base_test_dsc] + [r.test_dsc for r in result.records]
        for t, test_dsc in enumerate(test_dscs):
            r_dscs = [r_dsc for it, _, _, r_dsc in result.correlation_pairs if it == t]
            assert float(np.mean(r_dscs)) == test_dsc

    def test_pseudo_labels_never_read_ground_truth(self, monkeypatch):
        split = tiny_split(n_pool=14)
        cfg = tiny_config(pseudo_start_iter=1, ensemble_rounds=1)
        accessed: list[str] = []
        original = Sample.require_ground_truth

        def spy(self):
            accessed.append(self.id)
            return original(self)

        monkeypatch.setattr(Sample, "require_ground_truth", spy)
        result = run_detailed(split, cfg)
        pseudo_ids = {
            e.sample.id for e in result.final_pool.labeled if e.provenance == "pseudo"
        }
        assert pseudo_ids, "test must exercise the weak-labeling path"
        pool_ids = {s.id for s in split.pool} | {s.id for s in split.initial}
        touched_pool_ids = set(accessed) & pool_ids
        oracle_ids = {s.id for s in split.initial} | {
            sid for r in result.records for sid in r.strong_ids
        }
        assert touched_pool_ids == oracle_ids
        assert not (pseudo_ids & touched_pool_ids)


class TestConfigValidation:
    def test_bad_strategy(self):
        with pytest.raises(ValueError):
            tiny_config(query_strategy="greedy")

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            tiny_config(k_strong=-1)
        with pytest.raises(ValueError):
            tiny_config(iterations=0)

    @pytest.mark.parametrize("members", [0, 4])
    def test_even_ensemble_rejected_before_the_loop(self, members):
        with pytest.raises(ValueError, match=f"ensemble_size must be odd and >= 1, got {members}"):
            tiny_config(ensemble_size=members)

    def test_single_bin_rejected_before_the_loop(self):
        with pytest.raises(ValueError, match="need at least 2 histogram bins, got 1"):
            tiny_config(bins=1)

    def test_split_needs_ground_truth(self):
        data = tiny_dataset(6)
        stripped = Sample(id="bare", image=data[0].image, ground_truth=None)
        with pytest.raises(ValueError):
            DatasetSplit(initial=(stripped,), pool=tuple(data[1:5]), test=(data[5],))


@pytest.mark.parametrize("strategy", ["uncertainty", "random"])
@pytest.mark.parametrize("k_weak", [0, 2])
def test_pseudo_round_truth_table(strategy, k_weak):
    cfg = tiny_config(pseudo_start_iter=3, query_strategy=strategy, k_weak=k_weak)
    expected = [k_weak > 0 and strategy == "uncertainty" and t >= 3 for t in (1, 2, 3, 4)]
    assert [cfg.pseudo_round(t) for t in (1, 2, 3, 4)] == expected
