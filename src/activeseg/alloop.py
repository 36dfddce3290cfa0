"""The query / annotate / fine-tune loop.

Each round scores the unlabeled pool with the current model, sends the
most uncertain samples to the simulated oracle and the most certain
confident ones to the weak labeler, folds both into the labeled set, and
fine-tunes the model on it.  ``run_detailed`` owns the round number and
the weak labeler: it builds the CRF ensemble and greedily fine-tunes it
once, at the first pseudo-labeling round, then freezes it; without
``ensemble_crf`` it passes no ensemble, and the round thresholds the
model's own maps instead.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from . import segmenter, selection, weaklabeler
from .core import BinaryMask, ImageGrid, PoolState, ProbMap, Sample, binarize, check_seed, dice, move_to_labeled
from .crf import CrfParams
from .segmenter import LossWeights, SegmenterParams, TrainConfig
from .selection import QuerySplit, SampleScores
from .weaklabeler import CrfEnsemble, PerturbSpec

QUERY_STRATEGIES = ("uncertainty", "random")
DscPair = Tuple[str, float, float]  # (sample id, mean_dsc, r_dsc)


@dataclass(frozen=True)
class ALConfig:
    """Everything one query loop needs; fully determines the run given a split."""

    iterations: int
    k_strong: int
    k_weak: int
    bins: int
    pseudo_start_iter: int
    train: TrainConfig  # every fine-tuning round; base training differs only in its epochs
    base_epochs: int
    loss_weights: LossWeights
    crf_center: CrfParams
    ensemble_size: int
    perturb: PerturbSpec
    ensemble_rounds: int
    seed: int
    query_strategy: str
    # ablation switches: drop the confidence filter, or replace the
    # CRF-ensemble weak labeler with the model's own thresholded prediction
    # (k_weak=0 turns pseudo-labeling off)
    confidence_filter: bool
    ensemble_crf: bool
    target_dsc: Optional[float]  # None: no early stop

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("need at least one iteration")
        if self.k_strong < 0 or self.k_weak < 0:
            raise ValueError("query sizes must be nonnegative")
        if self.pseudo_start_iter < 1:
            raise ValueError("pseudo_start_iter counts from iteration 1")
        replace(self.train, epochs=self.base_epochs)  # TrainConfig checks the base epochs
        if self.bins < 2:
            raise ValueError(f"need at least 2 histogram bins, got {self.bins}")
        if self.ensemble_size < 1 or self.ensemble_size % 2 == 0:
            raise ValueError(f"ensemble size must be odd and >= 1, got {self.ensemble_size}")
        if self.query_strategy not in QUERY_STRATEGIES:
            raise ValueError(f"query_strategy must be one of {QUERY_STRATEGIES}")
        check_seed(self.seed)
        if self.ensemble_rounds < 0:
            raise ValueError(f"ensemble rounds must be nonnegative, got {self.ensemble_rounds}")
        if self.target_dsc is not None and not (
            isinstance(self.target_dsc, numbers.Real) and 0.0 <= self.target_dsc <= 1.0
        ):
            # a nan would never be reached and silently turn the early stop off
            raise ValueError(f"target_dsc must be a number in [0, 1], got {self.target_dsc!r}")

    def pseudo_round(self, t: int) -> bool:
        """Whether round t sends confident queries to the weak labeler."""
        return self.k_weak > 0 and self.query_strategy == "uncertainty" and t >= self.pseudo_start_iter


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    strong_ids: Tuple[str, ...]
    weak_ids: Tuple[str, ...]
    test_dsc: float
    pool_remaining: int
    labeled_total: int
    phase1_ms: float
    phase2_ms: float
    phase3_ms: float
    test_pairs: Tuple[DscPair, ...]  # of the fine-tuned model, one per test sample
    scores: Tuple[SampleScores, ...]  # the pool's, in sample-id order; empty when the strategy does not score

    def __post_init__(self):
        if not 0.0 <= self.test_dsc <= 1.0:
            raise ValueError(f"test_dsc must lie in [0, 1], got {self.test_dsc}")


@dataclass(frozen=True)
class RunResult:
    """Records plus the artifacts the harness reports on."""

    records: Tuple[IterationRecord, ...]
    params: SegmenterParams
    ensemble: Optional[CrfEnsemble]
    base_test_dsc: float
    correlation_pairs: Tuple[Tuple[int, str, float, float], ...]  # (iter, id, mean_dsc, r_dsc)
    final_pool: PoolState


def oracle_label(sample: Sample) -> BinaryMask:
    """Simulated expert annotation: the stored ground truth, unmodified."""
    return sample.require_ground_truth()


def evaluate(params: SegmenterParams, samples: Sequence[Sample]) -> Tuple[float, Tuple[DscPair, ...]]:
    """Mean Dice of the binarized final head against ground truth, and per
    sample its id, the selection proxy mean_dsc and that real Dice (r_dsc),
    all from one forward pass per sample."""
    if len(samples) == 0:
        raise ValueError("evaluation set is empty")
    pairs = []
    for s in samples:
        pred = segmenter.predict(params, s.image)
        r_dsc = dice(binarize(pred.final), s.require_ground_truth())
        pairs.append((s.id, selection.score_sample(pred, s.id).mean_dsc, r_dsc))
    return float(np.mean([r_dsc for _, _, r_dsc in pairs])), tuple(pairs)


def _score_pool(
    params: SegmenterParams, pool: Sequence[Sample], keep_final: bool
) -> Tuple[list[SampleScores], dict[str, ProbMap]]:
    """The scores of every pool sample, from one forward pass each, and, if
    keep_final, each sample's final map by id."""
    scores, finals = [], {}
    for s in pool:
        pred = segmenter.predict(params, s.image)
        scores.append(selection.score_sample(pred, s.id))
        if keep_final:
            finals[s.id] = pred.final
    return scores, finals


def _labeled_pairs(state: PoolState) -> list[tuple[ImageGrid, BinaryMask]]:
    return [(entry.sample.image, entry.mask) for entry in state.labeled]


def _random_split(state: PoolState, cfg: ALConfig, t: int) -> QuerySplit:
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, t]))
    ids = sorted(s.id for s in state.unlabeled)
    k = min(cfg.k_strong, len(ids))
    chosen = rng.choice(len(ids), size=k, replace=False)
    return QuerySplit(tuple(ids[i] for i in sorted(chosen)), (), float("inf"))


def run_iteration(
    state: PoolState,
    params: SegmenterParams,
    cfg: ALConfig,
    t: int,
    ensemble: Optional[CrfEnsemble],
    test_set: Sequence[Sample],
) -> Tuple[PoolState, SegmenterParams, IterationRecord]:
    """Query round t; returns the new pool, the fine-tuned params and the
    round's record.  Weak queries are refined with ``ensemble``, or
    thresholded when it is None."""
    if len(state.unlabeled) == 0:
        raise ValueError("unlabeled pool is empty; the loop is complete")
    pseudo_enabled = cfg.pseudo_round(t)

    # phase 1: query selection
    t0 = time.perf_counter()
    scores: list[SampleScores] = []
    # the final map of each weak query, from the forward pass that scored it;
    # no other sample's map outlives selection
    weak_finals: dict[str, ProbMap] = {}
    if cfg.query_strategy == "random":
        split = _random_split(state, cfg, t)
    else:
        scores, finals = _score_pool(params, state.unlabeled, keep_final=pseudo_enabled)
        split = selection.select_queries(
            scores,
            cfg.k_strong,
            cfg.k_weak,
            cfg.bins,
            pseudo_enabled,
            confidence_filter=cfg.confidence_filter,
        )
        weak_finals = {sid: finals[sid] for sid in split.weak_ids}
        del finals
    phase1 = time.perf_counter() - t0

    # phase 2: sample annotation
    t0 = time.perf_counter()
    by_id = {s.id: s for s in state.unlabeled}
    strong_masks = [oracle_label(by_id[sid]) for sid in split.strong_ids]
    weak_masks = []
    for sid in split.weak_ids:
        prob = weak_finals.pop(sid)
        weak_masks.append(binarize(prob) if ensemble is None else weaklabeler.refine(ensemble, by_id[sid].image, prob))
    phase2 = time.perf_counter() - t0

    # phase 3: update pool and fine-tune
    t0 = time.perf_counter()
    new_state = move_to_labeled(state, split.strong_ids, strong_masks, "oracle")
    new_state = move_to_labeled(new_state, split.weak_ids, weak_masks, "pseudo")
    new_params = segmenter.train(params, _labeled_pairs(new_state), cfg.train, cfg.loss_weights)
    phase3 = time.perf_counter() - t0

    test_dsc, test_pairs = evaluate(new_params, test_set)
    record = IterationRecord(
        iteration=t,
        strong_ids=split.strong_ids,
        weak_ids=split.weak_ids,
        test_dsc=test_dsc,
        pool_remaining=len(new_state.unlabeled),
        labeled_total=len(new_state.labeled),
        phase1_ms=phase1 * 1000.0,
        phase2_ms=phase2 * 1000.0,
        phase3_ms=phase3 * 1000.0,
        test_pairs=test_pairs,
        scores=tuple(sorted(scores, key=lambda s: s.sample_id)),
    )
    return new_state, new_params, record


@dataclass(frozen=True)
class DatasetSplit:
    """Initial labeled set, query pool, and held-out test samples."""

    initial: Tuple[Sample, ...]
    pool: Tuple[Sample, ...]
    test: Tuple[Sample, ...]

    def __post_init__(self):
        ids = [s.id for group in (self.initial, self.pool, self.test) for s in group]
        if len(set(ids)) != len(ids):
            raise ValueError("split groups must be disjoint by sample id")
        if len(self.initial) == 0 or len(self.test) == 0:
            raise ValueError("initial labeled set and test set must be nonempty")
        for s in list(self.initial) + list(self.test):
            if s.ground_truth is None:
                raise ValueError(f"sample {s.id!r} needs ground truth for this split")


def run_detailed(split: DatasetSplit, cfg: ALConfig) -> RunResult:
    """Base-train on the initial labels, then iterate until the configured
    number of rounds, pool exhaustion, or the optional target Dice."""
    initial_masks = [oracle_label(s) for s in split.initial]
    state = PoolState(labeled=(), unlabeled=tuple(split.initial) + tuple(split.pool))
    state = move_to_labeled(state, [s.id for s in split.initial], initial_masks, "initial")

    base_train = replace(cfg.train, epochs=cfg.base_epochs)
    params = segmenter.train(segmenter.init_params(cfg.seed), _labeled_pairs(state), base_train, cfg.loss_weights)
    base_dsc, base_pairs = evaluate(params, split.test)

    ensemble: Optional[CrfEnsemble] = None
    records: list[IterationRecord] = []

    for t in range(1, cfg.iterations + 1):
        if len(state.unlabeled) == 0:
            break
        if cfg.pseudo_round(t) and cfg.ensemble_crf and ensemble is None:
            ensemble = _prepare_ensemble(state, params, cfg)
        state, params, record = run_iteration(state, params, cfg, t, ensemble, split.test)
        records.append(record)
        if cfg.target_dsc is not None and record.test_dsc >= cfg.target_dsc:
            break

    return RunResult(
        records=tuple(records),
        params=params,
        ensemble=ensemble,
        base_test_dsc=base_dsc,
        correlation_pairs=tuple((0, *pair) for pair in base_pairs)
        + tuple((r.iteration, *pair) for r in records for pair in r.test_pairs),
        final_pool=state,
    )


ENSEMBLE_VALIDATION_CAP = 16


def _prepare_ensemble(state: PoolState, params: SegmenterParams, cfg: ALConfig) -> CrfEnsemble:
    """Build the weak-labeler ensemble and greedily fine-tune it against the
    current labeled set (model predictions as inputs, stored labels as truth).

    The validation set is capped at an evenly spaced subset of the labeled
    entries to keep fine-tuning cheap at desk scale.
    """
    ensemble = weaklabeler.build_ensemble(cfg.crf_center, cfg.ensemble_size, cfg.perturb, cfg.seed)
    entries = state.labeled
    if len(entries) > ENSEMBLE_VALIDATION_CAP:
        idx = np.linspace(0, len(entries) - 1, ENSEMBLE_VALIDATION_CAP).astype(int)
        entries = tuple(entries[i] for i in idx)
    validation = [
        (entry.sample.image, segmenter.predict(params, entry.sample.image).final, entry.mask)
        for entry in entries
    ]
    return weaklabeler.greedy_finetune(ensemble, validation, cfg.ensemble_rounds)
