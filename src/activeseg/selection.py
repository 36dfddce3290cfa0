"""Query-selection criteria: inter-head Dice agreement, confidence, and the
adaptive histogram threshold that gates pseudo-label candidates.

Uncertainty is 1 minus the mean agreement of the two auxiliary heads with
the final head, so larger means more uncertain; the confidence score is the
mean per-pixel distance of the final probability map from 0.5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ProbMap, binarize, dice
from .segmenter import MultiHeadPrediction

DEGENERATE_THRESHOLD_EPS = 1e-12


@dataclass(frozen=True)
class SampleScores:
    """Per-sample agreement, uncertainty, and confidence scores."""

    sample_id: str
    l_dsc: float
    m_dsc: float
    confidence: float

    def __post_init__(self):
        for name in ("l_dsc", "m_dsc"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if not 0.0 <= self.confidence <= 0.5:
            raise ValueError(f"confidence must lie in [0, 0.5], got {self.confidence}")

    @property
    def mean_dsc(self) -> float:
        return (self.l_dsc + self.m_dsc) / 2.0

    @property
    def uncertainty(self) -> float:
        return 1.0 - self.mean_dsc


@dataclass(frozen=True)
class QuerySplit:
    """Ids queried for oracle annotation (strong) and pseudo-labeling (weak)."""

    strong_ids: tuple[str, ...]
    weak_ids: tuple[str, ...]
    t_conf: float

    def __post_init__(self):
        if set(self.strong_ids) & set(self.weak_ids):
            raise ValueError("strong and weak query sets must be disjoint")


def confidence(p: ProbMap) -> float:
    """Mean per-pixel distance of the probability map from 1/2; in [0, 0.5]."""
    return float(np.mean(np.abs(p.values - 0.5)))


def score_sample(pred: MultiHeadPrediction, sample_id: str) -> SampleScores:
    """Agreement of the auxiliary heads with the final head, plus confidence."""
    final_mask = binarize(pred.final)
    return SampleScores(
        sample_id=sample_id,
        l_dsc=dice(binarize(pred.lower), final_mask),
        m_dsc=dice(binarize(pred.middle), final_mask),
        confidence=confidence(pred.final),
    )


def confidence_threshold(scores: Sequence[float], bins: int) -> float:
    """Start of the uppermost of `bins` equal-width bins over the score range.

    Only samples strictly above the returned value pass the filter.  When
    all scores coincide the threshold drops just below them so every sample
    passes.
    """
    if len(scores) == 0:
        raise ValueError("cannot form a histogram over zero confidence scores")
    if bins < 2:
        raise ValueError(f"need at least 2 histogram bins, got {bins}")
    lo = min(scores)
    hi = max(scores)
    if hi == lo:
        return lo - DEGENERATE_THRESHOLD_EPS
    return lo + (bins - 1) / bins * (hi - lo)


def select_queries(
    scores: Sequence[SampleScores],
    k_strong: int,
    k_weak: int,
    bins: int,
    pseudo_enabled: bool,
    confidence_filter: bool,
) -> QuerySplit:
    """Top-k_strong most-uncertain samples for the oracle; among the rest,
    the k_weak most-certain samples passing the confidence filter for
    pseudo-labeling.

    Uncertainty ties break by ascending sample id.  Strong selection takes
    precedence, which guarantees the two sets are disjoint.  Fewer
    candidates than k means all available are taken.
    """
    if k_strong < 0 or k_weak < 0:
        raise ValueError("query sizes must be nonnegative")
    by_uncertainty = sorted(scores, key=lambda s: (-s.uncertainty, s.sample_id))
    strong = by_uncertainty[:k_strong]
    remainder = by_uncertainty[k_strong:]

    if not pseudo_enabled or k_weak == 0:
        return QuerySplit(tuple(s.sample_id for s in strong), (), math.inf)

    if confidence_filter:
        t_conf = confidence_threshold([s.confidence for s in scores], bins)
        candidates = [s for s in remainder if s.confidence > t_conf]
    else:
        t_conf = -math.inf
        candidates = list(remainder)
    weak = sorted(candidates, key=lambda s: (s.uncertainty, s.sample_id))[:k_weak]
    return QuerySplit(
        tuple(s.sample_id for s in strong),
        tuple(s.sample_id for s in weak),
        t_conf,
    )


def descending_ranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks in descending order; tied values share the average rank."""
    _, inverse, counts = np.unique(-np.asarray(values, dtype=np.float64), return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - counts + (counts + 1) / 2)[inverse]


def rank_correlation(mean_dscs: Sequence[float], real_dscs: Sequence[float]) -> float:
    """Pearson correlation of descending-order ranks (Spearman on raw values)."""
    if len(mean_dscs) != len(real_dscs):
        raise ValueError(f"length mismatch: {len(mean_dscs)} vs {len(real_dscs)}")
    if len(mean_dscs) < 3:
        raise ValueError("need at least 3 pairs for a rank correlation")
    ra = descending_ranks(mean_dscs)
    rb = descending_ranks(real_dscs)
    da = ra - ra.mean()
    db = rb - rb.mean()
    denom = math.sqrt(float((da**2).sum()) * float((db**2).sum()))
    if denom == 0.0:
        raise ValueError("rank correlation undefined: one of the lists is entirely tied")
    return float((da * db).sum() / denom)
