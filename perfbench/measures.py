"""What one experiment yields: per-layer numbers from its spans, the
pseudo-label quality, and the outcome that is checked against a reference.
"""

from __future__ import annotations

import hashlib
import os
from collections import defaultdict
from typing import Optional, Sequence

from spans import REPORT_SPANS, BenchmarkError, Span, ancestors, context, self_times

# absolute tolerance on a round's test Dice before an outcome check fails
DSC_TOLERANCE = 1e-6
DIGESTED_CSVS = ("run_log.csv", "scores.csv", "correlation.csv")


def pseudo_label_dsc(final_pool, dice) -> Optional[float]:
    """Mean Dice of every pseudo label in ``final_pool`` against the hidden
    ground truth, or None when the run made none.  Computed after the loop,
    which never reads the stored labels of weak samples."""
    scores = [
        dice(e.mask, e.sample.require_ground_truth())
        for e in final_pool.labeled
        if e.provenance == "pseudo"
    ]
    return sum(scores) / len(scores) if scores else None


def _sha256(path: str) -> Optional[str]:
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def outcome(result, output_dir: str) -> dict:
    """The selected ids and test Dice per round plus the CSV digests."""
    return {
        "base_test_dsc": result.base_test_dsc,
        "rounds": [
            {"strong": list(r.strong_ids), "weak": list(r.weak_ids), "test_dsc": r.test_dsc}
            for r in result.records
        ],
        "csv_sha256": {name: _sha256(os.path.join(output_dir, name)) for name in DIGESTED_CSVS},
    }


def outcome_problems(got: dict, want: dict) -> list[str]:
    """Differences that fail a run: other ids, or a Dice off by more than
    DSC_TOLERANCE.  CSV bytes are compared separately (csv_identical)."""
    problems = []
    if len(got["rounds"]) != len(want["rounds"]):
        return [f"{len(got['rounds'])} rounds, reference has {len(want['rounds'])}"]
    if abs(got["base_test_dsc"] - want["base_test_dsc"]) > DSC_TOLERANCE:
        problems.append(f"base test DSC {got['base_test_dsc']} != {want['base_test_dsc']}")
    for t, (g, w) in enumerate(zip(got["rounds"], want["rounds"]), 1):
        for kind in ("strong", "weak"):
            if g[kind] != w[kind]:
                problems.append(f"round {t}: {kind} ids differ from the reference")
        if abs(g["test_dsc"] - w["test_dsc"]) > DSC_TOLERANCE:
            problems.append(f"round {t}: test DSC {g['test_dsc']} != {w['test_dsc']}")
    return problems


def csv_identical(got: dict, want: dict) -> bool:
    return got["csv_sha256"] == want["csv_sha256"]


def invariant_problems(got: dict, al_cfg, pool_ids: set) -> list[str]:
    """Checks that hold for any seed, reference or not."""
    problems = []
    rounds = got["rounds"]
    if len(rounds) != al_cfg.iterations:
        problems.append(f"{len(rounds)} rounds, configured {al_cfg.iterations}")
    seen: set[str] = set()
    for t, r in enumerate(rounds, 1):
        ids = r["strong"] + r["weak"]
        if seen.intersection(ids) or len(set(ids)) != len(ids):
            problems.append(f"round {t}: a sample was queried twice")
        seen.update(ids)
        if len(r["strong"]) != al_cfg.k_strong:
            problems.append(f"round {t}: {len(r['strong'])} strong queries, configured {al_cfg.k_strong}")
        if len(r["weak"]) > al_cfg.k_weak:
            problems.append(f"round {t}: {len(r['weak'])} weak queries, at most {al_cfg.k_weak}")
        if not 0.0 <= r["test_dsc"] <= 1.0:
            problems.append(f"round {t}: test DSC {r['test_dsc']} outside [0, 1]")
    if not seen <= pool_ids:
        problems.append("a queried sample is not in the pool")
    return problems


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def check_expectations(spans: Sequence[Span], expect: dict) -> None:
    """Fail loudly when a span the workload must call is missing, or one it
    must not call appears: a rename shows as an error, not as a silent 0."""
    called = {s.name for s in spans}
    for name, must_call in expect.items():
        if must_call and name not in called:
            raise BenchmarkError(f"expected span {name} has zero calls on this workload")
        if not must_call and name in called:
            raise BenchmarkError(f"span {name} was called on a workload that must not call it")


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: Sequence[Span], records) -> dict[str, float]:
    """Per-layer numbers of one traced experiment, named after the modules."""
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)
    own = self_times(spans)

    def seconds(name: str) -> float:
        return sum(spans[i].duration for i in by_name[name])

    def calls(name: str) -> int:
        return len(by_name[name])

    def counter(name: str, key: str) -> int:
        return sum(spans[i].counters[key] for i in by_name[name])

    wall = seconds("harness.run_experiment")
    m: dict[str, float] = {}

    m["harness.load_samples.s"] = seconds("harness.load_samples")
    m["harness.make_split.s"] = seconds("harness.make_split")
    m["harness.reports.s"] = sum(seconds(n) for n in REPORT_SPANS)

    train_s = seconds("segmenter.train")
    steps = counter("segmenter.train", "sample_steps")
    m["segmenter.train.calls"] = calls("segmenter.train")
    m["segmenter.train.s"] = train_s
    m["segmenter.train.sample_steps"] = steps
    m["segmenter.train.sample_steps_per_s"] = _ratio(steps, train_s)
    m["segmenter.train.share_pct"] = 100.0 * _ratio(train_s, wall)

    predict = by_name["segmenter.predict"]
    predict_s = seconds("segmenter.predict")
    m["segmenter.predict.calls"] = len(predict)
    m["segmenter.predict.s"] = predict_s
    m["segmenter.predict.images_per_s"] = _ratio(len(predict), predict_s)
    m["segmenter.predict.share_pct"] = 100.0 * _ratio(predict_s, wall)
    where = [context(spans, i) for i in predict]
    for part in ("round", "evaluate", "other"):
        m[f"segmenter.predict.calls.{part}"] = where.count(part)
    keys = [spans[i].counters["_key"] for i in predict]
    m["segmenter.predict.repeat_calls"] = len(keys) - len(set(keys))

    m["selection.score_sample.calls"] = calls("selection.score_sample")
    m["selection.score_sample.s"] = seconds("selection.score_sample")
    m["selection.select_queries.s"] = seconds("selection.select_queries")

    crf_s = seconds("crf.infer")
    decodes = calls("crf.infer")
    m["crf.infer.calls"] = decodes
    m["crf.infer.s"] = crf_s
    m["crf.infer.pixel_steps"] = counter("crf.infer", "pixel_steps")
    m["crf.infer.ms_per_decode"] = 1000.0 * _ratio(crf_s, decodes)
    m["crf.infer.share_pct"] = 100.0 * _ratio(crf_s, wall)

    m["weaklabeler.refine.calls"] = calls("weaklabeler.refine")
    m["weaklabeler.refine.s"] = seconds("weaklabeler.refine")
    m["weaklabeler.greedy_finetune.s"] = seconds("weaklabeler.greedy_finetune")
    m["weaklabeler.greedy_finetune.decodes"] = sum(
        1 for i in by_name["crf.infer"] if "weaklabeler.greedy_finetune" in ancestors(spans, i)
    )
    m["weaklabeler.build_ensemble.calls"] = calls("weaklabeler.build_ensemble")

    m["alloop.phase1_s"] = sum(r.phase1_ms for r in records) / 1000.0
    m["alloop.phase2_s"] = sum(r.phase2_ms for r in records) / 1000.0
    m["alloop.phase3_s"] = sum(r.phase3_ms for r in records) / 1000.0
    m["alloop.evaluate.s"] = seconds("alloop.evaluate")
    m["alloop.run_iteration.self_s"] = sum(own[i] for i in by_name["alloop.run_iteration"])
    m["alloop.outside_rounds_s"] = seconds("alloop.run_detailed") - seconds("alloop.run_iteration")
    return m

