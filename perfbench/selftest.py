"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q perfbench/selftest.py

Run from anywhere; they measure the checkout this file sits in, on a shrunk
workload, in about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import measures  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from activeseg import core, harness, segmenter, weaklabeler  # noqa: E402

# a few seconds per experiment, yet every layer of the reference workload runs
TINY = (
    "split.initial=12", "split.pool=40", "split.test=8",
    "al.iterations=2", "al.k_strong=4", "al.k_weak=4", "al.pseudo_start_iter=1", "al.bins=2",
    "train.base_epochs=3", "train.finetune_epochs=1",
)


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _tiny_config(out_dir: str):
    base = harness.echo_config(harness.default_experiment(seed=0))
    settings = dict(kv.split("=", 1) for kv in TINY)
    return harness.parse_config_text(workloads.config_text(base, "reference", out_dir, settings))


def _boundary_objects() -> dict:
    return {(m.__name__, b.attr): getattr(m, b.attr) for m, b in spans.resolve(spans.BOUNDARIES)}


@pytest.fixture(scope="module")
def traced_tiny(tmp_path_factory):
    before = _boundary_objects()
    tracer = spans.Tracer("selftest")
    with spans.installed(tracer, spans.BOUNDARIES):
        result = harness.run_experiment(_tiny_config(str(tmp_path_factory.mktemp("tiny"))))["method"]
    return before, tracer, result


@pytest.mark.parametrize("trace", [False, True])
def test_shrunk_workload_emits_every_metric_with_its_unit(trace):
    res = run.bench(ROOT, "reference", seed=0, seconds=0, trace=trace, settings=TINY)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
    declared = _benchmark_json()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in res["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())


def test_span_self_times_add_up_to_their_parents(traced_tiny):
    _, tracer, _ = traced_tiny
    recorded = tracer.spans
    own = spans.self_times(recorded)
    children: dict[int, list[int]] = {}
    for i, s in enumerate(recorded):
        children.setdefault(s.parent, []).append(i)
    for i, s in enumerate(recorded):
        kids = children.get(i, [])
        assert all(s.start <= recorded[k].start <= recorded[k].end <= s.end for k in kids)
        assert own[i] == pytest.approx(s.duration - sum(recorded[k].duration for k in kids), abs=1e-9)
        assert own[i] >= 0.0
    (root,) = children[-1]
    assert recorded[root].name == "harness.run_experiment"
    assert sum(own) == pytest.approx(recorded[root].duration, abs=1e-9)


def test_every_layer_of_the_reference_workload_is_called(traced_tiny):
    _, tracer, result = traced_tiny
    measures.check_expectations(tracer.spans, workloads.WORKLOADS["reference"].expect)
    m = measures.layer_metrics(tracer.spans, result.records)
    assert m["segmenter.train.sample_steps"] == 3 * 12 + sum(
        1 * r.labeled_total for r in result.records
    )
    assert m["crf.infer.calls"] == m["weaklabeler.greedy_finetune.decodes"] + 5 * m["weaklabeler.refine.calls"]
    assert sum(m[f"segmenter.predict.calls.{p}"] for p in ("round", "evaluate", "other")) == m[
        "segmenter.predict.calls"
    ]


def test_library_is_unpatched_afterwards(traced_tiny):
    before, _, _ = traced_tiny
    assert _boundary_objects() == before
    with pytest.raises(RuntimeError, match="boom"):
        with spans.installed(spans.Tracer("error"), spans.BOUNDARIES):
            assert segmenter.predict is not before[("activeseg.segmenter", "predict")]
            raise RuntimeError("boom")
    assert _boundary_objects() == before


def test_a_renamed_boundary_fails_loudly(monkeypatch):
    before = _boundary_objects()
    monkeypatch.delattr(weaklabeler, "infer")
    with pytest.raises(spans.BenchmarkError, match="activeseg.weaklabeler.infer"):
        with spans.installed(spans.Tracer("renamed"), spans.BOUNDARIES):
            pass
    monkeypatch.undo()
    assert _boundary_objects() == before


def test_a_span_with_zero_calls_fails_loudly(traced_tiny):
    _, tracer, _ = traced_tiny
    without_crf = [s for s in tracer.spans if s.name != "crf.infer"]
    with pytest.raises(spans.BenchmarkError, match="crf.infer"):
        measures.check_expectations(without_crf, workloads.WORKLOADS["pseudo_heavy"].expect)
    with pytest.raises(spans.BenchmarkError, match="must not call"):
        measures.check_expectations(tracer.spans, workloads.WORKLOADS["random_train"].expect)


def _sample(i: int, gt) -> core.Sample:
    return core.Sample(id=f"s{i}", image=core.ImageGrid(gt * 0.5 + 0.25), ground_truth=core.BinaryMask(gt))


def test_pseudo_label_dsc_is_computed_from_final_pool_only():
    import numpy as np

    gt = np.zeros((8, 8), dtype=np.uint8)
    gt[2:6, 2:6] = 1
    half = gt.copy()
    half[2:4, 2:6] = 0  # Dice 2*8/(16+8) = 2/3
    wrong = 1 - gt  # Dice 0
    entries = (
        core.LabeledEntry(_sample(0, gt), core.BinaryMask(wrong), "initial"),
        core.LabeledEntry(_sample(1, gt), core.BinaryMask(wrong), "oracle"),
        core.LabeledEntry(_sample(2, gt), core.BinaryMask(half), "pseudo"),
        core.LabeledEntry(_sample(3, gt), core.BinaryMask(gt), "pseudo"),
    )
    pool = core.PoolState(labeled=entries, unlabeled=(_sample(4, gt),))
    assert measures.pseudo_label_dsc(pool, core.dice) == pytest.approx((2 / 3 + 1.0) / 2)
    assert measures.pseudo_label_dsc(core.PoolState(labeled=entries[:2], unlabeled=()), core.dice) is None


def test_outcome_check_flags_other_ids_and_dice():
    want = {"base_test_dsc": 0.5, "rounds": [{"strong": ["a"], "weak": ["b"], "test_dsc": 0.9}],
            "csv_sha256": {"run_log.csv": "x"}}
    same = json.loads(json.dumps(want))
    assert measures.outcome_problems(same, want) == []
    same["csv_sha256"]["run_log.csv"] = "y"
    assert measures.outcome_problems(same, want) == [] and not measures.csv_identical(same, want)
    other = json.loads(json.dumps(want))
    other["rounds"][0]["weak"] = ["c"]
    other["rounds"][0]["test_dsc"] = 0.9 + 10 * measures.DSC_TOLERANCE
    assert len(measures.outcome_problems(other, want)) == 2


def test_reports_failure_without_a_result_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reference", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
