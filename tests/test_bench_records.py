"""The committed benchmark records, ``BENCH_<label>.json`` at the repository
root, against the benchmark they report on, ``BENCHMARK.json``: a record
may only name its workloads and its metrics, in its units."""

import glob
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
RECORDS = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))


def test_records_are_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=os.path.basename)
def test_record_names_only_the_benchmark(path):
    with open(path) as fh:
        record = json.load(fh)
    assert record["label"] == os.path.basename(path)[len("BENCH_") : -len(".json")]
    assert record["runs"]
    for run in record["runs"]:
        assert run["workload"] in WORKLOADS
        assert run["side"] in ("parent", "change")
        for name, metric in run["result"]["metrics"].items():
            assert name in UNITS, name
            assert metric["unit"] == UNITS[name], name
    for label, summary in record["summary"].items():
        for key in summary:
            assert key in UNITS or key in ("pairs", "all_correct"), f"{label}: {key}"
