"""One benchmark experiment in a fresh process.

    python3 perfbench/experiment.py --workload W --seed N --out DIR [--traced]
        [--set KEY=VALUE ...]

Run from the root of a checkout: the ``activeseg`` under ``src/`` is the
code measured.  Prints one JSON object with the experiment's timings, its
outcome, the library versions and, when traced, its per-layer metrics; a
traced experiment also writes its spans to
.bench_out/traces/<workload>-seed<N>-<pid>.jsonl.  Exits with 3 when the
benchmark no longer matches the library (see spans.BenchmarkError).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

import measures
import spans
import workloads
from run import OUT_ROOT

SRC = os.path.join(os.getcwd(), "src")


def _environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")
    except TypeError:  # numpy < 2 has no dict mode
        blas = "unavailable"
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "numpy_config": blas,
    }


def run(args) -> dict:
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import activeseg
    from activeseg import harness

    if not os.path.abspath(activeseg.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported activeseg from {activeseg.__file__}, not from {SRC}")
    base = harness.echo_config(harness.default_experiment(seed=args.seed))
    settings = dict(kv.split("=", 1) for kv in args.set)
    cfg = harness.parse_config_text(workloads.config_text(base, args.workload, args.out, settings))
    import_and_config_s = time.perf_counter() - t0

    run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}"
    tracer = spans.Tracer(run_id)
    boundaries = spans.BOUNDARIES if args.traced else spans.UNTRACED
    with spans.installed(tracer, boundaries):
        t0 = time.perf_counter()
        result = harness.run_experiment(cfg)["method"]
        wall_s = time.perf_counter() - t0

    def durations(name: str) -> list[float]:
        return [s.duration for s in tracer.spans if s.name == name]

    (run_detailed,) = [s for s in tracer.spans if s.name == "alloop.run_detailed"]
    # the corpus and split are made inside run_experiment, once
    corpus_and_split_s = sum(durations("harness.load_samples") + durations("harness.make_split"))
    out = {
        "setup_s": import_and_config_s + corpus_and_split_s,
        "wall_s": wall_s,
        "round_s_p50": statistics.median(durations("alloop.run_iteration")),
        "final_test_dsc": result.records[-1].test_dsc,
        "pseudo_label_dsc": measures.pseudo_label_dsc(result.final_pool, activeseg.dice),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outcome": measures.outcome(result, args.out),
    }
    out["problems"] = measures.invariant_problems(out["outcome"], cfg.al, run_detailed.counters["_pool_ids"])
    if args.traced:
        measures.check_expectations(tracer.spans, workloads.WORKLOADS[args.workload].expect)
        out["layers"] = measures.layer_metrics(tracer.spans, result.records)
        out["trace_file"] = os.path.join(OUT_ROOT, "traces", f"{run_id}.jsonl")
        os.makedirs(os.path.dirname(out["trace_file"]), exist_ok=True)
        tracer.write_jsonl(out["trace_file"])
    out["env"] = _environment()
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="directory for the experiment's reports")
    p.add_argument("--traced", action="store_true")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="config key applied after the workload's (shrinks it for the self-tests)")
    args = p.parse_args(argv)
    try:
        out = run(args)
    except Exception as exc:  # reported by the parent, which counts the run as failed
        traceback.print_exc()
        return 3 if isinstance(exc, spans.BenchmarkError) else 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
