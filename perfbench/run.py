"""activeseg benchmark: whole query-loop experiments, timed end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The load is a closed loop with one
client: one experiment at a time, each in a fresh process
(perfbench/experiment.py) with one BLAS/OpenMP thread, repeated on the same
seed while the next one is expected to end within S seconds, and at least
MIN_EXPERIMENTS times.  Every experiment's outcome is checked against
perfbench/reference/<workload>.json when the seed is recorded there,
against the run's first experiment, and against invariants that hold for
any seed.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics, medians over the run's experiments.  With --trace 1 the run
alternates untraced and traced experiments and reports the per-layer
metrics of the traced ones, plus the tracing overhead.  The environment and
the raw values of every experiment go to
.bench_out/<workload>-seed<N>-trace<0|1>.json, span traces to
.bench_out/traces/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Optional

import measures
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_ROOT = ".bench_out"
MIN_EXPERIMENTS = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class Abort(Exception):
    """The benchmark no longer matches the library; no result is printed."""


def declared_units(root: str) -> dict[str, dict[str, str]]:
    """Metric name -> unit, per kind ("end_to_end", "per_layer"), as
    BENCHMARK.json at the checkout's root declares them."""
    with open(os.path.join(root, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def experiment(root: str, workload: str, seed: int, timeout: float, traced: bool = False,
               settings=()) -> dict:
    """Run one experiment in a fresh process; its JSON, or {"error": ...}."""
    out = tempfile.mkdtemp(prefix="exp-", dir=os.path.join(root, OUT_ROOT))
    cmd = [sys.executable, os.path.join(HERE, "experiment.py"),
           "--workload", workload, "--seed", str(seed), "--out", out]
    if traced:
        cmd.append("--traced")
    for kv in settings:
        cmd += ["--set", kv]
    try:
        proc = subprocess.run(cmd, cwd=root, env={**os.environ, **THREAD_ENV},
                              capture_output=True, text=True, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        return {"error": "timeout: the experiment did not end within the run's time limit"}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if proc.returncode == 3:
        raise Abort(proc.stderr.strip())
    if proc.returncode != 0:
        return {"error": proc.stderr.strip()[-2000:] or f"exit code {proc.returncode}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def problems_of(exp: dict, workload: str, want: Optional[dict], first: Optional[dict]) -> list[str]:
    """Why an experiment counts as failed; empty when it passed."""
    if "error" in exp:
        return [exp["error"]]
    problems = list(exp["problems"])
    if want is not None:
        problems += measures.outcome_problems(exp["outcome"], want)
    if first is not None and measures.outcome_problems(exp["outcome"], first["outcome"]):
        problems.append("outcome differs from the run's first experiment on the same seed")
    if exp["pseudo_label_dsc"] is None and workloads.WORKLOADS[workload].pseudo_labels:
        problems.append("the workload made no pseudo labels")
    return problems


def load_reference(workload: str) -> dict:
    with open(os.path.join(HERE, "reference", f"{workload}.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def _git_commit(root: str) -> str:
    # the ceiling keeps git from reporting a repository that encloses the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(root)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def _environment(root: str, child_env: dict) -> dict:
    return {
        **child_env,
        "thread_env_of_experiments": THREAD_ENV,
        "thread_env_of_caller": {k: os.environ.get(k) for k in THREAD_ENV},
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_commit": _git_commit(root),
    }


# Every end-to-end metric must have a value on every workload.  A workload
# without pseudo labels reports this stand-in, which is not a measurement.
NO_PSEUDO_LABELS_DSC = 1.0


def _with_units(values: dict[str, float], units: dict[str, str]) -> dict:
    if set(values) != set(units):
        raise Abort(f"metrics {sorted(set(values) ^ set(units))} are not both measured and "
                    "declared in BENCHMARK.json")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def end_to_end(exps: list[dict], units: dict[str, str]) -> dict:
    values = {name: statistics.median(e[name] for e in exps) for name in units if name != "pseudo_label_dsc"}
    pseudo = [e["pseudo_label_dsc"] for e in exps]
    values["pseudo_label_dsc"] = NO_PSEUDO_LABELS_DSC if None in pseudo else statistics.median(pseudo)
    return _with_units(values, units)


def per_layer(traced: list[dict], plain: list[dict], units: dict[str, str]) -> dict:
    values = {name: statistics.median(e["layers"][name] for e in traced) for name in traced[0]["layers"]}
    traced_wall = statistics.median(e["wall_s"] for e in traced)
    plain_wall = statistics.median(e["wall_s"] for e in plain)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_pct"] = 100.0 * (traced_wall / plain_wall - 1.0)
    return _with_units(values, units)


def bench(root: str, workload: str, seed: int, seconds: float, trace: bool, settings=()) -> dict:
    """Run experiments until the time is used; metrics, counts and record."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    # a shrunk workload (settings) selects other samples than the reference
    want = None if settings else load_reference(workload)["seeds"].get(str(seed))
    units = declared_units(root)
    os.makedirs(os.path.join(root, OUT_ROOT), exist_ok=True)
    compileall.compile_dir(os.path.join(root, "src", "activeseg"), quiet=1)

    runs: list[tuple[bool, dict, list[str]]] = []  # (traced, experiment, problems)
    durations: list[float] = []
    first = None
    while True:
        n_plain = sum(1 for t, _, _ in runs if not t)
        n_traced = len(runs) - n_plain
        enough = (n_plain and n_traced) if trace else n_plain >= MIN_EXPERIMENTS
        expected = statistics.median(durations) if durations else 0.0
        if enough and time.monotonic() - start + expected > seconds:
            break
        if durations and time.monotonic() + expected > deadline:
            break
        is_traced = trace and n_traced < n_plain
        t0 = time.monotonic()
        exp = experiment(root, workload, seed, deadline - t0, traced=is_traced, settings=settings)
        durations.append(time.monotonic() - t0)
        problems = problems_of(exp, workload, want, first)
        if first is None and not problems:
            first = exp
        runs.append((is_traced, exp, problems))
        if "error" in exp and exp["error"].startswith("timeout"):
            break

    good_plain = [e for t, e, p in runs if not t and not p]
    good_traced = [e for t, e, p in runs if t and not p]
    metrics = {}
    if trace and good_traced and good_plain:
        metrics = per_layer(good_traced, good_plain, units["per_layer"])
    elif not trace and good_plain:
        metrics = end_to_end(good_plain, units["end_to_end"])
    env = next((e["env"] for _, e, _ in runs if "env" in e), {})
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "config_overrides": {**workloads.WORKLOADS[workload].overrides,
                             **dict(kv.split("=", 1) for kv in settings)},
        "reference_recorded": want is not None,
        "stand_ins": {} if workloads.WORKLOADS[workload].pseudo_labels else {
            "pseudo_label_dsc": f"{NO_PSEUDO_LABELS_DSC}: the workload makes no pseudo labels"
        },
        "csv_identical_to_reference": [
            measures.csv_identical(e["outcome"], want) for _, e, _ in runs if want and "outcome" in e
        ],
        "environment": _environment(root, env),
        "experiments": [
            {"traced": t, "problems": p, **{k: v for k, v in e.items() if k != "env"}}
            for t, e, p in runs
        ],
    }
    return {
        "correct": bool(runs) and not any(p for _, _, p in runs),
        "attempted": len(runs),
        "failed": sum(1 for _, _, p in runs if p),
        "metrics": metrics,
        "record": record,
    }


def _summary_lines(res: dict, record_path: str) -> list[str]:
    rec = res["record"]
    lines = []
    for i, e in enumerate(rec["experiments"], 1):
        kind = "traced" if e["traced"] else "untraced"
        timing = f"wall_s={e['wall_s']:.3f} setup_s={e['setup_s']:.3f}" if "wall_s" in e else "no result"
        verdict = "ok" if not e["problems"] else "FAILED: " + "; ".join(e["problems"])
        spans_at = f" spans: {e['trace_file']}" if "trace_file" in e else ""
        lines.append(f"experiment {i} ({kind}): {timing} {verdict}{spans_at}")
    env = rec["environment"]
    lines.append(f"environment: numpy {env.get('numpy')} scipy {env.get('scipy')} "
                 f"python {env.get('python')} nproc {env['nproc']} "
                 f"BLAS threads per experiment {THREAD_ENV['OPENBLAS_NUM_THREADS']} "
                 f"commit {env['git_commit']}")
    same = rec["csv_identical_to_reference"]
    lines.append(f"CSVs byte-identical to the reference: {sum(same)}/{len(same)}" if rec["reference_recorded"]
                 else f"no outcome reference recorded for seed {rec['seed']}: checked invariants only")
    for name, what in rec["stand_ins"].items():
        lines.append(f"{name} is a stand-in, not a measurement: {what}")
    lines.append(f"full record: {record_path}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "activeseg", "__init__.py")):
        print(f"perfbench: no activeseg source under {os.path.join(root, 'src')}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    try:
        res = bench(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except Abort as exc:
        print(f"perfbench: the benchmark no longer matches the library:\n{exc}", file=sys.stderr)
        return 1
    record_path = os.path.join(OUT_ROOT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(os.path.join(root, record_path), "w", encoding="utf-8") as fh:
        json.dump(res["record"], fh, indent=1)
    for line in _summary_lines(res, record_path):
        print(line)
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
