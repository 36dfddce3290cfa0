"""Record the outcome reference that every benchmark run is checked against.

    python3 perfbench/record_reference.py --workload NAME --seeds 0-39

Run from the root of a checkout of the commit whose behaviour is the
reference.  Runs one untraced experiment per seed and writes the selected
ids and test Dice per round, plus the CSV digests, to
perfbench/reference/<workload>.json (existing seeds are kept unless
re-recorded).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run
import workloads


def _seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seeds", required=True, type=_seed_range, help="inclusive range, e.g. 0-39")
    args = p.parse_args(argv)

    root = os.getcwd()
    path = os.path.join(run.HERE, "reference", f"{args.workload}.json")
    reference = {"seeds": {}}
    if os.path.exists(path):
        reference = run.load_reference(args.workload)
    os.makedirs(os.path.join(root, run.OUT_ROOT), exist_ok=True)
    for seed in args.seeds:
        exp = run.experiment(root, args.workload, seed, timeout=600)
        problems = run.problems_of(exp, args.workload, None, None)
        if problems:
            print(f"seed {seed}: not recorded: {'; '.join(problems)}", file=sys.stderr)
            return 1
        reference["seeds"][str(seed)] = exp["outcome"]
        print(f"seed {seed}: final test DSC {exp['final_test_dsc']:.4f} wall {exp['wall_s']:.1f} s")
    reference["seeds"] = dict(sorted(reference["seeds"].items(), key=lambda kv: int(kv[0])))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
