"""The benchmark's workloads, as flat ``activeseg run`` config keys.

Each workload starts from ``harness.echo_config(harness.default_experiment(
seed=<--seed>))`` (32x32 blob rasters, noise 0.15, occlusion 0.9, the
default CRF center) and overrides the keys below.  The config goes through
``harness.parse_config_text`` and ``harness.run_experiment``, the path the
``activeseg run`` subcommand takes.

The sizes are far smaller than the ROADMAP reference experiment so that
one benchmark run repeats an experiment six or more times in fresh
processes and reports medians; on a shared machine the median of a few
long experiments does not repeat well.  ``ensemble.rounds`` is 0 or 1 and
``pseudo_heavy`` uses 5 confidence bins so that the amount of work does
not depend on the seed (see README.md).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: dict
    # span name -> whether the workload must call it (True) or never call
    # it (False); spans not listed must simply exist
    expect: dict

    @property
    def pseudo_labels(self) -> bool:
        return self.expect["weaklabeler.refine"]


_ALL_CALLED = {
    "harness.run_experiment": True,
    "harness.load_samples": True,
    "harness.make_split": True,
    "harness.write_run_log": True,
    "harness.write_timings": True,
    "harness.write_correlation_pairs": True,
    "harness.write_scores_csv": True,
    "harness.report_correlation": True,
    "alloop.run_detailed": True,
    "alloop.run_iteration": True,
    "alloop.evaluate": True,
    "segmenter.train": True,
    "segmenter.predict": True,
    "selection.score_sample": True,
    "selection.select_queries": True,
    "weaklabeler.refine": True,
    "weaklabeler.greedy_finetune": True,
    "weaklabeler.build_ensemble": True,
    "crf.infer": True,
}

_REFERENCE = {
    "split.pool": 60,
    "split.test": 30,
    "al.iterations": 2,
    "al.k_strong": 6,
    "al.k_weak": 4,
    "al.pseudo_start_iter": 2,
    "ensemble.rounds": 0,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "reference",
            _REFERENCE,
            _ALL_CALLED,
        ),
        Workload(
            "random_train",
            {**_REFERENCE, "al.strategy": "random"},
            {
                **_ALL_CALLED,
                "harness.write_scores_csv": False,
                "selection.select_queries": False,
                "weaklabeler.refine": False,
                "weaklabeler.greedy_finetune": False,
                "weaklabeler.build_ensemble": False,
                "crf.infer": False,
            },
        ),
        Workload(
            "pseudo_heavy",
            {
                "split.pool": 120,
                "split.test": 20,
                "al.iterations": 2,
                "al.k_strong": 6,
                "al.k_weak": 5,
                "al.pseudo_start_iter": 1,
                "al.bins": 5,
                "train.finetune_epochs": 2,
                "ensemble.rounds": 1,
            },
            _ALL_CALLED,
        ),
    )
}


def config_text(base_echo: str, workload: str, output_dir: str, settings: dict) -> str:
    """The workload's config file: ``base_echo`` (an echoed default
    experiment) with the workload's keys, then ``settings``, and the output
    directory replaced."""
    overrides = {**WORKLOADS[workload].overrides, **settings, "output.dir": output_dir}
    lines = []
    for line in base_echo.splitlines():
        key = line.partition("=")[0]
        if key in overrides:
            line = f"{key}={overrides.pop(key)}"
        lines.append(line)
    if overrides:
        raise KeyError(f"workload {workload!r} sets unknown config keys {sorted(overrides)}")
    return "\n".join(lines) + "\n"
