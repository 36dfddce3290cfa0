import dataclasses
import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

import activeseg
from activeseg import alloop, cli, harness, segmenter
from activeseg.core import BinaryMask, ImageGrid, Sample, binarize, load_dataset, save_dataset
from activeseg.crf import CrfParams
from activeseg.harness import (
    CONFIG_KEYS,
    SyntheticSpec,
    default_experiment,
    echo_config,
    generate_synthetic,
    load_samples,
    make_split,
    parse_config_text,
    report_correlation,
    run_experiment,
    with_keys,
)
from activeseg.segmenter import PARAM_SHAPES, TrainConfig, load_params
from activeseg.weaklabeler import load_ensemble

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
README = os.path.join(ROOT, "README.md")
# a 32x32 blob corpus without occlusion, which the generator tests vary
PLAIN = SyntheticSpec(n_samples=1, image_size=32, shape="blob", noise_level=0.15, occlusion_prob=0.0, seed=0)
PERTURB = default_experiment().al.perturb


class TestGenerator:
    def test_deterministic(self):
        spec = replace(PLAIN, n_samples=6, seed=4)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        for s, t in zip(a, b):
            assert s.id == t.id
            np.testing.assert_array_equal(s.image.values, t.image.values)
            np.testing.assert_array_equal(s.ground_truth.values, t.ground_truth.values)

    def test_default_corpus_bytes_are_pinned(self):
        # the SHA-256 of ids, images and masks of the default 340-sample corpus
        h = hashlib.sha256()
        for s in load_samples(default_experiment()):
            h.update(s.id.encode("ascii"))
            h.update(s.image.values.tobytes())
            h.update(s.ground_truth.values.tobytes())
        assert h.hexdigest() == "a9992fd9843c25f39e495bff61e8996ca05a0c0c3dce312ba3c56049f356ab5b"

    def test_noiseless_rendering_is_exact(self):
        spec = replace(PLAIN, n_samples=5, noise_level=0.0, occlusion_prob=0.0, seed=2)
        for s in generate_synthetic(spec):
            expected = np.where(s.ground_truth.values == 1, 0.8, 0.2)
            np.testing.assert_array_equal(s.image.values, expected)

    def test_masks_recoverable_by_threshold(self):
        # noiseless images threshold back to the exact mask, occluded or not
        spec = replace(PLAIN, n_samples=8, noise_level=0.0, occlusion_prob=1.0, seed=3)
        for s in generate_synthetic(spec):
            from activeseg.core import ProbMap

            recovered = binarize(ProbMap(s.image.values))
            np.testing.assert_array_equal(recovered.values, s.ground_truth.values)

    def test_foreground_fraction_bounds(self):
        for shape in ("ellipse", "blob", "rectangle"):
            spec = replace(PLAIN, n_samples=10, shape=shape, seed=1)
            for s in generate_synthetic(spec):
                frac = s.ground_truth.values.mean()
                assert 0.05 <= frac <= 0.6

    def test_rsna_shaped_split_arithmetic(self):
        spec = replace(PLAIN, n_samples=340, seed=0)
        cfg = replace(default_experiment(), dataset=spec, n_initial=40, n_pool=200, n_test=100)
        split = make_split(generate_synthetic(spec), cfg)
        assert (len(split.initial), len(split.pool), len(split.test)) == (40, 200, 100)

    def test_validation(self):
        with pytest.raises(ValueError):
            replace(PLAIN, n_samples=0)
        with pytest.raises(ValueError):
            replace(PLAIN, n_samples=1, image_size=10)
        with pytest.raises(ValueError):
            replace(PLAIN, n_samples=1, shape="triangle")


def write_dataset(root, sizes, seed=0):
    """A directory dataset of random square images and masks, one per size;
    a size (n, m) gives an n-sided image an m-sided mask, (n, None) no mask."""
    rng = np.random.default_rng(seed)
    sides = [size if isinstance(size, tuple) else (size, size) for size in sizes]
    save_dataset(root, [
        Sample(f"s{i:03d}", ImageGrid(rng.uniform(0, 1, (n, n))),
               None if m is None else BinaryMask((rng.uniform(0, 1, (m, m)) > 0.5).astype(int)))
        for i, (n, m) in enumerate(sides)
    ])
    return root


def tiny_experiment(tmp_path, **al_overrides) -> harness.ExperimentConfig:
    """A 24-sample 16x16 experiment, on a schedule that trains far enough
    for the model to segment: the test Dice of its base model is above 0."""
    train = TrainConfig(epochs=3, learning_rate=0.5, batch_size=2, loss_kind="cross_entropy", seed=0)
    cfg = default_experiment()
    al = replace(
        cfg.al,
        iterations=2,
        k_strong=3,
        k_weak=2,
        bins=5,
        pseudo_start_iter=1,
        train=train,
        base_epochs=32,
        crf_center=CrfParams(1.5, 0.3, 2.0, 0.15, 0.4, 1),
        ensemble_size=3,
        ensemble_rounds=1,
        seed=0,
    )
    al = replace(al, **al_overrides)
    cfg = replace(
        cfg,
        dataset=SyntheticSpec(n_samples=24, image_size=16, shape="ellipse",
                              noise_level=0.1, occlusion_prob=0.3, seed=0),
        n_initial=4,
        n_pool=10,
        n_test=10,
        al=al,
        output_dir=str(tmp_path / "out"),
    )
    split = make_split(load_samples(cfg), cfg)
    labeled = [(s.image, s.ground_truth) for s in split.initial]
    base = segmenter.train(segmenter.init_params(al.seed), labeled, replace(train, epochs=al.base_epochs), al.loss_weights)
    assert alloop.evaluate(base, split.test)[0] > 0.0
    return cfg


class TestConfigRoundtrip:
    def test_echo_parse_identity(self, tmp_path):
        cfg = tiny_experiment(tmp_path)
        assert parse_config_text(echo_config(cfg)) == cfg

    def test_default_roundtrip(self):
        from activeseg.harness import default_experiment

        cfg = default_experiment("/tmp/x", seed=3)
        assert parse_config_text(echo_config(cfg)) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            parse_config_text("al.iterationz=3\n")

    def test_comments_and_blanks_ignored(self):
        text = "# comment\n\nal.iterations=4\n"
        cfg = parse_config_text(text)
        assert cfg.al.iterations == 4

    @pytest.mark.parametrize("value", ["False", "false"])
    def test_booleans_in_any_case(self, value):
        assert parse_config_text(f"ablation.ensemble_crf={value}\n").al.ensemble_crf is False

    def test_default_echo_is_pinned(self):
        assert echo_config(default_experiment("out", seed=0)) == DEFAULT_ECHO

    def test_with_keys_fans_seed_out_and_skips_none(self, tmp_path):
        cfg = tiny_experiment(tmp_path)
        new = with_keys(cfg, {"seed": 9, "output.dir": None})
        assert new.al.seed == new.al.train.seed == 9
        assert (new.dataset, new.output_dir) == (cfg.dataset, cfg.output_dir)
        assert with_keys(new, {"seed": 0}) == cfg

    def test_error_names_only_the_key_of_the_field_it_names(self):
        with pytest.raises(ValueError) as info:
            parse_config_text("split.initial=0\noutput.dir=x\n")
        assert str(info.value) == "n_initial must be positive (config key split.initial)"

    def test_error_naming_no_field_names_every_key_of_its_section(self):
        with pytest.raises(ValueError) as info:
            parse_config_text("train.batch_size=0\ntrain.loss=soft_dice\nsplit.initial=3\n")
        assert str(info.value) == (
            "learning rate and batch size must be positive (config keys train.batch_size, train.loss)"
        )

    def test_with_keys_error_names_only_the_keys_it_sets(self, tmp_path):
        with pytest.raises(ValueError, match=r"odd .* \(config key ensemble\.members\)$"):
            with_keys(tiny_experiment(tmp_path), {"ensemble.members": 4, "seed": None})

    def test_no_field_a_key_sets_has_a_default(self):
        # CONFIG_KEYS is the one place a default is written
        defaulted = set()
        for key in CONFIG_KEYS:
            for path in key.fields:
                parts = path.split(".")
                for i, name in enumerate(parts):
                    section = harness._SECTIONS[".".join(parts[:i])]
                    field = {f.name: f for f in dataclasses.fields(section)}[name]
                    if field.default is not dataclasses.MISSING or field.default_factory is not dataclasses.MISSING:
                        defaulted.add(f"{section.__name__}.{name}")
        assert sorted(defaulted) == []

    def test_readme_table_matches_the_keys(self):
        with open(README, encoding="utf-8") as fh:
            section = fh.read().split("## Config file format")[1].split("\n## ")[0]
        rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| `")]
        documented = [(key.strip().strip("`"), default.strip()) for key, default in rows]

        def shown(default):
            if default is None:
                return "unset"
            if isinstance(default, bool):
                return str(default).lower()
            return f"`{default}`" if isinstance(default, str) else str(default)

        assert documented == [(key.name, shown(key.default)) for key in CONFIG_KEYS]

    def test_readme_reports_are_the_files_a_run_writes(self, tmp_path):
        with open(README, encoding="utf-8") as fh:
            section = fh.read().split("## Reports")[1].split("\n## ")[0]
        documented = set(re.findall(r"`([a-z_]+\.[a-z]+)`", section))
        cfg = replace(tiny_experiment(tmp_path), with_baseline=True)
        run_experiment(cfg)
        written = set(os.listdir(os.path.join(cfg.output_dir, "random")))
        written |= set(os.listdir(cfg.output_dir)) - {"random"}
        assert documented == written


DEFAULT_ECHO = """\
dataset.kind=synthetic
dataset.n_samples=340
dataset.image_size=32
dataset.shape=blob
dataset.noise_level=0.15
dataset.occlusion_prob=0.9
dataset.seed=0
split.initial=40
split.pool=200
split.test=100
al.iterations=8
al.k_strong=20
al.k_weak=10
al.bins=10
al.pseudo_start_iter=3
al.strategy=uncertainty
train.base_epochs=12
train.finetune_epochs=6
train.learning_rate=0.5
train.batch_size=2
train.loss=cross_entropy
loss.alpha_l=0.1
loss.alpha_m=0.3
loss.alpha_f=0.6
crf.gaussian.sdims=1.5
crf.gaussian.compat=0.4
crf.bilateral.sdims=2.5
crf.bilateral.schan=0.15
crf.bilateral.compat=0.6
crf.steps=2
ensemble.members=5
ensemble.relative_sigma=0.05
ensemble.floor=0.001
ensemble.perturb_steps=False
ensemble.rounds=3
ablation.confidence_filter=True
ablation.ensemble_crf=True
baseline.random=False
seed=0
output.dir=out
"""


class TestRunExperiment:
    def test_writes_reports(self, tmp_path):
        cfg = tiny_experiment(tmp_path)
        results = run_experiment(cfg)
        out = cfg.output_dir
        for name in ("run_log.csv", "scores.csv", "correlation.csv",
                      "correlation_ranks.csv", "correlation_summary.csv",
                      "config_echo.txt", "timings.txt"):
            assert os.path.exists(os.path.join(out, name)), name
        with open(os.path.join(out, "run_log.csv")) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "t,n_strong,n_weak,pool_remaining,labeled_total,test_dsc"
        assert len(lines) == 1 + len(results["method"].records)

    def test_baseline_arm(self, tmp_path):
        cfg = replace(tiny_experiment(tmp_path), with_baseline=True)
        results = run_experiment(cfg)
        assert set(results) == {"method", "random"}
        assert os.path.exists(os.path.join(cfg.output_dir, "random", "run_log.csv"))
        # identical split: the union of all queried ids never overlaps test ids
        assert all(r.weak_ids == () for r in results["random"].records)
        # random queries score no sample
        assert all(r.scores == () for r in results["random"].records)
        assert not os.path.exists(os.path.join(cfg.output_dir, "random", "scores.csv"))

    def test_scores_csv_marks_are_the_record_ids(self, tmp_path):
        cfg = tiny_experiment(tmp_path)
        records = run_experiment(cfg)["method"].records
        with open(os.path.join(cfg.output_dir, "scores.csv")) as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        assert any(r.weak_ids for r in records), "test must exercise the weak-labeling path"
        for r in records:
            marks = {row[1]: row[-1] for row in rows if row[0] == str(r.iteration)}
            assert len(marks) == r.pool_remaining + len(r.strong_ids) + len(r.weak_ids)
            for kind, ids in (("strong", r.strong_ids), ("weak", r.weak_ids)):
                assert sorted(sid for sid, mark in marks.items() if mark == kind) == sorted(ids)

    def test_csvs_are_deterministic(self, tmp_path):
        cfg_a = tiny_experiment(tmp_path / "a")
        cfg_b = tiny_experiment(tmp_path / "b")
        run_experiment(cfg_a)
        run_experiment(cfg_b)
        for name in ("run_log.csv", "scores.csv", "correlation.csv",
                      "correlation_ranks.csv", "correlation_summary.csv"):
            with open(os.path.join(cfg_a.output_dir, name), "rb") as fh:
                a = fh.read()
            with open(os.path.join(cfg_b.output_dir, name), "rb") as fh:
                b = fh.read()
            assert a == b, name

    def test_ablation_flags_off_means_oracle_only(self, tmp_path):
        cfg = tiny_experiment(tmp_path, k_weak=0)
        results = run_experiment(cfg)
        assert all(r.weak_ids == () for r in results["method"].records)

    def test_undefined_correlation_writes_the_summary_alone(self, tmp_path):
        # one epoch per model state at learning rate 0.3 leaves every test
        # Dice at 0: the ranks are all tied
        cfg = tiny_experiment(tmp_path)
        train = replace(cfg.al.train, epochs=1, learning_rate=0.3)
        cfg = replace(cfg, al=replace(cfg.al, train=train, base_epochs=1))
        run_experiment(cfg)
        with open(os.path.join(cfg.output_dir, "correlation_summary.csv")) as fh:
            assert fh.read() == "n_pairs,coefficient\n30,nan\n"
        assert not os.path.exists(os.path.join(cfg.output_dir, "correlation_ranks.csv"))

    def test_saves_the_model_and_ensemble(self, tmp_path):
        cfg = replace(tiny_experiment(tmp_path), with_baseline=True)
        results = run_experiment(cfg)
        for name, out in (("method", cfg.output_dir), ("random", os.path.join(cfg.output_dir, "random"))):
            params = load_params(os.path.join(out, "model.ckpt"))
            for layer in PARAM_SHAPES:
                assert params[layer].tobytes() == results[name].params[layer].tobytes(), (name, layer)
        assert load_ensemble(os.path.join(cfg.output_dir, "ensemble.txt")) == results["method"].ensemble
        assert results["method"].ensemble.spec == cfg.al.perturb
        assert not os.path.exists(os.path.join(cfg.output_dir, "random", "ensemble.txt"))

    def test_no_ensemble_file_without_pseudo_labels(self, tmp_path):
        cfg = tiny_experiment(tmp_path, k_weak=0)
        assert run_experiment(cfg)["method"].ensemble is None
        assert os.path.exists(os.path.join(cfg.output_dir, "model.ckpt"))
        assert not os.path.exists(os.path.join(cfg.output_dir, "ensemble.txt"))


class TestReportCorrelation:
    def test_comonotone(self, tmp_path):
        pairs = [(i / 10, i / 5) for i in range(12)]
        coeff = report_correlation(pairs, str(tmp_path))
        assert coeff == pytest.approx(1.0)
        with open(tmp_path / "correlation_ranks.csv") as fh:
            assert fh.readline().strip() == "mean_dsc,r_dsc,mean_dsc_rank,r_dsc_rank"

    def test_shuffled_pairs_uncorrelated(self, tmp_path):
        rng = np.random.default_rng(0)
        coeffs = []
        for _ in range(30):
            a = rng.uniform(size=50)
            b = rng.permutation(a)
            coeffs.append(report_correlation(list(zip(a, b)), str(tmp_path)))
        assert abs(np.mean(coeffs)) < 0.3

    def test_too_few_pairs(self, tmp_path):
        with pytest.raises(ValueError):
            report_correlation([(0.1, 0.2)] * 9, str(tmp_path))

    @pytest.mark.parametrize("pairs, text", [
        ([(0.5, i / 10) for i in range(10)], "rank correlation undefined: one of the lists is entirely tied"),
        ([(i / 10, i / 20) for i in range(9)], "need at least 10 pairs for a correlation report, got 9"),
    ], ids=["tied", "short"])
    def test_failed_report_writes_nothing(self, tmp_path, pairs, text):
        with pytest.raises(ValueError, match=text):
            report_correlation(pairs, str(tmp_path))
        assert list(tmp_path.iterdir()) == []


class TestCli:
    def test_generate_and_score_roundtrip(self, tmp_path):
        data_dir = str(tmp_path / "data")
        rc = cli.main(["generate", "--out", data_dir, "--n", "6", "--size", "16",
                       "--shape", "ellipse", "--noise", "0.05", "--occlusion", "0.0",
                       "--seed", "3"])
        assert rc == 0
        samples = load_dataset(data_dir)
        assert len(samples) == 6
        # score them with a fresh checkpoint
        from activeseg.segmenter import init_params, save_params

        ckpt = str(tmp_path / "ckpt.bin")
        save_params(ckpt, init_params(0))
        out_csv = str(tmp_path / "scores.csv")
        rc = cli.main(["score", "--checkpoint", ckpt, "--data", data_dir, "--out", out_csv])
        assert rc == 0
        with open(out_csv) as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 7

    def test_run_from_config(self, tmp_path):
        cfg = tiny_experiment(tmp_path)
        cfg_path = str(tmp_path / "exp.cfg")
        with open(cfg_path, "w") as fh:
            fh.write(echo_config(cfg))
        rc = cli.main(["run", "--config", cfg_path])
        assert rc == 0
        assert os.path.exists(os.path.join(cfg.output_dir, "run_log.csv"))

    def test_refine_command(self, tmp_path):
        from activeseg.core import ImageGrid, ProbMap, image_to_pgm, mask_from_pgm, write_pgm
        from activeseg.weaklabeler import build_ensemble, save_ensemble

        rng = np.random.default_rng(1)
        img_path = str(tmp_path / "img.pgm")
        prob_path = str(tmp_path / "prob.pgm")
        image_to_pgm(img_path, ImageGrid(rng.uniform(0, 1, (16, 16))))
        write_pgm(prob_path, (rng.uniform(0, 1, (16, 16)) * 255).astype(np.uint8))
        ens_path = str(tmp_path / "ens.txt")
        save_ensemble(ens_path, build_ensemble(CrfParams(1.5, 0.3, 2.0, 0.15, 0.4, 1), 3, PERTURB, 0))
        out_path = str(tmp_path / "mask.pgm")
        rc = cli.main(["refine", "--image", img_path, "--prob", prob_path,
                       "--ensemble", ens_path, "--out", out_path])
        assert rc == 0
        mask_from_pgm(out_path)

    def test_report_command(self, tmp_path):
        pairs_path = str(tmp_path / "pairs.csv")
        with open(pairs_path, "w") as fh:
            fh.write("iteration,sample_id,mean_dsc,r_dsc\n")
            for i in range(15):
                fh.write(f"0,s{i},{i/20},{i/30}\n")
        out_dir = str(tmp_path / "rep")
        rc = cli.main(["report", "--pairs", pairs_path, "--out", out_dir])
        assert rc == 0
        assert os.path.exists(os.path.join(out_dir, "correlation_summary.csv"))

    def test_report_reproduces_the_run_report(self, tmp_path):
        cfg = tiny_experiment(tmp_path)
        run_experiment(cfg)
        out_dir = str(tmp_path / "rep")
        assert cli.main(["report", "--pairs", os.path.join(cfg.output_dir, "correlation.csv"), "--out", out_dir]) == 0
        for name in ("correlation_ranks.csv", "correlation_summary.csv"):
            with open(os.path.join(cfg.output_dir, name), "rb") as a, open(os.path.join(out_dir, name), "rb") as b:
                assert a.read() == b.read(), name

    @pytest.mark.parametrize("rows, text", [
        ([f"0.5,{i / 30}" for i in range(10)], "error: rank correlation undefined: one of the lists is entirely tied\n"),
        ([f"{i / 20},{i / 30}" for i in range(9)], "error: need at least 10 pairs for a correlation report, got 9\n"),
    ], ids=["tied", "short"])
    def test_failed_report_command_writes_nothing(self, tmp_path, capsys, rows, text):
        pairs_path = str(tmp_path / "pairs.csv")
        with open(pairs_path, "w") as fh:
            fh.write("iteration,sample_id,mean_dsc,r_dsc\n" + "".join(f"0,s{i},{row}\n" for i, row in enumerate(rows)))
        out_dir = str(tmp_path / "rep")
        assert cli.main(["report", "--pairs", pairs_path, "--out", out_dir]) == 1
        assert capsys.readouterr().err == text
        assert not os.path.exists(out_dir)

    @pytest.mark.parametrize("row, text", [
        ("0,s3,0.5", "line 5: 3 cells, but the header has 4"),
        ("0,s3,high,0.5", "line 5: mean_dsc is not a number: 'high'"),
        ("0,s3,nan,0.5", "line 5: mean_dsc must be a Dice value in [0, 1], got 'nan'"),
        ("0,s3,0.5,inf", "line 5: r_dsc must be a Dice value in [0, 1], got 'inf'"),
        ("0,s3,0.5,1.5", "line 5: r_dsc must be a Dice value in [0, 1], got '1.5'"),
    ])
    def test_bad_report_row_is_one_line_error(self, tmp_path, capsys, row, text):
        pairs_path = str(tmp_path / "pairs.csv")
        rows = [f"0,s{i},{i / 20},{i / 30}" for i in range(12)]
        rows[3] = row
        with open(pairs_path, "w") as fh:
            fh.write("iteration,sample_id,mean_dsc,r_dsc\n" + "\n".join(rows) + "\n")
        argv = ["report", "--pairs", pairs_path, "--out", str(tmp_path / "rep")]
        self.one_line_error(capsys, argv, pairs_path, text)

    @pytest.mark.parametrize("header, column", [("a,b", "mean_dsc"), ("iteration,sample_id,mean_dsc", "r_dsc")])
    def test_report_header_without_a_column_is_one_line_error(self, tmp_path, capsys, header, column):
        pairs_path = str(tmp_path / "pairs.csv")
        with open(pairs_path, "w") as fh:
            fh.write(header + "\n" + "".join(f"0,s{i},{i / 20},{i / 30}\n" for i in range(12)))
        argv = ["report", "--pairs", pairs_path, "--out", str(tmp_path / "rep")]
        self.one_line_error(capsys, argv, pairs_path, f"line 1: the header has no {column} column")

    def test_diverging_run_is_one_line_error_naming_the_key(self, tmp_path):
        cfg_path = str(tmp_path / "exp.cfg")
        with open(cfg_path, "w") as fh:
            fh.write("dataset.n_samples=24\ndataset.image_size=16\nsplit.initial=4\nsplit.pool=10\n"
                     f"split.test=10\ntrain.base_epochs=2\ntrain.learning_rate=1e30\noutput.dir={tmp_path / 'out'}\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(activeseg.__file__)))
        proc = subprocess.run([sys.executable, "-m", "activeseg.cli", "run", "--config", cfg_path],
                              env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 1
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("error: training diverged in epoch 1 of 2: ")
        assert proc.stderr.endswith("learning_rate=1e+30 (config key train.learning_rate)\n")

    def test_error_exit_code(self, tmp_path):
        rc = cli.main(["run", "--config", str(tmp_path / "missing.cfg")])
        assert rc == 1

    @pytest.mark.parametrize("value", ["2.5", "true"])
    def test_non_integer_crf_steps_is_one_line_error(self, tmp_path, capsys, value):
        cfg_path = str(tmp_path / "exp.cfg")
        with open(cfg_path, "w") as fh:
            fh.write(f"crf.steps={value}\n")
        rc = cli.main(["run", "--config", cfg_path])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: steps must be an integer")

    @pytest.mark.parametrize("line", [
        "train.batch_size=2.5",
        "seed=1.5",
        "dataset.seed=x",
        "split.pool=2.0",
        "ablation.confidence_filter=no",
        "ensemble.perturb_steps=yes",
        "dataset.kind=Synthetic",
        "al.strategy=bad",
        "ensemble.members=4",
        "loss.alpha_l=0.5",
        "crf.bilateral.schan=0",
        "train.loss=l2",
        "crf.gaussian.sdims=inf",
        "crf.bilateral.compat=nan",
        "train.learning_rate=nan",
        "train.learning_rate=inf",
        "loss.alpha_l=nan",
        "ensemble.rounds=-1",
        "al.target_dsc=nan",
        "al.target_dsc=1.5",
        "train.base_epochs=-1",
        "train.finetune_epochs=-1",
        "seed=-1",
        "dataset.seed=-1",
        "dataset.noise_level=nan",
        "dataset.noise_level=inf",
        "ensemble.floor=nan",
        "ensemble.floor=inf",
        "ensemble.floor=1e300",
        "crf.gaussian.sdims=1e300",
        "crf.bilateral.sdims=1e300",
        "crf.bilateral.schan=1e300",
        "crf.bilateral.schan=1e-300",
        "crf.gaussian.sdims=1e-160",
        "crf.bilateral.sdims=1e-160",
        "crf.bilateral.schan=1e-160",
        "ensemble.floor=1e-160",
    ])
    def test_bad_value_is_one_line_error_naming_the_key(self, tmp_path, capsys, line):
        cfg_path = str(tmp_path / "exp.cfg")
        with open(cfg_path, "w") as fh:
            # split.initial=0 fails later with another message, so a bad
            # value let through fails this test instead of running the loop
            fh.write(line + "\nsplit.initial=0\n")
        rc = cli.main(["run", "--config", cfg_path])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: ")
        assert line.partition("=")[0] in err

    def test_learning_rate_beyond_float32_fails_before_any_file(self, tmp_path, capsys):
        out_dir = str(tmp_path / "out")
        cfg_path = str(tmp_path / "exp.cfg")
        with open(cfg_path, "w") as fh:
            fh.write(f"train.learning_rate=1e300\noutput.dir={out_dir}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warning on the float32 cast
            assert cli.main(["run", "--config", cfg_path]) == 1
        assert capsys.readouterr().err == (
            "error: learning_rate must fit in float32, got 1e+300 (config key train.learning_rate)\n"
        )
        assert not os.path.exists(out_dir)

    @pytest.mark.parametrize("lines, need", [("", 340), ("split.initial=2\nsplit.pool=2\n", 104)])
    def test_synthetic_corpus_smaller_than_the_split_fails_before_any_file(self, tmp_path, capsys, lines, need):
        out_dir = str(tmp_path / "out")
        cfg_path = str(tmp_path / "exp.cfg")
        with open(cfg_path, "w") as fh:
            fh.write(f"dataset.n_samples=5\n{lines}output.dir={out_dir}\n")
        assert cli.main(["run", "--config", cfg_path]) == 1
        assert capsys.readouterr().err == (
            f"error: dataset has 5 samples but the split needs {need} (config key dataset.n_samples)\n"
        )
        assert not os.path.exists(out_dir)

    def test_negative_generate_seed_is_one_line_error(self, tmp_path, capsys):
        assert cli.main(["generate", "--out", str(tmp_path / "data"), "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: seed must be a nonnegative integer, got -1\n"
        assert not os.path.exists(tmp_path / "data")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_generate_noise_is_one_line_error(self, tmp_path, capsys, value):
        assert cli.main(["generate", "--out", str(tmp_path / "data"), "--noise", value]) == 1
        assert capsys.readouterr().err == f"error: noise_level must be finite, got {value}\n"
        assert not os.path.exists(tmp_path / "data")

    @pytest.mark.parametrize("command, text", [
        ("run", "not a UTF-8 text file"),
        ("report", "not an ASCII text file"),
        ("refine", "not an ensemble snapshot"),
    ])
    def test_undecodable_text_input_names_its_file(self, tmp_path, capsys, command, text):
        from activeseg.segmenter import init_params, save_params

        ckpt = str(tmp_path / "ck.bin")
        save_params(ckpt, init_params(0))  # a binary file where text belongs
        if command == "run":
            argv = ["run", "--config", ckpt]
        elif command == "report":
            argv = ["report", "--pairs", ckpt, "--out", str(tmp_path / "rep")]
        else:
            argv = self.refine_argv({**self.refine_inputs(tmp_path), "ensemble": ckpt}, tmp_path)
        self.one_line_error(capsys, argv, ckpt, text)

    @pytest.mark.parametrize("sizes, bad, text", [
        ([30] * 24, "s000", "30x30; training needs sides divisible by 4"),
        ([32] * 5 + [28] + [32] * 18, "s005", "28x28 but sample 's000' is 32x32; training needs one raster size"),
        ([32] * 5 + [30] + [32] * 18, "s005", "30x30; training needs sides divisible by 4"),
        ([32] * 5 + [(32, 28)] + [32] * 18, "s005", "32x32 but its mask is 28x28"),
        ([32] * 5 + [(32, None)] + [32] * 18, "s005", "32x32 but has no mask; every sample needs one"),
    ])
    def test_bad_rasters_fail_before_the_split(self, tmp_path, capsys, monkeypatch, sizes, bad, text):
        from activeseg import harness, segmenter

        data_dir = write_dataset(str(tmp_path / "data"), sizes)
        cfg_path = str(tmp_path / "exp.cfg")
        with open(cfg_path, "w") as fh:
            fh.write(f"dataset.kind=directory\ndataset.dir={data_dir}\nsplit.initial=4\nsplit.pool=10\nsplit.test=10\n"
                     f"output.dir={tmp_path / 'out'}\n")

        def reached(*args, **kw):
            raise AssertionError("the check must come first")

        monkeypatch.setattr(harness, "make_split", reached)
        monkeypatch.setattr(segmenter, "train", reached)
        rc = cli.main(["run", "--config", cfg_path])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: dataset {data_dir}: sample {bad!r} is {text}\n"

    @pytest.mark.parametrize("name", ["\u00e9s00", "s0,0"])
    def test_unreportable_sample_id_fails_before_any_file(self, tmp_path, capsys, monkeypatch, name):
        from activeseg import harness, segmenter

        data_dir = write_dataset(str(tmp_path / "data"), [32] * 24)
        os.remove(os.path.join(data_dir, "manifest.txt"))  # ids come from the file names
        for part in ("images", "masks"):
            os.rename(os.path.join(data_dir, part, "s000.pgm"), os.path.join(data_dir, part, f"{name}.pgm"))
        out_dir = str(tmp_path / "out")
        cfg_path = str(tmp_path / "exp.cfg")
        with open(cfg_path, "w") as fh:
            fh.write(f"dataset.kind=directory\ndataset.dir={data_dir}\nsplit.initial=4\nsplit.pool=10\nsplit.test=10\n"
                     f"output.dir={out_dir}\n")

        def reached(*args, **kw):
            raise AssertionError("the check must come first")

        monkeypatch.setattr(harness, "make_split", reached)
        monkeypatch.setattr(segmenter, "train", reached)
        assert cli.main(["run", "--config", cfg_path]) == 1
        err = capsys.readouterr().err
        assert err == f"error: dataset {data_dir}: sample id {name!r} must be ASCII without commas; reports write ids unquoted\n"
        assert not os.path.exists(os.path.join(out_dir, "config_echo.txt"))

    def test_score_rejects_an_unreportable_sample_id(self, tmp_path, capsys):
        from activeseg.segmenter import init_params, save_params

        rng = np.random.default_rng(0)
        data_dir = str(tmp_path / "data")
        save_dataset(data_dir, [Sample(sid, ImageGrid(rng.uniform(0, 1, (16, 16)))) for sid in ("a,b", "c")])
        ckpt = str(tmp_path / "ckpt.bin")
        save_params(ckpt, init_params(0))
        out_csv = str(tmp_path / "scores.csv")
        assert cli.main(["score", "--checkpoint", ckpt, "--data", data_dir, "--out", out_csv]) == 1
        err = capsys.readouterr().err
        assert err == f"error: dataset {data_dir}: sample id 'a,b' must be ASCII without commas; reports write ids unquoted\n"
        assert not os.path.exists(out_csv)

    def test_non_ascii_manifest_names_the_file_and_line(self, tmp_path, capsys):
        data_dir = write_dataset(str(tmp_path / "data"), [32] * 24)
        for part in ("images", "masks"):
            os.rename(os.path.join(data_dir, part, "s000.pgm"), os.path.join(data_dir, part, "és00.pgm"))
        manifest = os.path.join(data_dir, "manifest.txt")
        with open(manifest, encoding="ascii") as fh:
            ids = fh.read().split()
        assert ids[0] == "s000"
        ids[0] = "és00"
        with open(manifest, "w", encoding="utf-8") as fh:
            fh.write("".join(f"{sid}\n" for sid in ids))
        out_dir = str(tmp_path / "out")
        cfg_path = str(tmp_path / "exp.cfg")
        with open(cfg_path, "w") as fh:
            fh.write(f"dataset.kind=directory\ndataset.dir={data_dir}\nsplit.initial=4\nsplit.pool=10\nsplit.test=10\n"
                     f"output.dir={out_dir}\n")
        assert cli.main(["run", "--config", cfg_path]) == 1
        assert capsys.readouterr().err == f"error: {manifest}: line 1: not ASCII text\n"
        assert not os.path.exists(os.path.join(out_dir, "config_echo.txt"))

    def test_empty_dataset_reports_the_split(self, tmp_path, capsys):
        data_dir = write_dataset(str(tmp_path / "data"), [])
        cfg_path = str(tmp_path / "exp.cfg")
        with open(cfg_path, "w") as fh:
            fh.write(f"dataset.kind=directory\ndataset.dir={data_dir}\noutput.dir={tmp_path / 'out'}\n")
        assert cli.main(["run", "--config", cfg_path]) == 1
        assert capsys.readouterr().err.startswith("error: dataset has 0 samples but the split needs ")

    @staticmethod
    def refine_inputs(tmp_path):
        from activeseg.core import image_to_pgm, write_pgm
        from activeseg.weaklabeler import build_ensemble, save_ensemble

        rng = np.random.default_rng(1)
        paths = {"image": str(tmp_path / "img.pgm"), "prob": str(tmp_path / "prob.pgm"),
                 "ensemble": str(tmp_path / "ens.txt")}
        image_to_pgm(paths["image"], ImageGrid(rng.uniform(0, 1, (8, 8))))
        write_pgm(paths["prob"], (rng.uniform(0, 1, (8, 8)) * 255).astype(np.uint8))
        save_ensemble(paths["ensemble"], build_ensemble(CrfParams(1.5, 0.3, 2.0, 0.15, 0.4, 1), 3, PERTURB, 0))
        return paths

    @staticmethod
    def one_line_error(capsys, argv, path, text):
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {path}: ")
        assert text in err

    def refine_argv(self, paths, tmp_path):
        return ["refine", "--image", paths["image"], "--prob", paths["prob"],
                "--ensemble", paths["ensemble"], "--out", str(tmp_path / "mask.pgm")]

    @pytest.mark.parametrize("drop, text", [
        ("seed=0", "missing key seed= in the header"),
        ("members=3", "missing key members= in the header"),
        ("[perturb]", "missing section [perturb]"),
        ("[member 2]", "missing section [member 2]"),
    ])
    def test_malformed_snapshot_is_one_line_error(self, tmp_path, capsys, drop, text):
        paths = self.refine_inputs(tmp_path)
        with open(paths["ensemble"]) as fh:
            lines = fh.read().splitlines()
        assert drop in lines
        with open(paths["ensemble"], "w") as fh:
            fh.write("\n".join(l for l in lines if l != drop) + "\n")
        self.one_line_error(capsys, self.refine_argv(paths, tmp_path), paths["ensemble"], text)

    @staticmethod
    def set_snapshot_entry(path, section, key, value):
        """Rewrite ``key`` in ``[section]`` of a snapshot to ``value``, or drop it for None."""
        with open(path) as fh:
            lines = fh.read().splitlines()
        start = lines.index(f"[{section}]")
        row = next(i for i in range(start + 1, len(lines)) if lines[i].startswith(f"{key}="))
        if value is None:
            del lines[row]
        else:
            lines[row] = f"{key}={value}"
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    @pytest.mark.parametrize("section, key, value", [
        ("center", "gaussian.sdims", "inf"),
        ("member 1", "bilateral.compat", "nan"),
    ])
    def test_non_finite_snapshot_value_is_one_line_error(self, tmp_path, capsys, section, key, value):
        paths = self.refine_inputs(tmp_path)
        self.set_snapshot_entry(paths["ensemble"], section, key, value)
        field = key.replace(".", "_")
        self.one_line_error(capsys, self.refine_argv(paths, tmp_path), paths["ensemble"],
                            f"section [{section}]: {field} must be finite, got {value}")

    @pytest.mark.parametrize("section, key, value, text", [
        ("member 1", "steps", None, "missing key steps= in section [member 1]"),
        ("center", "steps", "1.5", "bad value steps='1.5' in section [center]"),
    ])
    def test_bad_crf_snapshot_entry_is_one_line_error(self, tmp_path, capsys, section, key, value, text):
        paths = self.refine_inputs(tmp_path)
        self.set_snapshot_entry(paths["ensemble"], section, key, value)
        self.one_line_error(capsys, self.refine_argv(paths, tmp_path), paths["ensemble"], text)

    def test_refine_size_mismatch_names_both_files(self, tmp_path, capsys):
        from activeseg.core import write_pgm

        paths = self.refine_inputs(tmp_path)
        write_pgm(paths["prob"], np.full((12, 8), 128, dtype=np.uint8))
        self.one_line_error(capsys, self.refine_argv(paths, tmp_path), paths["prob"],
                            f"the map is 8x12 but the image {paths['image']} is 8x8")

    @pytest.mark.parametrize("which", ["image", "prob"])
    @pytest.mark.parametrize("cut, text", [
        (lambda raw: raw[:-5], "a 8x8 PGM needs 64 raster bytes, the file has 59"),
        (lambda raw: b"P5\n8", "PGM header ends after 2 of its 4 fields"),
        (lambda raw: b"P5\n8 x\n255\n" + raw[-64:], "PGM width, height and maxval must be integers"),
        (lambda raw: b"P5\n0 0\n255\n", "PGM width and height must be positive, got 0x0"),
        (lambda raw: b"P5\n0 4\n255\n", "PGM width and height must be positive, got 0x4"),
    ], ids=["truncated_raster", "header_only", "non_integer_size", "zero_size", "zero_width"])
    def test_malformed_pgm_is_one_line_error(self, tmp_path, capsys, which, cut, text):
        paths = self.refine_inputs(tmp_path)
        with open(paths[which], "rb") as fh:
            raw = fh.read()
        with open(paths[which], "wb") as fh:
            fh.write(cut(raw))
        self.one_line_error(capsys, self.refine_argv(paths, tmp_path), paths[which], text)

    @pytest.mark.parametrize("cut, text", [
        (lambda raw: raw.replace(b"\nend\n", b"\n"), "checkpoint header has no 'end' line"),
        (lambda raw: raw[:-8], "checkpoint needs"),
    ], ids=["no_end_line", "truncated_data"])
    def test_malformed_checkpoint_is_one_line_error(self, tmp_path, capsys, cut, text):
        from activeseg.segmenter import init_params, save_params

        data_dir = write_dataset(str(tmp_path / "data"), [16] * 2)
        ckpt = str(tmp_path / "ckpt.bin")
        save_params(ckpt, init_params(0))
        with open(ckpt, "rb") as fh:
            raw = fh.read()
        with open(ckpt, "wb") as fh:
            fh.write(cut(raw))
        argv = ["score", "--checkpoint", ckpt, "--data", data_dir, "--out", str(tmp_path / "scores.csv")]
        self.one_line_error(capsys, argv, ckpt, text)

    def test_score_pads_unaligned_images(self, tmp_path):
        from activeseg.segmenter import init_params, save_params

        data_dir = write_dataset(str(tmp_path / "data"), [30] * 3)
        ckpt = str(tmp_path / "ckpt.bin")
        save_params(ckpt, init_params(0))
        out_csv = str(tmp_path / "scores.csv")
        assert cli.main(["score", "--checkpoint", ckpt, "--data", data_dir, "--out", out_csv]) == 0
        with open(out_csv) as fh:
            assert len(fh.read().splitlines()) == 4

    def test_generate_defaults_are_the_default_corpus(self, tmp_path):
        rc = cli.main(["generate", "--out", str(tmp_path / "cli"), "--n", "6", "--size", "16"])
        assert rc == 0
        spec = replace(default_experiment().dataset, n_samples=6, image_size=16)
        save_dataset(str(tmp_path / "lib"), generate_synthetic(spec))
        names = sorted(os.listdir(tmp_path / "lib" / "images"))
        assert sorted(os.listdir(tmp_path / "cli" / "images")) == names
        for path in ["manifest.txt"] + [f"{d}/{n}" for d in ("images", "masks") for n in names]:
            assert (tmp_path / "cli" / path).read_bytes() == (tmp_path / "lib" / path).read_bytes(), path


def load_perfbench(monkeypatch, name):
    """perfbench/<name>.py, imported as the benchmark imports it."""
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, "perfbench", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_wrapped_names_resolve(monkeypatch):
    """perfbench wraps library functions by name, so a rename must fail here
    rather than abort a benchmark run."""
    spans = load_perfbench(monkeypatch, "spans")
    assert len(spans.resolve(spans.BOUNDARIES)) == len(spans.BOUNDARIES)
    assert callable(activeseg.dice)
    for name in ("default_experiment", "echo_config", "parse_config_text", "run_experiment"):
        assert callable(getattr(harness, name))


def test_benchmark_reads_the_result_fields(monkeypatch, tmp_path):
    """perfbench reads the records, the final pool and its entries by field
    name, so a renamed field must fail here rather than abort a benchmark
    run: a traced reference run, shrunk to a few seconds, gives every
    per-layer metric BENCHMARK.json declares (the trace.* pair compares a
    traced with an untraced run)."""
    spans = load_perfbench(monkeypatch, "spans")
    measures = load_perfbench(monkeypatch, "measures")
    workloads = load_perfbench(monkeypatch, "workloads")
    tiny = {"split.initial": 12, "split.pool": 40, "split.test": 8, "al.iterations": 2, "al.k_strong": 4,
            "al.k_weak": 4, "al.pseudo_start_iter": 1, "al.bins": 2, "train.base_epochs": 3,
            "train.finetune_epochs": 1}
    base = harness.echo_config(harness.default_experiment(seed=0))
    cfg = harness.parse_config_text(workloads.config_text(base, "reference", str(tmp_path), tiny))
    tracer = spans.Tracer("fields")
    with spans.installed(tracer, spans.BOUNDARIES):
        result = harness.run_experiment(cfg)["method"]
    measures.check_expectations(tracer.spans, workloads.WORKLOADS["reference"].expect)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"] if not m["name"].startswith("trace.")}
    assert set(measures.layer_metrics(tracer.spans, result.records)) == declared
    outcome = measures.outcome(result, str(tmp_path))
    assert len(outcome["rounds"]) == 2 and all(outcome["csv_sha256"].values())
    (run_detailed,) = [s for s in tracer.spans if s.name == "alloop.run_detailed"]
    assert measures.invariant_problems(outcome, cfg.al, run_detailed.counters["_pool_ids"]) == []
    assert 0.0 <= measures.pseudo_label_dsc(result.final_pool, activeseg.dice) <= 1.0


@pytest.mark.parametrize("seed", [0, 39])
def test_benchmark_workload_configs_parse(monkeypatch, tmp_path, seed):
    """Each perfbench workload config passes the library's config checks, so
    a renamed key or a new check fails here rather than in a benchmark run."""
    workloads = load_perfbench(monkeypatch, "workloads")
    base = harness.echo_config(harness.default_experiment(seed=seed))
    assert len(workloads.WORKLOADS) == 3
    for name in workloads.WORKLOADS:
        text = workloads.config_text(base, name, str(tmp_path / name), {})
        assert harness.parse_config_text(text).output_dir == str(tmp_path / name)
