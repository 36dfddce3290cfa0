import os
from dataclasses import replace

import numpy as np
import pytest

from activeseg import cli
from activeseg.alloop import ALConfig
from activeseg.core import BinaryMask, ImageGrid, Sample, binarize, load_dataset, save_dataset
from activeseg.crf import CrfParams
from activeseg.harness import (
    CONFIG_KEYS,
    ExperimentConfig,
    SyntheticSpec,
    default_experiment,
    echo_config,
    generate_synthetic,
    make_split,
    parse_config_text,
    report_correlation,
    run_experiment,
    with_keys,
)
from activeseg.segmenter import TrainConfig
from activeseg.weaklabeler import PerturbSpec

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


class TestGenerator:
    def test_deterministic(self):
        spec = SyntheticSpec(n_samples=6, seed=4)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        for s, t in zip(a, b):
            assert s.id == t.id
            np.testing.assert_array_equal(s.image.values, t.image.values)
            np.testing.assert_array_equal(s.ground_truth.values, t.ground_truth.values)

    def test_noiseless_rendering_is_exact(self):
        spec = SyntheticSpec(n_samples=5, noise_level=0.0, occlusion_prob=0.0, seed=2)
        for s in generate_synthetic(spec):
            expected = np.where(s.ground_truth.values == 1, 0.8, 0.2)
            np.testing.assert_array_equal(s.image.values, expected)

    def test_masks_recoverable_by_threshold(self):
        # noiseless images threshold back to the exact mask, occluded or not
        spec = SyntheticSpec(n_samples=8, noise_level=0.0, occlusion_prob=1.0, seed=3)
        for s in generate_synthetic(spec):
            from activeseg.core import ProbMap

            recovered = binarize(ProbMap(s.image.values), 0.5)
            np.testing.assert_array_equal(recovered.values, s.ground_truth.values)

    def test_foreground_fraction_bounds(self):
        for shape in ("ellipse", "blob", "rectangle"):
            spec = SyntheticSpec(n_samples=10, shape=shape, seed=1)
            for s in generate_synthetic(spec):
                frac = s.ground_truth.values.mean()
                assert 0.05 <= frac <= 0.6

    def test_rsna_shaped_split_arithmetic(self):
        spec = SyntheticSpec(n_samples=340, seed=0)
        cfg = ExperimentConfig(dataset=spec, n_initial=40, n_pool=200, n_test=100)
        split = make_split(generate_synthetic(spec), cfg)
        assert (len(split.initial), len(split.pool), len(split.test)) == (40, 200, 100)

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_samples=0)
        with pytest.raises(ValueError):
            SyntheticSpec(n_samples=1, image_size=10)
        with pytest.raises(ValueError):
            SyntheticSpec(n_samples=1, shape="triangle")


def write_dataset(root, sizes, seed=0):
    """A directory dataset of random square images and masks, one per size."""
    rng = np.random.default_rng(seed)
    save_dataset(root, [
        Sample(f"s{i:03d}", ImageGrid(rng.uniform(0, 1, (n, n))), BinaryMask((rng.uniform(0, 1, (n, n)) > 0.5).astype(int)))
        for i, n in enumerate(sizes)
    ])
    return root


def tiny_experiment(tmp_path, **al_overrides) -> ExperimentConfig:
    train = TrainConfig(epochs=1, learning_rate=0.3, batch_size=2, loss_kind="cross_entropy", seed=0)
    al = ALConfig(
        iterations=2,
        k_strong=3,
        k_weak=2,
        bins=5,
        pseudo_start_iter=1,
        finetune=train,
        base_train=train,
        crf_center=CrfParams(1.5, 0.3, 2.0, 0.15, 0.4, 1),
        ensemble_size=3,
        perturb=PerturbSpec(),
        ensemble_rounds=1,
        seed=0,
        **al_overrides,
    )
    return ExperimentConfig(
        dataset=SyntheticSpec(n_samples=24, image_size=16, shape="ellipse",
                              noise_level=0.1, occlusion_prob=0.3, seed=0),
        n_initial=4,
        n_pool=10,
        n_test=10,
        al=al,
        output_dir=str(tmp_path / "out"),
    )


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
        assert parse_config_text(f"ablation.pseudo_labels={value}\n").al.pseudo_labels is False

    def test_default_echo_is_pinned(self):
        assert echo_config(default_experiment("out", seed=0)) == DEFAULT_ECHO

    def test_with_keys_fans_seed_out_and_skips_none(self, tmp_path):
        cfg = tiny_experiment(tmp_path)
        new = with_keys(cfg, {"seed": 9, "output.dir": None})
        assert new.al.seed == new.al.finetune.seed == new.al.base_train.seed == 9
        assert (new.dataset, new.output_dir) == (cfg.dataset, cfg.output_dir)
        assert with_keys(new, {"seed": 0}) == cfg

    def test_with_keys_error_names_only_the_keys_it_sets(self, tmp_path):
        with pytest.raises(ValueError, match=r"odd .* \(config key ensemble\.members\)$"):
            with_keys(tiny_experiment(tmp_path), {"ensemble.members": 4, "seed": None})

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
ablation.pseudo_labels=True
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
        cfg = tiny_experiment(tmp_path, pseudo_labels=False)
        results = run_experiment(cfg)
        assert all(r.weak_ids == () for r in results["method"].records)


class TestReportCorrelation:
    def test_comonotone(self, tmp_path):
        pairs = [(i / 10, i / 5) for i in range(12)]
        coeff = report_correlation(pairs, str(tmp_path / "r.csv"))
        assert coeff == pytest.approx(1.0)
        with open(tmp_path / "r.csv") as fh:
            assert fh.readline().strip() == "mean_dsc,r_dsc,mean_dsc_rank,r_dsc_rank"

    def test_shuffled_pairs_uncorrelated(self):
        rng = np.random.default_rng(0)
        coeffs = []
        for _ in range(30):
            a = rng.uniform(size=50)
            b = rng.permutation(a)
            coeffs.append(report_correlation(list(zip(a, b))))
        assert abs(np.mean(coeffs)) < 0.3

    def test_too_few_pairs(self):
        with pytest.raises(ValueError):
            report_correlation([(0.1, 0.2)] * 9)


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
        save_ensemble(ens_path, build_ensemble(CrfParams(1.5, 0.3, 2.0, 0.15, 0.4, 1), 3, PerturbSpec(), 0), PerturbSpec())
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
        "ablation.pseudo_labels=no",
        "ensemble.perturb_steps=yes",
        "dataset.kind=Synthetic",
        "al.strategy=bad",
        "ensemble.members=4",
        "loss.alpha_l=0.5",
        "crf.bilateral.schan=0",
        "train.loss=l2",
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

    @pytest.mark.parametrize("sizes, bad, text", [
        ([30] * 24, "s000", "30x30; training needs sides divisible by 4"),
        ([32] * 5 + [28] + [32] * 18, "s005", "28x28 but sample 's000' is 32x32; training needs one raster size"),
        ([32] * 5 + [30] + [32] * 18, "s005", "30x30; training needs sides divisible by 4"),
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

    def test_empty_dataset_reports_the_split(self, tmp_path, capsys):
        data_dir = write_dataset(str(tmp_path / "data"), [])
        cfg_path = str(tmp_path / "exp.cfg")
        with open(cfg_path, "w") as fh:
            fh.write(f"dataset.kind=directory\ndataset.dir={data_dir}\noutput.dir={tmp_path / 'out'}\n")
        assert cli.main(["run", "--config", cfg_path]) == 1
        assert capsys.readouterr().err.startswith("error: dataset has 0 samples but the split needs ")

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
