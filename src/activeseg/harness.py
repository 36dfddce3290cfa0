"""Experiment harness: synthetic corpora, config files, presets, reports.

The default desk-scale experiment mirrors the full protocol shrunk to
32x32 rasters: 40 initial labels, a 200-sample pool, 100 test samples,
20 oracle + 10 pseudo queries per iteration over 8 iterations with
pseudo-labeling active from iteration 3.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from . import alloop, selection
from .alloop import ALConfig, DatasetSplit, RunResult
from .core import BinaryMask, ImageGrid, Sample, load_dataset, save_dataset
from .crf import CrfParams
from .segmenter import LossWeights, TrainConfig
from .selection import fmt, rank_correlation, write_scores_csv
from .weaklabeler import PerturbSpec

SHAPE_KINDS = ("ellipse", "blob", "rectangle")
FOREGROUND_INTENSITY = 0.8
BACKGROUND_INTENSITY = 0.2
# occluded regions compress contrast toward 0.5 but never cross it, so
# masks stay exactly recoverable from noiseless images by thresholding
OCCLUSION_CONTRAST_RANGE = (0.1, 0.55)
FG_FRACTION_RANGE = (0.05, 0.6)


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the generated corpus."""

    n_samples: int
    image_size: int = 32
    shape: str = "blob"
    noise_level: float = 0.15
    occlusion_prob: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("need at least one sample")
        if self.image_size < 8 or self.image_size % 4 != 0:
            raise ValueError("image_size must be a multiple of 4 and at least 8")
        if self.shape not in SHAPE_KINDS:
            raise ValueError(f"shape must be one of {SHAPE_KINDS}")
        if self.noise_level < 0:
            raise ValueError("noise_level must be nonnegative")
        if not 0.0 <= self.occlusion_prob <= 1.0:
            raise ValueError("occlusion_prob must lie in [0, 1]")


def _draw_mask(rng: np.random.Generator, size: int, shape: str) -> np.ndarray:
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    if shape == "ellipse":
        cy, cx = rng.uniform(0.3 * size, 0.7 * size, size=2)
        a = rng.uniform(0.1 * size, 0.38 * size)
        b = rng.uniform(0.1 * size, 0.38 * size)
        theta = rng.uniform(0.0, np.pi)
        dy, dx = yy - cy, xx - cx
        u = dx * np.cos(theta) + dy * np.sin(theta)
        v = -dx * np.sin(theta) + dy * np.cos(theta)
        return ((u / a) ** 2 + (v / b) ** 2 <= 1.0).astype(np.uint8)
    if shape == "rectangle":
        h = rng.uniform(0.15 * size, 0.6 * size)
        w = rng.uniform(0.15 * size, 0.6 * size)
        r0 = rng.uniform(0.0, size - h)
        c0 = rng.uniform(0.0, size - w)
        return ((yy >= r0) & (yy < r0 + h) & (xx >= c0) & (xx < c0 + w)).astype(np.uint8)
    # blob: thresholded sum of a few anisotropic bumps
    bumps = np.zeros((size, size))
    for _ in range(3):
        cy, cx = rng.uniform(0.2 * size, 0.8 * size, size=2)
        sy = rng.uniform(0.08 * size, 0.2 * size)
        sx = rng.uniform(0.08 * size, 0.2 * size)
        bumps += np.exp(-(((yy - cy) / sy) ** 2 + ((xx - cx) / sx) ** 2) / 2.0)
    return (bumps >= 0.5 * bumps.max()).astype(np.uint8)


def _render(rng: np.random.Generator, mask: np.ndarray, spec: SyntheticSpec) -> np.ndarray:
    size = spec.image_size
    img = np.where(mask == 1, FOREGROUND_INTENSITY, BACKGROUND_INTENSITY)
    if rng.uniform() < spec.occlusion_prob:
        yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
        cy, cx = rng.uniform(0.0, size, size=2)
        radius = rng.uniform(0.25 * size, 0.55 * size)
        contrast = rng.uniform(*OCCLUSION_CONTRAST_RANGE)
        region = (yy - cy) ** 2 + (xx - cx) ** 2 <= radius**2
        faded = np.where(mask == 1, 0.5 + 0.3 * contrast, 0.5 - 0.3 * contrast)
        img = np.where(region, faded, img)
    if spec.noise_level > 0:
        img = img + rng.normal(0.0, spec.noise_level, size=img.shape)
    return np.clip(img, 0.0, 1.0)


def generate_synthetic(spec: SyntheticSpec) -> list[Sample]:
    """Deterministic corpus of noisy single-shape images with clean masks."""
    rng = np.random.default_rng(spec.seed)
    samples = []
    lo, hi = FG_FRACTION_RANGE
    for i in range(spec.n_samples):
        for _ in range(200):
            mask = _draw_mask(rng, spec.image_size, spec.shape)
            frac = mask.mean()
            if lo <= frac <= hi:
                break
        else:
            raise RuntimeError("could not draw a shape with admissible foreground fraction")
        img = _render(rng, mask, spec)
        samples.append(
            Sample(
                id=f"synth-{spec.seed:06d}-{i:05d}",
                image=ImageGrid(img),
                ground_truth=BinaryMask(mask),
            )
        )
    return samples


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: dataset, split, loop settings, ablations, outputs."""

    dataset: Union[SyntheticSpec, str]  # synthetic spec or a dataset directory
    n_initial: int = 40
    n_pool: int = 200
    n_test: int = 100
    al: ALConfig = field(default_factory=ALConfig)
    with_baseline: bool = False
    output_dir: str = "out"

    def __post_init__(self):
        for name in ("n_initial", "n_pool", "n_test"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")


def load_samples(cfg: ExperimentConfig) -> list[Sample]:
    if isinstance(cfg.dataset, SyntheticSpec):
        return generate_synthetic(cfg.dataset)
    return load_dataset(cfg.dataset)


def _check_rasters(samples: Sequence[Sample], source: str) -> None:
    """Reject rasters the segmenter cannot train on: sides not divisible by 4
    (its two 2x2 pooling stages) or more than one raster size."""
    if not samples:
        return  # make_split reports the empty dataset
    h0, w0 = samples[0].image.values.shape
    for s in samples:
        h, w = s.image.values.shape
        if h % 4 != 0 or w % 4 != 0:
            raise ValueError(f"dataset {source}: sample {s.id!r} is {h}x{w}; training needs sides divisible by 4")
        if (h, w) != (h0, w0):
            raise ValueError(
                f"dataset {source}: sample {s.id!r} is {h}x{w} but sample {samples[0].id!r} is {h0}x{w0}; "
                "training needs one raster size"
            )


def make_split(samples: Sequence[Sample], cfg: ExperimentConfig) -> DatasetSplit:
    """Seeded shuffle then slice; identical for paired method/baseline runs."""
    need = cfg.n_initial + cfg.n_pool + cfg.n_test
    if len(samples) < need:
        raise ValueError(f"dataset has {len(samples)} samples but the split needs {need}")
    rng = np.random.default_rng(np.random.SeedSequence([cfg.al.seed, 0xA11]))
    order = rng.permutation(len(samples))
    picked = [samples[i] for i in order[:need]]
    return DatasetSplit(
        initial=tuple(picked[: cfg.n_initial]),
        pool=tuple(picked[cfg.n_initial : cfg.n_initial + cfg.n_pool]),
        test=tuple(picked[cfg.n_initial + cfg.n_pool :]),
    )


# ---------------------------------------------------------------------------
# config files: flat key=value lines with dotted section prefixes
# ---------------------------------------------------------------------------


DATASET_KINDS = SYNTHETIC, DIRECTORY = ("synthetic", "directory")


@dataclass(frozen=True)
class ConfigKey:
    """One config key: the type of its value, its default, and the
    ExperimentConfig fields it sets, as attribute paths."""

    name: str
    type: type  # int, float, bool or str
    default: object
    fields: Tuple[str, ...]
    kind: Optional[str] = None  # the only dataset kind that takes the key


# One row per key, in echo order.  The defaults are the desk-scale preset.
CONFIG_KEYS = (
    ConfigKey("dataset.kind", str, SYNTHETIC, ()),
    ConfigKey("dataset.dir", str, ".", ("dataset",), DIRECTORY),
    ConfigKey("dataset.n_samples", int, 340, ("dataset.n_samples",), SYNTHETIC),
    ConfigKey("dataset.image_size", int, 32, ("dataset.image_size",), SYNTHETIC),
    ConfigKey("dataset.shape", str, "blob", ("dataset.shape",), SYNTHETIC),
    ConfigKey("dataset.noise_level", float, 0.15, ("dataset.noise_level",), SYNTHETIC),
    ConfigKey("dataset.occlusion_prob", float, 0.9, ("dataset.occlusion_prob",), SYNTHETIC),
    ConfigKey("dataset.seed", int, 0, ("dataset.seed",), SYNTHETIC),
    ConfigKey("split.initial", int, 40, ("n_initial",)),
    ConfigKey("split.pool", int, 200, ("n_pool",)),
    ConfigKey("split.test", int, 100, ("n_test",)),
    ConfigKey("al.iterations", int, 8, ("al.iterations",)),
    ConfigKey("al.k_strong", int, 20, ("al.k_strong",)),
    ConfigKey("al.k_weak", int, 10, ("al.k_weak",)),
    ConfigKey("al.bins", int, 10, ("al.bins",)),
    ConfigKey("al.pseudo_start_iter", int, 3, ("al.pseudo_start_iter",)),
    ConfigKey("al.strategy", str, "uncertainty", ("al.query_strategy",)),
    ConfigKey("al.target_dsc", float, None, ("al.target_dsc",)),
    ConfigKey("train.base_epochs", int, 12, ("al.base_train.epochs",)),
    ConfigKey("train.finetune_epochs", int, 6, ("al.finetune.epochs",)),
    ConfigKey("train.learning_rate", float, 0.5, ("al.finetune.learning_rate", "al.base_train.learning_rate")),
    ConfigKey("train.batch_size", int, 2, ("al.finetune.batch_size", "al.base_train.batch_size")),
    ConfigKey("train.loss", str, "cross_entropy", ("al.finetune.loss_kind", "al.base_train.loss_kind")),
    ConfigKey("loss.alpha_l", float, 0.1, ("al.loss_weights.alpha_l",)),
    ConfigKey("loss.alpha_m", float, 0.3, ("al.loss_weights.alpha_m",)),
    ConfigKey("loss.alpha_f", float, 0.6, ("al.loss_weights.alpha_f",)),
    ConfigKey("crf.gaussian.sdims", float, 1.5, ("al.crf_center.gaussian_sdims",)),
    ConfigKey("crf.gaussian.compat", float, 0.4, ("al.crf_center.gaussian_compat",)),
    ConfigKey("crf.bilateral.sdims", float, 2.5, ("al.crf_center.bilateral_sdims",)),
    ConfigKey("crf.bilateral.schan", float, 0.15, ("al.crf_center.bilateral_schan",)),
    ConfigKey("crf.bilateral.compat", float, 0.6, ("al.crf_center.bilateral_compat",)),
    ConfigKey("crf.steps", int, 2, ("al.crf_center.steps",)),
    ConfigKey("ensemble.members", int, 5, ("al.ensemble_size",)),
    ConfigKey("ensemble.relative_sigma", float, 0.05, ("al.perturb.relative_sigma",)),
    ConfigKey("ensemble.floor", float, 0.001, ("al.perturb.floor",)),
    ConfigKey("ensemble.perturb_steps", bool, False, ("al.perturb.perturb_steps",)),
    ConfigKey("ensemble.rounds", int, 3, ("al.ensemble_rounds",)),
    ConfigKey("ablation.pseudo_labels", bool, True, ("al.pseudo_labels",)),
    ConfigKey("ablation.confidence_filter", bool, True, ("al.confidence_filter",)),
    ConfigKey("ablation.ensemble_crf", bool, True, ("al.ensemble_crf",)),
    ConfigKey("baseline.random", bool, False, ("with_baseline",)),
    ConfigKey("seed", int, 0, ("al.seed", "al.finetune.seed", "al.base_train.seed")),
    ConfigKey("output.dir", str, "out", ("output_dir",)),
)
_KEYS = {key.name: key for key in CONFIG_KEYS}
# the dataclass behind each field path prefix; "" is the experiment itself
_SECTIONS = {
    "": ExperimentConfig,
    "dataset": SyntheticSpec,
    "al": ALConfig,
    "al.finetune": TrainConfig,
    "al.base_train": TrainConfig,
    "al.loss_weights": LossWeights,
    "al.crf_center": CrfParams,
    "al.perturb": PerturbSpec,
}
_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true or false"}


def _build(tree: dict, given: dict, path: str = ""):
    """The dataclass at ``path`` from a nested dict of its field values.  A
    ValueError it raises is re-raised naming the keys in ``given`` that set
    one of its fields."""
    kwargs = {name: _build(sub, given, f"{path}.{name}".lstrip(".")) if isinstance(sub, dict) else sub
              for name, sub in tree.items()}
    try:
        return _SECTIONS[path](**kwargs)
    except ValueError as exc:
        names = [key.name for key in CONFIG_KEYS
                 if key.name in given and any(f.rpartition(".")[0] == path for f in key.fields)]
        if not names:
            raise
        raise ValueError(f"{exc} (config key{'s' if len(names) > 1 else ''} {', '.join(names)})") from None


def _experiment(values: dict, given: Optional[dict] = None) -> ExperimentConfig:
    """The experiment that sets each key in ``values`` to its typed value
    and every other key to its default.  An out-of-range value is reported
    with the keys of ``given`` (default: ``values``) that set its section."""
    kind = values.get("dataset.kind", SYNTHETIC)
    if kind not in DATASET_KINDS:
        raise ValueError(f"dataset.kind must be one of {DATASET_KINDS}, got {kind!r}")
    keys = [key for key in CONFIG_KEYS if key.kind in (None, kind)]
    unknown = set(values) - {key.name for key in keys}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    tree: dict = {}
    for key in keys:
        value = values.get(key.name, key.default)
        for path in key.fields:
            *sections, leaf = path.split(".")
            node = tree
            for name in sections:
                node = node.setdefault(name, {})
            node[leaf] = value
    return _build(tree, values if given is None else given)


def default_experiment(output_dir: Optional[str] = None, seed: Optional[int] = None) -> ExperimentConfig:
    """The desk-scale preset (see module docstring): every key at its
    default, except that ``seed`` seeds the corpus as well as the loop."""
    return with_keys(_experiment({}), {"seed": seed, "dataset.seed": seed, "output.dir": output_dir})


def _convert(key: ConfigKey, text: str):
    """The value of ``key`` written as ``text``; an empty optional key is unset."""
    try:
        if key.type is bool:
            return {"true": True, "false": False}[text.lower()]
        return None if text == "" and key.default is None else key.type(text)
    except (KeyError, ValueError):
        raise ValueError(f"{key.name.rpartition('.')[2]} must be {_TYPE_NAMES[key.type]}, "
                         f"got {text!r} (config key {key.name})") from None


def parse_config_text(text: str) -> ExperimentConfig:
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {line!r}")
        name, _, value = line.partition("=")
        name, value = name.strip(), value.strip()
        values[name] = _convert(_KEYS[name], value) if name in _KEYS else value
    return _experiment(values)


def parse_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def _read(cfg: ExperimentConfig, path: str):
    obj = cfg
    for name in path.split("."):
        # an unset base_train means "train the base model like finetune"
        obj = obj.base_train_config() if name == "base_train" else getattr(obj, name)
    return obj


def _config_values(cfg: ExperimentConfig) -> dict:
    """Every key that cfg sets, in table order, with its value."""
    kind = SYNTHETIC if isinstance(cfg.dataset, SyntheticSpec) else DIRECTORY
    values = {}
    for key in CONFIG_KEYS:
        if key.kind in (None, kind):
            value = _read(cfg, key.fields[0]) if key.fields else kind
            if value is not None:
                values[key.name] = value
    return values


def echo_config(cfg: ExperimentConfig) -> str:
    """Canonical key=value dump; feeding it back reproduces the experiment."""
    return "".join(f"{name}={value}\n" for name, value in _config_values(cfg).items())


def with_keys(cfg: ExperimentConfig, values: dict) -> ExperimentConfig:
    """cfg with the given keys set, as if they ended its config file; a key
    given as None is left as it is."""
    given = {k: v for k, v in values.items() if v is not None}
    return _experiment({**_config_values(cfg), **given}, given)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

RUN_LOG_HEADER = "t,n_strong,n_weak,pool_remaining,labeled_total,test_dsc"
CORRELATION_HEADER = "iteration,sample_id,mean_dsc,r_dsc"


def write_run_log(path: str, result: RunResult) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(RUN_LOG_HEADER + "\n")
        for r in result.records:
            fh.write(
                f"{r.iteration},{len(r.strong_ids)},{len(r.weak_ids)},"
                f"{r.pool_remaining},{r.labeled_total},{fmt(r.test_dsc)}\n"
            )


def write_timings(path: str, result: RunResult) -> None:
    """Wall-clock phase durations; kept out of the CSVs so those stay
    byte-reproducible across runs."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("t phase1_ms phase2_ms phase3_ms\n")
        for r in result.records:
            fh.write(f"{r.iteration} {r.phase1_ms:.3f} {r.phase2_ms:.3f} {r.phase3_ms:.3f}\n")


def write_correlation_pairs(path: str, result: RunResult) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(CORRELATION_HEADER + "\n")
        for iteration, sid, mean_dsc, r_dsc in result.correlation_pairs:
            fh.write(f"{iteration},{sid},{fmt(mean_dsc)},{fmt(r_dsc)}\n")


def report_correlation(pairs: Sequence[Tuple[float, float]], out_path: Optional[str] = None) -> float:
    """Rank-regression coefficient between quality proxy and real Dice.

    Optionally writes the scatter CSV: raw pair plus both descending ranks
    per row.  Needs at least 10 pairs.
    """
    if len(pairs) < 10:
        raise ValueError(f"need at least 10 pairs for a correlation report, got {len(pairs)}")
    mean_dscs = [a for a, _ in pairs]
    r_dscs = [b for _, b in pairs]
    if out_path is not None:
        ranks_a = selection._descending_ranks(mean_dscs)
        ranks_b = selection._descending_ranks(r_dscs)
        with open(out_path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("mean_dsc,r_dsc,mean_dsc_rank,r_dsc_rank\n")
            for (a, b), ra, rb in zip(pairs, ranks_a, ranks_b):
                fh.write(f"{fmt(a)},{fmt(b)},{fmt(ra)},{fmt(rb)}\n")
    return rank_correlation(mean_dscs, r_dscs)


def run_experiment(cfg: ExperimentConfig) -> dict[str, RunResult]:
    """Run the configured experiment (plus the paired random baseline when
    requested) and write all report files under cfg.output_dir."""
    os.makedirs(cfg.output_dir, exist_ok=True)
    if not os.access(cfg.output_dir, os.W_OK):
        raise ValueError(f"output directory {cfg.output_dir!r} is not writable")
    samples = load_samples(cfg)
    _check_rasters(samples, cfg.dataset if isinstance(cfg.dataset, str) else "synthetic")
    split = make_split(samples, cfg)

    with open(os.path.join(cfg.output_dir, "config_echo.txt"), "w", encoding="ascii", newline="\n") as fh:
        fh.write(echo_config(cfg))

    arms = {"method": cfg.al}
    if cfg.with_baseline:
        arms["random"] = replace(cfg.al, query_strategy="random")

    results: dict[str, RunResult] = {}
    for name, al_cfg in arms.items():
        out = cfg.output_dir if name == "method" else os.path.join(cfg.output_dir, name)
        os.makedirs(out, exist_ok=True)
        result = alloop.run_detailed(split, al_cfg)
        results[name] = result
        write_run_log(os.path.join(out, "run_log.csv"), result)
        write_timings(os.path.join(out, "timings.txt"), result)
        write_correlation_pairs(os.path.join(out, "correlation.csv"), result)
        if al_cfg.query_strategy == "uncertainty":
            with open(os.path.join(out, "scores.csv"), "w", encoding="ascii", newline="\n") as fh:
                write_scores_csv(fh, result.score_rows)
        pairs = [(m, r) for _, _, m, r in result.correlation_pairs]
        try:
            coeff = report_correlation(pairs, os.path.join(out, "correlation_ranks.csv"))
        except ValueError:  # all-tied degenerate run; rank regression undefined
            coeff = float("nan")
        with open(os.path.join(out, "correlation_summary.csv"), "w", encoding="ascii", newline="\n") as fh:
            fh.write("n_pairs,coefficient\n")
            fh.write(f"{len(pairs)},{fmt(coeff)}\n")
    return results
