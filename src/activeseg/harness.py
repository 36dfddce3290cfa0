"""Experiment harness: synthetic corpora, config files, presets, reports.

The default desk-scale experiment mirrors the full protocol shrunk to
32x32 rasters: 40 initial labels, a 200-sample pool, 100 test samples,
20 oracle + 10 pseudo queries per iteration over 8 iterations with
pseudo-labeling active from iteration 3.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from . import alloop
from .alloop import ALConfig, DatasetSplit, RunResult
from .core import BinaryMask, ImageGrid, Sample, check_seed, load_dataset, save_dataset
from .crf import CrfParams
from .segmenter import RASTER_MULTIPLE, LossWeights, TrainConfig, TrainingDiverged, save_params
from .selection import SampleScores, descending_ranks, rank_correlation
from .weaklabeler import PerturbSpec, save_ensemble

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
    image_size: int
    shape: str
    noise_level: float
    occlusion_prob: float
    seed: int

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("need at least one sample")
        if self.image_size < 8 or self.image_size % RASTER_MULTIPLE != 0:
            raise ValueError(f"image_size must be a multiple of {RASTER_MULTIPLE} and at least 8")
        if self.shape not in SHAPE_KINDS:
            raise ValueError(f"shape must be one of {SHAPE_KINDS}")
        if not math.isfinite(self.noise_level):
            raise ValueError(f"noise_level must be finite, got {self.noise_level!r}")
        if self.noise_level < 0:
            raise ValueError("noise_level must be nonnegative")
        if not 0.0 <= self.occlusion_prob <= 1.0:
            raise ValueError("occlusion_prob must lie in [0, 1]")
        check_seed(self.seed)


def _draw_mask(rng: np.random.Generator, grid: np.ndarray, shape: str) -> np.ndarray:
    """grid is the (2, size, size) float64 row and column coordinate grid."""
    yy, xx = grid
    size = yy.shape[0]
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


def _render(rng: np.random.Generator, mask: np.ndarray, spec: SyntheticSpec, grid: np.ndarray) -> np.ndarray:
    size = spec.image_size
    img = np.where(mask == 1, FOREGROUND_INTENSITY, BACKGROUND_INTENSITY)
    if rng.uniform() < spec.occlusion_prob:
        yy, xx = grid
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
    grid = np.mgrid[0 : spec.image_size, 0 : spec.image_size].astype(np.float64)
    samples = []
    lo, hi = FG_FRACTION_RANGE
    for i in range(spec.n_samples):
        for _ in range(200):
            mask = _draw_mask(rng, grid, spec.shape)
            frac = mask.mean()
            if lo <= frac <= hi:
                break
        else:
            raise RuntimeError("could not draw a shape with admissible foreground fraction")
        img = _render(rng, mask, spec, grid)
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
    n_initial: int
    n_pool: int
    n_test: int
    al: ALConfig
    with_baseline: bool
    output_dir: str

    def __post_init__(self):
        for name in ("n_initial", "n_pool", "n_test"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")


def load_samples(cfg: ExperimentConfig) -> list[Sample]:
    if isinstance(cfg.dataset, SyntheticSpec):
        return generate_synthetic(cfg.dataset)
    return load_dataset(cfg.dataset)


def check_ids(samples: Sequence[Sample], source: str) -> None:
    """Reject an id that is not ASCII or holds a comma: the reports write
    ids unquoted into ASCII CSV files."""
    for s in samples:
        if not s.id.isascii() or "," in s.id:
            raise ValueError(f"dataset {source}: sample id {s.id!r} must be ASCII without commas; reports write ids unquoted")


def _check_rasters(samples: Sequence[Sample], source: str) -> None:
    """Reject samples a run cannot train on or report: an id ``check_ids``
    rejects, sides not divisible by ``RASTER_MULTIPLE`` (the segmenter's
    two 2x2 pooling stages), more than one raster size, a missing mask
    (the simulated oracle may query any sample), or a mask of another size
    than its image."""
    check_ids(samples, source)
    if not samples:
        return  # make_split reports the empty dataset
    h0, w0 = samples[0].image.values.shape
    for s in samples:
        h, w = s.image.values.shape
        if h % RASTER_MULTIPLE != 0 or w % RASTER_MULTIPLE != 0:
            raise ValueError(
                f"dataset {source}: sample {s.id!r} is {h}x{w}; training needs sides divisible by {RASTER_MULTIPLE}"
            )
        if (h, w) != (h0, w0):
            raise ValueError(
                f"dataset {source}: sample {s.id!r} is {h}x{w} but sample {samples[0].id!r} is {h0}x{w0}; "
                "training needs one raster size"
            )
        if s.ground_truth is None:
            raise ValueError(f"dataset {source}: sample {s.id!r} is {h}x{w} but has no mask; every sample needs one")
        if s.ground_truth.values.shape != (h, w):
            mh, mw = s.ground_truth.values.shape
            raise ValueError(f"dataset {source}: sample {s.id!r} is {h}x{w} but its mask is {mh}x{mw}")


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


# One row per key, in echo order.  The defaults are the desk-scale preset,
# and the only ones: the dataclasses a row sets have no field defaults.
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
    ConfigKey("train.base_epochs", int, 12, ("al.base_epochs",)),
    ConfigKey("train.finetune_epochs", int, 6, ("al.train.epochs",)),
    ConfigKey("train.learning_rate", float, 0.5, ("al.train.learning_rate",)),
    ConfigKey("train.batch_size", int, 2, ("al.train.batch_size",)),
    ConfigKey("train.loss", str, "cross_entropy", ("al.train.loss_kind",)),
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
    ConfigKey("ablation.confidence_filter", bool, True, ("al.confidence_filter",)),
    ConfigKey("ablation.ensemble_crf", bool, True, ("al.ensemble_crf",)),
    ConfigKey("baseline.random", bool, False, ("with_baseline",)),
    ConfigKey("seed", int, 0, ("al.seed", "al.train.seed")),
    ConfigKey("output.dir", str, "out", ("output_dir",)),
)
_KEYS = {key.name: key for key in CONFIG_KEYS}
# the dataclass behind each field path prefix; "" is the experiment itself
_SECTIONS = {
    "": ExperimentConfig,
    "dataset": SyntheticSpec,
    "al": ALConfig,
    "al.train": TrainConfig,
    "al.loss_weights": LossWeights,
    "al.crf_center": CrfParams,
    "al.perturb": PerturbSpec,
}
_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true or false"}


def _build(tree: dict, given: dict, path: str = ""):
    """The dataclass at ``path`` from a nested dict of its field values.  A
    ValueError it raises is re-raised naming the keys in ``given`` that set
    a field its message names, or, when it names none, every key in
    ``given`` that sets one of its fields."""
    kwargs = {name: _build(sub, given, f"{path}.{name}".lstrip(".")) if isinstance(sub, dict) else sub
              for name, sub in tree.items()}
    try:
        return _SECTIONS[path](**kwargs)
    except ValueError as exc:
        named = {name for name in kwargs if re.search(rf"\b{name}\b", str(exc))}
        names = []
        for key in CONFIG_KEYS:
            fields = {f.rpartition(".")[2] for f in key.fields if f.rpartition(".")[0] == path}
            if key.name in given and fields and (not named or fields & named):
                names.append(key.name)
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
    cfg = _build(tree, values if given is None else given)
    need = cfg.n_initial + cfg.n_pool + cfg.n_test
    if kind == SYNTHETIC and cfg.dataset.n_samples < need:  # make_split counts a directory dataset
        raise ValueError(f"dataset has {cfg.dataset.n_samples} samples but the split needs {need} "
                         "(config key dataset.n_samples)")
    return cfg


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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        raise ValueError(f"{path}: not a UTF-8 text file") from None
    return parse_config_text(text)


def _read(cfg: ExperimentConfig, path: str):
    obj = cfg
    for name in path.split("."):
        obj = getattr(obj, name)
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
# reports: ASCII text with "\n" line ends and floats at .12g; _write_lines
# writes every one of them
# ---------------------------------------------------------------------------

RUN_LOG_HEADER = "t,n_strong,n_weak,pool_remaining,labeled_total,test_dsc"
CORRELATION_HEADER = "iteration,sample_id,mean_dsc,r_dsc"
SCORES_CSV_HEADER = "iteration,sample_id,l_dsc,m_dsc,mean_dsc,uncertainty,confidence,selected_as"


def fmt(x: float) -> str:
    """Stable float formatting shared by every report."""
    return format(x, ".12g")


def _write_lines(path: str, lines: Iterable[str]) -> None:
    """Write each line and a "\n" to path as ASCII.  The bytes are built
    before the file is opened, so a line that fails leaves no file."""
    data = "".join(f"{line}\n" for line in lines).encode("ascii")
    with open(path, "wb") as fh:
        fh.write(data)


def write_run_log(path: str, result: RunResult) -> None:
    _write_lines(path, [RUN_LOG_HEADER] + [
        f"{r.iteration},{len(r.strong_ids)},{len(r.weak_ids)},"
        f"{r.pool_remaining},{r.labeled_total},{fmt(r.test_dsc)}"
        for r in result.records
    ])


def write_timings(path: str, result: RunResult) -> None:
    """Wall-clock phase durations; kept out of the CSVs so those stay
    byte-reproducible across runs."""
    _write_lines(path, ["t phase1_ms phase2_ms phase3_ms"] + [
        f"{r.iteration} {r.phase1_ms:.3f} {r.phase2_ms:.3f} {r.phase3_ms:.3f}" for r in result.records
    ])


def write_correlation_pairs(path: str, result: RunResult) -> None:
    _write_lines(path, [CORRELATION_HEADER] + [
        f"{iteration},{sid},{fmt(mean_dsc)},{fmt(r_dsc)}"
        for iteration, sid, mean_dsc, r_dsc in result.correlation_pairs
    ])


def _score_rows(result: RunResult) -> list[Tuple[int, SampleScores, str]]:
    """The scores.csv rows of a run: each round's pool scores, marked
    strong or weak when that round queried the sample, none otherwise."""
    rows = []
    for r in result.records:
        marks = {**dict.fromkeys(r.strong_ids, "strong"), **dict.fromkeys(r.weak_ids, "weak")}
        rows.extend((r.iteration, s, marks.get(s.sample_id, "none")) for s in r.scores)
    return rows


def write_scores_csv(path: str, rows: Sequence[Tuple[int, SampleScores, str]]) -> None:
    """Rows are (iteration, scores, selected_as) with selected_as in
    {strong, weak, none}; a bad mark raises before the file is opened."""
    for _, _, selected_as in rows:
        if selected_as not in ("strong", "weak", "none"):
            raise ValueError(f"bad selected_as value {selected_as!r}")
    _write_lines(path, [SCORES_CSV_HEADER] + [
        f"{iteration},{s.sample_id},{fmt(s.l_dsc)},{fmt(s.m_dsc)},{fmt(s.mean_dsc)},"
        f"{fmt(s.uncertainty)},{fmt(s.confidence)},{selected_as}"
        for iteration, s, selected_as in rows
    ])


def _dice_cells(cells: list[str], header: list[str], columns: list[int]) -> Tuple[float, ...]:
    """The Dice values of one pairs-CSV row, in ``columns`` order."""
    if len(cells) < len(header):
        raise ValueError(f"{len(cells)} cells, but the header has {len(header)}")
    values = []
    for i in columns:
        try:
            value = float(cells[i])
        except ValueError:
            raise ValueError(f"{header[i]} is not a number: {cells[i]!r}") from None
        if not 0.0 <= value <= 1.0:  # also false for nan
            raise ValueError(f"{header[i]} must be a Dice value in [0, 1], got {cells[i]!r}")
        values.append(value)
    return tuple(values)


def read_correlation_pairs(path: str) -> list[Tuple[float, float]]:
    """The (mean_dsc, r_dsc) pairs of a correlation.csv, its columns found
    by header name.  A bad header or row raises naming the file and line."""
    pairs = []
    try:
        with open(path, "r", encoding="ascii") as fh:
            header = fh.readline().strip().split(",")
            columns = []
            for name in ("mean_dsc", "r_dsc"):
                if name not in header:
                    raise ValueError(f"{path}: line 1: the header has no {name} column")
                columns.append(header.index(name))
            for lineno, line in enumerate(fh, 2):
                try:
                    pairs.append(_dice_cells(line.strip().split(","), header, columns))
                except ValueError as exc:
                    raise ValueError(f"{path}: line {lineno}: {exc}") from None
    except UnicodeDecodeError:
        raise ValueError(f"{path}: not an ASCII text file") from None
    return pairs


def _write_summary(out_dir: str, n_pairs: int, coeff: float) -> None:
    path = os.path.join(out_dir, "correlation_summary.csv")
    _write_lines(path, ["n_pairs,coefficient", f"{n_pairs},{fmt(coeff)}"])


def report_correlation(pairs: Sequence[Tuple[float, float]], out_dir: str) -> float:
    """Rank-regression coefficient between quality proxy and real Dice.

    Needs at least 10 pairs and raises when the coefficient is undefined,
    before any file is written.  It then writes correlation_ranks.csv (each
    raw pair with both descending ranks) and correlation_summary.csv under
    ``out_dir``.
    """
    if len(pairs) < 10:
        raise ValueError(f"need at least 10 pairs for a correlation report, got {len(pairs)}")
    mean_dscs = [a for a, _ in pairs]
    r_dscs = [b for _, b in pairs]
    coeff = rank_correlation(mean_dscs, r_dscs)
    os.makedirs(out_dir, exist_ok=True)
    ranks = zip(pairs, descending_ranks(mean_dscs), descending_ranks(r_dscs))
    _write_lines(os.path.join(out_dir, "correlation_ranks.csv"), ["mean_dsc,r_dsc,mean_dsc_rank,r_dsc_rank"] + [
        f"{fmt(a)},{fmt(b)},{fmt(ra)},{fmt(rb)}" for (a, b), ra, rb in ranks
    ])
    _write_summary(out_dir, len(pairs), coeff)
    return coeff


def run_experiment(cfg: ExperimentConfig) -> dict[str, RunResult]:
    """Run the configured experiment (plus the paired random baseline when
    requested) and write all report files under cfg.output_dir."""
    os.makedirs(cfg.output_dir, exist_ok=True)
    if not os.access(cfg.output_dir, os.W_OK):
        raise ValueError(f"output directory {cfg.output_dir!r} is not writable")
    samples = load_samples(cfg)
    _check_rasters(samples, cfg.dataset if isinstance(cfg.dataset, str) else "synthetic")
    split = make_split(samples, cfg)
    del samples  # the samples no split group holds are freed before the loop
    _write_lines(os.path.join(cfg.output_dir, "config_echo.txt"), echo_config(cfg).splitlines())

    arms = {"method": cfg.al}
    if cfg.with_baseline:
        arms["random"] = replace(cfg.al, query_strategy="random")

    results: dict[str, RunResult] = {}
    for name, al_cfg in arms.items():
        out = cfg.output_dir if name == "method" else os.path.join(cfg.output_dir, name)
        os.makedirs(out, exist_ok=True)
        try:
            result = alloop.run_detailed(split, al_cfg)
        except TrainingDiverged as exc:
            raise ValueError(f"{exc} (config key train.learning_rate)") from None
        results[name] = result
        write_run_log(os.path.join(out, "run_log.csv"), result)
        write_timings(os.path.join(out, "timings.txt"), result)
        write_correlation_pairs(os.path.join(out, "correlation.csv"), result)
        save_params(os.path.join(out, "model.ckpt"), result.params)
        if result.ensemble is not None:
            save_ensemble(os.path.join(out, "ensemble.txt"), result.ensemble)
        rows = _score_rows(result)
        if rows:  # a strategy that scores the pool scores at least one sample
            write_scores_csv(os.path.join(out, "scores.csv"), rows)
        pairs = [(m, r) for _, _, m, r in result.correlation_pairs]
        try:
            report_correlation(pairs, out)
        except ValueError:  # too few pairs, or all tied: rank regression undefined
            _write_summary(out, len(pairs), float("nan"))
    return results
