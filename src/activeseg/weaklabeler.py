"""CRF ensemble weak labeler: perturbed copies of a reference CRF vote on
each pseudo mask, and a greedy procedure re-centers the ensemble on its
best member when the vote underperforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .core import BinaryMask, ImageGrid, ProbMap, dice
from .crf import PARAM_TYPES, CrfParams, infer, usable_scale


@dataclass(frozen=True)
class PerturbSpec:
    """How far ensemble members may wander from the reference parameters."""

    relative_sigma: float
    floor: float
    perturb_steps: bool

    def __post_init__(self):
        if not 0.0 <= self.relative_sigma < 0.5:
            raise ValueError("relative_sigma must lie in [0, 0.5) to stay sharp")
        if not math.isfinite(self.floor):
            raise ValueError(f"floor must be finite, got {self.floor!r}")
        if self.floor <= 0:
            raise ValueError("floor must be positive")
        if not usable_scale(self.floor):  # a floored scale must pass CrfParams
            raise ValueError(f"floor must make 1/(2*floor**2) a normal float32, got {self.floor!r}")


@dataclass(frozen=True)
class CrfEnsemble:
    """An odd number of CRF configurations plus the center, perturbation
    spec and seed they were drawn from."""

    members: Tuple[CrfParams, ...]
    center: CrfParams
    spec: PerturbSpec
    rng_seed: int

    def __post_init__(self):
        m = len(self.members)
        if m < 1 or m % 2 == 0:
            raise ValueError(f"ensemble size must be odd and >= 1, got {m}")


def perturb(center: CrfParams, spec: PerturbSpec, rng: np.random.Generator) -> CrfParams:
    """One member: every continuous hyperparameter drawn from a sharp normal
    around its center value and floored to stay positive.  A center value of
    zero (a kernel switched off) stays zero; its draw is still taken, so the
    other fields get the draws they would get otherwise."""
    fields = {}
    for name, kind in PARAM_TYPES.items():
        if kind is float:
            c = getattr(center, name)
            draw = float(rng.normal(c, spec.relative_sigma * c))
            fields[name] = max(spec.floor, draw) if c != 0 else 0.0
    steps = center.steps
    if spec.perturb_steps:
        steps = max(1, int(round(rng.normal(center.steps, spec.relative_sigma * center.steps))))
    return CrfParams(steps=steps, **fields)


def build_ensemble(center: CrfParams, m: int, spec: PerturbSpec, seed: int) -> CrfEnsemble:
    """M independent perturbations, one deterministic substream per member."""
    if m < 1 or m % 2 == 0:
        raise ValueError(f"ensemble size must be odd and >= 1, got {m}")
    streams = np.random.SeedSequence(seed).spawn(m)
    members = tuple(perturb(center, spec, np.random.default_rng(s)) for s in streams)
    return CrfEnsemble(members=members, center=center, spec=spec, rng_seed=seed)


def majority_vote(masks: Sequence[BinaryMask]) -> BinaryMask:
    """Per-pixel label held by more than half of an odd number of masks."""
    if len(masks) % 2 == 0 or len(masks) == 0:
        raise ValueError(f"majority voting needs an odd number of masks, got {len(masks)}")
    shapes = {m.values.shape for m in masks}
    if len(shapes) != 1:
        raise ValueError(f"masks disagree in shape: {shapes}")
    counts = np.zeros(masks[0].values.shape, dtype=np.int64)
    for m in masks:
        counts += m.values
    return _vote(counts, len(masks))


def _vote(counts: np.ndarray, m: int) -> BinaryMask:
    """The label more than half of m voters gave, from foreground counts."""
    return BinaryMask((2 * counts > m).astype(np.uint8))


def refine(ensemble: CrfEnsemble, image: ImageGrid, p: ProbMap) -> BinaryMask:
    """Majority vote over the members' mean-field decodings of (image, p).

    The members decode in ensemble order until every pixel holds
    floor(M / 2) + 1 equal votes.  No later member can change such a vote,
    so the mask equals majority_vote over all M decodings, and the members
    left out are never decoded.
    """
    m = len(ensemble.members)
    need = m // 2 + 1
    counts = np.zeros(image.values.shape, dtype=np.int64)
    for decoded, member in enumerate(ensemble.members, start=1):
        counts += infer(image, p, member).values
        if decoded >= need and np.all((counts >= need) | (counts <= decoded - need)):
            break
    return _vote(counts, m)


def _mean_dice(masks: Sequence[BinaryMask], truths: Sequence[BinaryMask]) -> float:
    return float(np.mean([dice(m, t) for m, t in zip(masks, truths)]))


def greedy_finetune(
    ensemble: CrfEnsemble,
    validation: Sequence[Tuple[ImageGrid, ProbMap, BinaryMask]],
    rounds: int,
) -> CrfEnsemble:
    """Re-center the ensemble on its best member until the vote beats the
    mean member Dice on the validation set, scoring at most `rounds`
    ensembles: the input and the re-centered ones drawn with its spec.

    Keep-best semantics: of all candidate ensembles evaluated, the one with
    the highest validation vote Dice is returned, so the procedure never
    regresses below the input ensemble.
    """
    if len(validation) == 0:
        raise ValueError("greedy fine-tuning needs a nonempty validation set")
    if rounds < 0:
        raise ValueError("rounds must be nonnegative")

    truths = [gt for _, _, gt in validation]
    candidate = ensemble
    best = ensemble
    best_dice = -1.0
    for r in range(rounds):
        member_masks = [
            [infer(img, p, member) for img, p, _ in validation]
            for member in candidate.members
        ]
        member_dices = [_mean_dice(masks, truths) for masks in member_masks]
        vote_masks = [
            majority_vote([member_masks[k][i] for k in range(len(candidate.members))])
            for i in range(len(validation))
        ]
        vote_dice = _mean_dice(vote_masks, truths)
        if vote_dice > best_dice:
            best, best_dice = candidate, vote_dice
        if vote_dice >= float(np.mean(member_dices)) or r + 1 == rounds:
            break
        new_center = candidate.members[int(np.argmax(member_dices))]
        regen_seed = int(np.random.SeedSequence([ensemble.rng_seed, r + 1]).generate_state(1)[0])
        candidate = build_ensemble(new_center, len(candidate.members), ensemble.spec, regen_seed)
    return best


# ---------------------------------------------------------------------------
# snapshot format: enough to reproduce refine bit-exactly
# ---------------------------------------------------------------------------

_SNAPSHOT_MAGIC = "crf-ensemble v1"


def _snapshot_key(field: str) -> str:
    """The snapshot key of a CrfParams field: gaussian_sdims is gaussian.sdims."""
    return field.replace("_", ".", 1)


def save_ensemble(path: str, ensemble: CrfEnsemble) -> None:
    lines = [
        _SNAPSHOT_MAGIC,
        f"seed={ensemble.rng_seed}",
        f"members={len(ensemble.members)}",
        "[perturb]",
        f"relative_sigma={ensemble.spec.relative_sigma!r}",
        f"floor={ensemble.spec.floor!r}",
        f"perturb_steps={ensemble.spec.perturb_steps}",
    ]
    sections = [("center", ensemble.center)] + [(f"member {k}", m) for k, m in enumerate(ensemble.members)]
    for name, params in sections:
        lines.append(f"[{name}]")
        lines.extend(f"{_snapshot_key(field)}={getattr(params, field)!r}" for field in PARAM_TYPES)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_ensemble(path: str) -> CrfEnsemble:
    """Read a snapshot written by save_ensemble.  A malformed snapshot raises
    a ValueError naming the file and the missing or bad entry."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return _parse_snapshot(fh.read().splitlines())
    except UnicodeDecodeError:  # binary data, which no magic line matches either
        raise ValueError(f"{path}: not an ensemble snapshot") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _parse_snapshot(lines: list[str]) -> CrfEnsemble:
    if not lines or lines[0] != _SNAPSHOT_MAGIC:
        raise ValueError("not an ensemble snapshot")
    sections: dict[str, dict[str, str]] = {"": {}}
    current = ""
    for line in lines[1:]:
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            sections[current] = {}
        elif line.strip():
            key, _, value = line.partition("=")
            sections[current][key.strip()] = value.strip()

    def entry(name: str, key: str, parse):
        if name not in sections:
            raise ValueError(f"missing section [{name}]")
        fields = sections[name]
        where = f"section [{name}]" if name else "the header"
        if key not in fields:
            raise ValueError(f"missing key {key}= in {where}")
        try:
            return parse(fields[key])
        except (KeyError, ValueError):
            raise ValueError(f"bad value {key}={fields[key]!r} in {where}") from None

    def params(name: str) -> CrfParams:
        values = {field: entry(name, _snapshot_key(field), kind) for field, kind in PARAM_TYPES.items()}
        try:
            return CrfParams(**values)
        except ValueError as exc:
            raise ValueError(f"section [{name}]: {exc}") from None

    seed = entry("", "seed", int)
    m = entry("", "members", int)
    spec = PerturbSpec(
        relative_sigma=entry("perturb", "relative_sigma", float),
        floor=entry("perturb", "floor", float),
        perturb_steps=entry("perturb", "perturb_steps", {"True": True, "False": False}.__getitem__),
    )
    center = params("center")
    members = tuple(params(f"member {k}") for k in range(m))
    return CrfEnsemble(members=members, center=center, spec=spec, rng_seed=seed)
