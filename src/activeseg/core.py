"""Raster containers, pool bookkeeping, Dice, and PGM dataset I/O.

Everything downstream (scoring, CRF refinement, the query loop) works on
the value objects defined here.  All containers are immutable after
construction.  A ``PoolState`` is the labeled set and the unlabeled pool
only; the query loop keeps the round number.
"""

from __future__ import annotations

import numbers
import os
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

PROVENANCES = ("initial", "oracle", "pseudo")


def _frozen(values: np.ndarray, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def check_seed(seed) -> None:
    """Reject what numpy cannot seed a generator with: anything but an
    integer >= 0."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")


@dataclass(frozen=True)
class ImageGrid:
    """Single-channel raster with intensities normalized to [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values, np.float64))
        v = self.values
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError(f"image must be a nonempty 2-D grid, got shape {v.shape}")
        if not np.all(np.isfinite(v)) or v.min() < 0.0 or v.max() > 1.0:
            raise ValueError("image intensities must be finite and within [0, 1]")

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class BinaryMask:
    """Per-pixel labels: 0 background, 1 foreground."""

    values: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.values)
        if not ((raw == 0) | (raw == 1)).all():
            raise ValueError("mask values must be strictly binary")
        object.__setattr__(self, "values", _frozen(raw, np.uint8))
        if self.values.ndim != 2 or min(self.values.shape) < 1:
            raise ValueError(f"mask must be a nonempty 2-D grid, got shape {self.values.shape}")

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class ProbMap:
    """Per-pixel foreground probability in [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values, np.float64))
        v = self.values
        if v.ndim != 2 or min(v.shape) < 1:
            raise ValueError(f"probability map must be a nonempty 2-D grid, got shape {v.shape}")
        if not np.all(np.isfinite(v)) or v.min() < 0.0 or v.max() > 1.0:
            raise ValueError("probabilities must be finite and within [0, 1]")

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class Sample:
    """One dataset element; ground truth is optional for unlabeled pools."""

    id: str
    image: ImageGrid
    ground_truth: Optional[BinaryMask] = None

    def require_ground_truth(self) -> BinaryMask:
        """Ground-truth accessor used by the simulated oracle and evaluation.

        All ground-truth reads in the pipeline go through here, which lets
        tests verify that pseudo-labeling never touches stored labels.
        """
        if self.ground_truth is None:
            raise ValueError(f"sample {self.id!r} carries no ground truth")
        return self.ground_truth


@dataclass(frozen=True)
class LabeledEntry:
    sample: Sample
    mask: BinaryMask
    provenance: str

    def __post_init__(self):
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if (self.mask.height, self.mask.width) != (self.sample.image.height, self.sample.image.width):
            raise ValueError(f"label dimensions do not match image for sample {self.sample.id!r}")


@dataclass(frozen=True)
class PoolState:
    """Labeled set and unlabeled pool."""

    labeled: tuple[LabeledEntry, ...]
    unlabeled: tuple[Sample, ...]

    def __post_init__(self):
        labeled_ids = [e.sample.id for e in self.labeled]
        unlabeled_ids = [s.id for s in self.unlabeled]
        all_ids = labeled_ids + unlabeled_ids
        if len(set(all_ids)) != len(all_ids):
            raise ValueError("sample ids must be unique and the two sets disjoint")

    def provenance_counts(self) -> dict[str, int]:
        counts = {p: 0 for p in PROVENANCES}
        for entry in self.labeled:
            counts[entry.provenance] += 1
        return counts


def dice(a: BinaryMask, b: BinaryMask) -> float:
    """Dice overlap 2|A∩B| / (|A|+|B|) over foreground pixels.

    Both masks empty counts as perfect agreement (1.0); exactly one empty
    counts as total disagreement (0.0).
    """
    if (a.height, a.width) != (b.height, b.width):
        raise ValueError(f"mask dimensions differ: {a.values.shape} vs {b.values.shape}")
    total = int(a.values.sum()) + int(b.values.sum())
    if total == 0:
        return 1.0
    inter = int((a.values & b.values).sum())
    return 2.0 * inter / total


def binarize(p: ProbMap) -> BinaryMask:
    """Threshold a probability map; pixels with p >= 0.5 become foreground."""
    return BinaryMask((p.values >= 0.5).astype(np.uint8))


def move_to_labeled(
    pool: PoolState,
    ids: Sequence[str],
    masks: Sequence[BinaryMask],
    provenance: str,
) -> PoolState:
    """Move samples from the unlabeled pool into the labeled set.

    Pure transition: the input pool is untouched.
    """
    if len(ids) != len(masks):
        raise ValueError(f"got {len(ids)} ids but {len(masks)} masks")
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate ids in a single move")
    by_id = {s.id: s for s in pool.unlabeled}
    missing = [i for i in ids if i not in by_id]
    if missing:
        raise ValueError(f"ids not in unlabeled pool: {missing}")
    new_entries = tuple(
        LabeledEntry(sample=by_id[i], mask=m, provenance=provenance) for i, m in zip(ids, masks)
    )
    moved = set(ids)
    remaining = tuple(s for s in pool.unlabeled if s.id not in moved)
    return PoolState(labeled=pool.labeled + new_entries, unlabeled=remaining)


def pad_to_multiple(values: np.ndarray, multiple: int) -> tuple[np.ndarray, tuple[int, int]]:
    """Edge-replicate pad a 2-D array so both dimensions divide `multiple`.

    Returns the padded array and the original (height, width) for cropping
    predictions back.
    """
    h, w = values.shape
    ph = (-h) % multiple
    pw = (-w) % multiple
    if ph == 0 and pw == 0:
        return values, (h, w)
    return np.pad(values, ((0, ph), (0, pw)), mode="edge"), (h, w)


# ---------------------------------------------------------------------------
# Dataset directory layout: images/<id>.pgm and masks/<id>.pgm (8-bit P5),
# optional manifest.txt of ids; otherwise lexicographic listing order.
# ---------------------------------------------------------------------------


def read_pgm(path: str) -> np.ndarray:
    """Read a binary (P5) 8-bit PGM into a uint8 array."""
    with open(path, "rb") as fh:
        data = fh.read()
    tokens: list[bytes] = []
    pos = 0
    while len(tokens) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        if pos == len(data):
            raise ValueError(f"{path}: PGM header ends after {len(tokens)} of its 4 fields")
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        tokens.append(data[start:pos])
    if tokens[0] != b"P5":
        raise ValueError(f"{path}: not a binary PGM (magic {tokens[0]!r})")
    if not all(t.isdigit() for t in tokens[1:]):
        raise ValueError(f"{path}: PGM width, height and maxval must be integers, got {tokens[1:]}")
    width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    if maxval != 255:
        raise ValueError(f"{path}: only 8-bit PGM supported (maxval {maxval})")
    if width == 0 or height == 0:
        raise ValueError(f"{path}: PGM width and height must be positive, got {width}x{height}")
    pos += 1  # single whitespace byte after the header
    if len(data) - pos < height * width:
        raise ValueError(f"{path}: a {width}x{height} PGM needs {height * width} raster bytes, "
                         f"the file has {max(0, len(data) - pos)}")
    raster = np.frombuffer(data, dtype=np.uint8, count=height * width, offset=pos)
    return raster.reshape(height, width).copy()


def write_pgm(path: str, values: np.ndarray) -> None:
    arr = np.asarray(values, dtype=np.uint8)
    if arr.ndim != 2:
        raise ValueError("PGM writer expects a 2-D array")
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(arr.tobytes())


def image_from_pgm(path: str) -> ImageGrid:
    return ImageGrid(read_pgm(path).astype(np.float64) / 255.0)


def mask_from_pgm(path: str) -> BinaryMask:
    return BinaryMask((read_pgm(path) >= 128).astype(np.uint8))


def image_to_pgm(path: str, image: ImageGrid) -> None:
    write_pgm(path, np.rint(image.values * 255.0).astype(np.uint8))


def mask_to_pgm(path: str, mask: BinaryMask) -> None:
    write_pgm(path, mask.values * np.uint8(255))


def dataset_ids(root: str) -> list[str]:
    """The sample ids of a dataset directory: the lines of its manifest.txt,
    which must be ASCII, or else the images/ listing in lexicographic order."""
    manifest = os.path.join(root, "manifest.txt")
    if os.path.exists(manifest):
        with open(manifest, "rb") as fh:
            data = fh.read()
        ids = []
        for lineno, raw in enumerate(data.splitlines(), 1):
            try:
                line = raw.decode("ascii").strip()
            except UnicodeDecodeError:
                raise ValueError(f"{manifest}: line {lineno}: not ASCII text") from None
            if line:
                ids.append(line)
        return ids
    image_dir = os.path.join(root, "images")
    names = [n[:-4] for n in os.listdir(image_dir) if n.endswith(".pgm")]
    return sorted(names)


def load_dataset(root: str) -> list[Sample]:
    """Load samples from `root/images` and, when present, `root/masks`."""
    samples = []
    for sid in dataset_ids(root):
        image = image_from_pgm(os.path.join(root, "images", f"{sid}.pgm"))
        mask_path = os.path.join(root, "masks", f"{sid}.pgm")
        mask = mask_from_pgm(mask_path) if os.path.exists(mask_path) else None
        samples.append(Sample(id=sid, image=image, ground_truth=mask))
    return samples


def save_dataset(root: str, samples: Sequence[Sample]) -> None:
    os.makedirs(os.path.join(root, "images"), exist_ok=True)
    os.makedirs(os.path.join(root, "masks"), exist_ok=True)
    with open(os.path.join(root, "manifest.txt"), "w", encoding="ascii") as fh:
        for s in samples:
            fh.write(s.id + "\n")
    for s in samples:
        image_to_pgm(os.path.join(root, "images", f"{s.id}.pgm"), s.image)
        if s.ground_truth is not None:
            mask_to_pgm(os.path.join(root, "masks", f"{s.id}.pgm"), s.ground_truth)
