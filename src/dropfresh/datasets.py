"""Dataset loading, synthetic generation, augmentation, and batch plans.

Randomness is split into named streams keyed off the run seed, so shuffling,
augmentation, and synthetic sampling never share draws. Augmentation is keyed
by (epoch seed, example id): an example's transform does not depend on which
batch it landed in. Its draws are a SplitMix64 counter hash of (epoch seed, id,
draw index), computed over whole batches; flips are exact integer arithmetic,
while noise (Box-Muller) also depends on the platform's log1p, cos and sin.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, Union

import numpy as np

_BATCH_STREAM = 2
_AUGMENT_STREAM = 3
_GEN_STREAM = 4


class DatasetError(ValueError):
    pass


class BadMagicError(DatasetError):
    pass


class TruncatedPayloadError(DatasetError):
    pass


class CountMismatchError(DatasetError):
    pass


class Dataset:
    """Integer labels plus an (n, d) feature matrix ``stored``: float64, or with ``pixels`` the
    uint8 pixels of IDX data, which ``rows`` and ``features`` read as float64; ids are rows."""

    def __init__(self, features: np.ndarray, labels: np.ndarray, class_count: int,
                 image_shape: tuple[int, int, int] | None = None, pixels: bool = False) -> None:
        self.stored = np.asarray(features, dtype=None if pixels else np.float64)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.class_count, self.image_shape, self.pixels = class_count, image_shape, pixels
        if pixels and self.stored.dtype != np.uint8:
            raise DatasetError(f"pixels must be uint8, got {self.stored.dtype}")
        if self.stored.ndim != 2 or self.stored.shape[0] < 1:
            raise DatasetError(f"features must be (n, d) with n >= 1, got {self.stored.shape}")
        if self.labels.shape != (self.n,):
            raise DatasetError(f"labels shape {self.labels.shape} != ({self.n},)")
        if not pixels and not np.isfinite(self.stored).all():
            raise DatasetError("non-finite feature values")
        _check_labels(self.labels, self.class_count)
        if self.image_shape is not None:
            h, w, c = self.image_shape
            if h * w * c != self.dim:
                raise DatasetError(
                    f"image_shape {self.image_shape} does not flatten to {self.dim} columns")

    @property
    def n(self) -> int:
        return self.stored.shape[0]

    @property
    def dim(self) -> int:
        return self.stored.shape[1]

    @property
    def features(self) -> np.ndarray:
        """The float64 (n, d) matrix; pixels are converted, all of them, on each access."""
        return self.as_float(self.stored)

    def rows(self, ids: Union[Sequence[int], slice]) -> np.ndarray:
        """float64 rows ``ids``."""
        return self.as_float(self.stored[ids])

    def as_float(self, stored_rows: np.ndarray) -> np.ndarray:
        """Rows of ``stored`` as float64: pixels divided by 255, floats as they are."""
        return np.divide(stored_rows, 255.0, dtype=np.float64) if self.pixels else stored_rows

    def take(self, *row_sets: Union[Sequence[int], slice]) -> list["Dataset"]:
        """A dataset of each row set's rows, re-indexed from zero; ``slice(None)`` is every row."""
        return [Dataset(self.stored[ids], self.labels[ids], self.class_count, self.image_shape,
                        pixels=self.pixels) for ids in row_sets]


def _check_labels(labels: np.ndarray, class_count: int) -> None:
    if class_count < 2:
        raise DatasetError(f"class_count must be >= 2, got {class_count}")
    if labels.min() < 0 or labels.max() >= class_count:
        raise DatasetError(
            f"labels must lie in [0, {class_count}), found [{labels.min()}, {labels.max()}]")


_IDX_IMAGE_MAGIC = 0x00000803
_IDX_LABEL_MAGIC = 0x00000801


class IdxPair:
    """A big-endian IDX image/label pair, checked from the image file's header and size and the
    whole label file when built; ``take`` reads the pixels once for all its row sets."""

    def __init__(self, image_path: Union[str, Path], label_path: Union[str, Path],
                 class_count: int | None = None) -> None:
        class_count = 10 if class_count is None else class_count  # MNIST's ten digits
        dims = []
        for path, magic, rank in ((Path(image_path), _IDX_IMAGE_MAGIC, 3),
                                  (Path(label_path), _IDX_LABEL_MAGIC, 1)):
            header = 4 + 4 * rank
            with path.open("rb") as fh:
                raw = fh.read(header if rank == 3 else -1)  # the label file is read whole
            if len(raw) < 4:
                raise TruncatedPayloadError(f"{path}: file shorter than its 4-byte magic")
            found = int.from_bytes(raw[:4], "big")
            if found != magic:
                raise BadMagicError(f"{path}: magic 0x{found:08x}, expected 0x{magic:08x}")
            if len(raw) < header:
                raise TruncatedPayloadError(f"{path}: file shorter than its {header}-byte header")
            dims += [int.from_bytes(raw[4 + 4 * i:8 + 4 * i], "big") for i in range(rank)]
            expected, size = math.prod(dims[-rank:]), path.stat().st_size - header
            if size != expected:
                raise TruncatedPayloadError(
                    f"{path}: expected {expected} payload bytes, found {size}")
        n_img, height, width, n_lbl = dims
        if n_img != n_lbl:
            raise CountMismatchError(
                f"{image_path} holds {n_img} images but {label_path} holds {n_lbl} labels")
        if n_img < 1:
            raise DatasetError(f"{image_path}: empty dataset")
        self.labels = np.frombuffer(raw, np.uint8, offset=8).astype(np.int64)  # label file
        _check_labels(self.labels, class_count)
        self.image_path, self.class_count = Path(image_path), class_count
        self.n, self.dim, self.image_shape = n_img, height * width, (height, width, 1)

    def take(self, *row_sets: Union[Sequence[int], slice]) -> list[Dataset]:
        """``Dataset.take`` of the uint8 pixels, read once for all the row sets."""
        pixels = np.fromfile(self.image_path, np.uint8, offset=16).reshape(self.n, self.dim)
        return [Dataset(pixels[ids], self.labels[ids], self.class_count, self.image_shape,
                        pixels=True) for ids in row_sets]


def load_idx(image_path: Union[str, Path], label_path: Union[str, Path],
             class_count: int | None = None) -> Dataset:
    """Big-endian IDX image/label pair; uint8 pixels, read as float64 in [0, 1]."""
    return IdxPair(image_path, label_path, class_count).take(slice(None))[0]


def load_csv(path: Union[str, Path], class_count: int | None = None) -> Dataset:
    """Rows of ``label,x0,x1,...`` with a fixed feature width; no header."""
    path = Path(path)
    labels: list[int] = []
    rows: list[list[float]] = []
    width: int | None = None
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        cells = line.split(",")
        if width is None:
            width = len(cells) - 1
            if width < 1:
                raise DatasetError(f"{path}:{lineno}: need a label plus at least one feature")
        elif len(cells) - 1 != width:
            raise DatasetError(
                f"{path}:{lineno}: expected {width} feature columns, found {len(cells) - 1}")
        try:
            label = int(cells[0])
        except ValueError:
            raise DatasetError(f"{path}:{lineno}: non-integer label {cells[0]!r}") from None
        if not 0 <= label < sys.maxsize:  # the class count, label + 1, must fit in int64
            raise DatasetError(f"{path}:{lineno}: " + (
                f"negative label {label}" if label < 0 else f"label above {sys.maxsize - 1}"))
        try:
            rows.append([float(c) for c in cells[1:]])
        except ValueError:
            raise DatasetError(f"{path}:{lineno}: non-numeric feature value") from None
        labels.append(label)
    if not rows:
        raise DatasetError(f"{path}: no data rows")
    resolved = max(2, max(labels) + 1) if class_count is None else class_count
    return Dataset(np.array(rows, dtype=np.float64), np.array(labels, dtype=np.int64), resolved)


@dataclass(frozen=True)
class SyntheticSpec:
    """Gaussian class blobs: per-class means, shared or per-class stds, counts."""

    means: tuple[tuple[float, ...], ...]
    stds: tuple[float, ...]
    counts: tuple[int, ...]
    seed: int
    # the shape of the data it generates, known without generating it
    n = property(lambda self: sum(self.counts))
    dim = property(lambda self: len(self.means[0]))
    class_count = property(lambda self: len(self.counts))

    def __post_init__(self) -> None:
        if not self.counts or not all(1 <= c <= sys.maxsize for c in self.counts):
            raise DatasetError(f"counts must all be in [1, {sys.maxsize}], got {self.counts}")
        if len(self.means) != len(self.counts):
            raise DatasetError(
                f"counts must have one entry per class mean ({len(self.means)}), got {self.counts}")
        if len(self.stds) not in (1, len(self.counts)):
            raise DatasetError(
                f"stds must have 1 or {len(self.counts)} entries, got {len(self.stds)}")
        if not all(s >= 0 for s in self.stds):
            raise DatasetError(f"stds must be >= 0, got {self.stds}")
        dims = {len(m) for m in self.means}
        if len(dims) != 1 or dims == {0}:
            raise DatasetError("class means must share one non-zero dimension")


def gen_gaussian(spec: SyntheticSpec) -> Dataset:
    """Samples class blobs in declaration order; ids group by class."""
    rng = np.random.default_rng([int(spec.seed), _GEN_STREAM])
    means = np.asarray(spec.means, dtype=np.float64)
    stds = np.asarray(spec.stds, dtype=np.float64)
    if stds.shape == (1,):
        stds = np.repeat(stds, len(spec.counts))
    blocks, labels = [], []
    for cls, count in enumerate(spec.counts):
        noise = rng.standard_normal(size=(count, means.shape[1]))
        with np.errstate(over="ignore", invalid="ignore"):  # Dataset rejects non-finite values
            blocks.append(means[cls] + stds[cls] * noise)
        labels.append(np.full(count, cls, dtype=np.int64))
    return Dataset(np.concatenate(blocks), np.concatenate(labels), spec.class_count)


@dataclass(frozen=True)
class NoAugment:
    pass


@dataclass(frozen=True)
class GaussianNoise:
    sigma: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.sigma < math.inf:  # NaN fails both
            kind = "finite" if self.sigma > 0 else ">= 0"
            raise DatasetError(f"sigma must be {kind}, got {self.sigma}")


@dataclass(frozen=True)
class HorizontalFlip:
    prob: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.prob <= 1.0:
            raise DatasetError(f"prob must be in [0, 1], got {self.prob}")


AugmentPolicy = Union[NoAugment, GaussianNoise, HorizontalFlip]


def epoch_seed(run_seed: int, epoch: int) -> int:
    """Per-epoch augmentation key, shared by every example that epoch."""
    seq = np.random.SeedSequence([int(run_seed), _AUGMENT_STREAM, int(epoch)])
    return int(seq.generate_state(1)[0])


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a uint64 array; array arithmetic wraps mod 2**64."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _uniforms(epoch_key: int, ids: np.ndarray, count: int) -> np.ndarray:
    """(len(ids), count) 53-bit uniforms in [0, 1); entry [r, j] hashes (epoch_key, ids[r], j)."""
    golden = np.uint64(0x9E3779B97F4A7C15)  # SplitMix64's counter increment
    streams = _mix(_mix(np.array([epoch_key], dtype=np.uint64)) + ids.astype(np.uint64) * golden)
    counters = np.arange(1, count + 1, dtype=np.uint64) * golden
    return (_mix(streams[:, None] + counters) >> np.uint64(11)) * 2.0 ** -53


def epoch_batches(active_ids: Sequence[int], batch_size: int, run_seed: int,
                  epoch: int) -> list[np.ndarray]:
    """Shuffled batch plan: int64 slices of one permutation; the tail may be short."""
    if batch_size < 1:
        raise DatasetError(f"batch_size must be >= 1, got {batch_size}")
    ids = np.asarray(active_ids, dtype=np.int64)
    if ids.size == 0:
        raise DatasetError("active_ids must not be empty")
    rng = np.random.default_rng([int(run_seed), _BATCH_STREAM, int(epoch)])
    order = rng.permutation(ids)
    return [order[lo:lo + batch_size] for lo in range(0, len(order), batch_size)]


@dataclass(eq=False)
class Batch:
    ids: np.ndarray
    features: np.ndarray
    labels: np.ndarray


def make_batch(dataset: Dataset, ids: Sequence[int], policy: AugmentPolicy,
               epoch_key: int) -> Batch:
    """Materialize one batch with one gather and transform row r keyed by (epoch_key, ids[r]):
    flips while the rows are still stored (they only move values), noise after ``as_float``."""
    ids = np.asarray(ids, dtype=np.int64)
    rows = dataset.stored[ids]
    if isinstance(policy, HorizontalFlip):
        if dataset.image_shape is None:
            raise DatasetError("horizontal flip needs image-shaped data")
        flips = _uniforms(epoch_key, ids, 1)[:, 0] < policy.prob
        images = rows[flips].reshape(-1, *dataset.image_shape)
        rows[flips] = images[:, :, ::-1].reshape(-1, dataset.dim)
    elif not isinstance(policy, (NoAugment, GaussianNoise)):
        raise DatasetError(f"unknown augmentation policy: {policy!r}")
    features = dataset.as_float(rows)
    if isinstance(policy, GaussianNoise) and policy.sigma > 0.0:
        half = (dataset.dim + 1) // 2
        u = _uniforms(epoch_key, ids, 2 * half)
        radius, angle = np.sqrt(-2.0 * np.log1p(-u[:, :half])), 2.0 * np.pi * u[:, half:]
        normals = np.hstack([radius * np.cos(angle), radius * np.sin(angle)])
        features += policy.sigma * normals[:, :dataset.dim]
    return Batch(ids=ids, features=features, labels=dataset.labels[ids])
