"""Dataset container and loaders: synthetic Gaussian blobs, IDX pairs, CSV."""

from __future__ import annotations

import csv as csv_module
import math
import numbers
import struct
import sys
from dataclasses import dataclass

import numpy as np

from . import seeding
from .errors import DatasetError, DomainError


def _is_int(v):
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_number(v):
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _read_only(a):
    """The array `a`, read-only: itself if it already is, else a read-only
    view, so an array a caller passes in keeps its flags."""
    if a.flags.writeable:
        a = a.view()
        a.flags.writeable = False
    return a


def _finite(text):
    """The number a text field holds; ValueError unless it is finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


@dataclass(frozen=True)
class Dataset:
    """Flat float64 samples with integer class labels, both read-only arrays.

    sample_shape records the natural shape of one sample, for example
    (1, 8, 8) for single-channel images; a 2-D (h, w) is stored as (1, h, w).
    Its product always equals the feature count.
    """

    samples: np.ndarray
    labels: np.ndarray
    class_count: int
    sample_shape: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "samples", _read_only(np.asarray(self.samples, dtype=np.float64)))
        object.__setattr__(self, "labels", _read_only(np.asarray(self.labels, dtype=np.int64)))
        shape = tuple(self.sample_shape)
        if not all(_is_int(d) and d >= 0 for d in shape):
            raise DatasetError(f"sample_shape {shape} must list integers >= 0")
        shape = tuple(int(d) for d in shape)
        object.__setattr__(self, "sample_shape", (1, *shape) if len(shape) == 2 else shape)
        if self.samples.ndim != 2:
            raise DatasetError(f"samples must be 2-D, got shape {self.samples.shape}")
        if self.labels.shape != (self.samples.shape[0],):
            raise DatasetError("labels must be one integer per sample")
        if int(np.prod(self.sample_shape)) != self.samples.shape[1]:
            raise DatasetError(
                f"sample_shape {self.sample_shape} does not cover "
                f"{self.samples.shape[1]} features"
            )
        if self.class_count < 2:
            raise DatasetError("datasets need at least two classes")
        if self.samples.shape[0] and (
            self.labels.min() < 0 or self.labels.max() >= self.class_count
        ):
            raise DatasetError(f"labels must lie in [0, {self.class_count})")

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    def take(self, idx) -> "Dataset":
        idx = np.asarray(idx)
        return Dataset(self.samples[idx], self.labels[idx], self.class_count, self.sample_shape)

    def sample_shape_for_net(self):
        """Shape to hand conv-first networks; None for flat data."""
        return self.sample_shape if len(self.sample_shape) == 3 else None


@dataclass(frozen=True)
class DataSplit:
    train: Dataset
    test: Dataset


def synthetic_blobs(classes, dim, n, seed, *, noise=1.0, sample_shape=None) -> DataSplit:
    """Gaussian class blobs, generated normalized; fixed 80/20 split."""
    if classes < 2 or dim < 1 or n < classes:
        raise DomainError("blobs need classes >= 2, dim >= 1, n >= classes")
    if not (_is_number(noise) and 0 <= noise <= sys.float_info.max):  # NaN fails it too
        raise DomainError(f"blob noise must be a finite number >= 0, not {noise!r}")
    rng = seeding.stream(seed, seeding.BLOBS)
    centers = rng.normal(0.0, 1.0, (classes, dim))
    labels = rng.permutation(np.arange(n) % classes)
    samples = centers[labels] + rng.normal(0.0, noise, (n, dim))
    shape = tuple(sample_shape) if sample_shape is not None else (dim,)
    if int(np.prod(shape)) != dim:
        raise DomainError(f"sample_shape {shape} does not cover dim {dim}")
    split = int(0.8 * n)
    train = Dataset(samples[:split], labels[:split], classes, shape)
    test = Dataset(samples[split:], labels[split:], classes, shape)
    return DataSplit(train, test)


def _read_idx(path) -> np.ndarray:
    """Parse one big-endian IDX file of unsigned bytes."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 4:
        raise DatasetError(f"{path}: truncated header at byte 0 (need 4 magic bytes)")
    if raw[0] != 0 or raw[1] != 0:
        raise DatasetError(f"{path}: bad magic at byte 0 (expected two zero bytes)")
    if raw[2] != 0x08:
        raise DatasetError(f"{path}: unsupported type code 0x{raw[2]:02x} at byte 2")
    ndim = raw[3]
    if ndim < 1:
        raise DatasetError(f"{path}: zero-dimensional payload declared at byte 3")
    header_end = 4 + 4 * ndim
    if len(raw) < header_end:
        raise DatasetError(f"{path}: truncated dimension table at byte {len(raw)}")
    dims = struct.unpack_from(f">{ndim}I", raw, 4)
    expected = int(np.prod(dims))
    if len(raw) - header_end != expected:
        raise DatasetError(
            f"{path}: expected {expected} payload bytes at byte {header_end}, "
            f"found {len(raw) - header_end}"
        )
    return np.frombuffer(raw, dtype=np.uint8, offset=header_end).reshape(dims)


def _idx_pair(images_path, labels_path):
    images = _read_idx(images_path)
    labels = _read_idx(labels_path)
    if images.ndim < 2:
        raise DatasetError(f"{images_path}: image payload needs at least 2 dims")
    if labels.ndim != 1:
        raise DatasetError(f"{labels_path}: label payload must be 1-D")
    if images.shape[0] != labels.shape[0]:
        raise DatasetError(
            f"{images_path} holds {images.shape[0]} images but "
            f"{labels_path} holds {labels.shape[0]} labels"
        )
    flat = images.reshape(images.shape[0], int(np.prod(images.shape[1:]))).astype(np.float64)
    return flat, labels.astype(np.int64), images.shape[1:]


def _standardize(fit, *arrays):
    """`arrays` scaled per feature by the mean and std of the rows of `fit`."""
    mu = fit.mean(axis=0)
    sd = fit.std(axis=0)
    sd[sd < 1e-12] = 1.0
    return [(a - mu) / sd for a in arrays]


def load_idx_split(train_images, train_labels, test_images, test_labels) -> DataSplit:
    """Two IDX pairs, normalized per feature with train statistics."""
    xtr, ytr, shape = _idx_pair(train_images, train_labels)
    xte, yte, shape_te = _idx_pair(test_images, test_labels)
    if shape != shape_te:
        raise DatasetError(f"train shape {shape} differs from test shape {shape_te}")
    _refuse_empty_split(f"{train_images}, {test_images}", len(xtr), len(xte))
    classes = int(max(ytr.max(), yte.max())) + 1
    xtr, xte = _standardize(xtr, xtr, xte)
    return DataSplit(
        Dataset(xtr, ytr, classes, shape), Dataset(xte, yte, classes, shape)
    )


CSV_TEST_FRACTION = 0.2  # of the shuffled rows, held out as the test set


def load_csv(path) -> DataSplit:
    """Numeric CSV, last column is the integer label; fixed shuffled 80/20 split."""
    rows = []
    try:
        with open(path, newline="", encoding="utf-8") as f:
            for lineno, row in enumerate(csv_module.reader(f), start=1):
                if not row or (lineno == 1 and _looks_like_header(row)):
                    continue
                try:
                    rows.append([_finite(v) for v in row])
                except ValueError as exc:
                    raise DatasetError(f"{path}: line {lineno}: {exc}") from None
    except UnicodeDecodeError:
        raise DatasetError(f"{path}: not UTF-8 text") from None
    if len(rows) < 2:
        raise DatasetError(f"{path}: needs at least two data rows")
    width = len(rows[0])
    for lineno, row in enumerate(rows, start=1):
        if len(row) != width:
            raise DatasetError(f"{path}: row {lineno} has {len(row)} fields, expected {width}")
    arr = np.asarray(rows, dtype=np.float64)
    features, labels_f = arr[:, :-1], arr[:, -1]
    labels = labels_f.astype(np.int64)
    if not np.array_equal(labels_f, labels) or labels.min() < 0:
        raise DatasetError(f"{path}: labels must be non-negative integers")
    classes = int(labels.max()) + 1
    if classes < 2:
        raise DatasetError(f"{path}: needs at least two classes")
    (features,) = _standardize(features, features)

    order = np.random.default_rng(2_000_003).permutation(len(rows))
    split = int(round((1.0 - CSV_TEST_FRACTION) * len(rows)))
    tr, te = order[:split], order[split:]
    _refuse_empty_split(path, len(tr), len(te))
    shape = (features.shape[1],)
    return DataSplit(
        Dataset(features[tr], labels[tr], classes, shape),
        Dataset(features[te], labels[te], classes, shape),
    )


def _refuse_empty_split(where, n_train, n_test):
    """A split without samples can neither train a ticket nor measure one."""
    for name, n in (("train", n_train), ("test", n_test)):
        if n == 0:
            raise DatasetError(f"{where}: the {name} split is empty")


def _looks_like_header(row):
    for v in row:
        try:
            float(v)
        except ValueError:
            return True
    return False


# Each dataset kind and the keys its source reads besides "kind".
DATASET_KEYS = {
    "synthetic-blobs": ("classes", "dim", "n", "seed", "noise", "shape"),
    "idx-files": ("train_images", "train_labels", "test_images", "test_labels"),
    "csv": ("path",),
}


def load_dataset(source: dict) -> DataSplit:
    """Dispatch on source["kind"]: synthetic-blobs | idx-files | csv."""
    if not isinstance(source, dict) or "kind" not in source:
        raise DatasetError("dataset source must be a mapping with a 'kind'")
    kind = source["kind"]
    if not isinstance(kind, str) or kind not in DATASET_KEYS:
        raise DatasetError(f"unknown dataset kind {kind!r}; choose from {tuple(DATASET_KEYS)}")
    unknown = sorted(set(source) - {"kind", *DATASET_KEYS[kind]})
    if unknown:
        raise DatasetError(
            f"{kind} dataset takes no key {unknown}; allowed: {DATASET_KEYS[kind]}"
        )
    if kind == "synthetic-blobs":
        defaults = {"classes": 3, "dim": 16, "n": 600, "seed": 0}
        counts = {k: source.get(k, d) for k, d in defaults.items()}
        for k, v in counts.items():
            if not _is_int(v):
                raise DatasetError(f"synthetic-blobs {k} must be an integer, not {v!r}")
        noise, shape = source.get("noise", 1.0), source.get("shape")
        if not (_is_number(noise) and 0 <= noise <= sys.float_info.max):  # NaN fails it too
            raise DatasetError(f"synthetic-blobs noise must be a finite number >= 0, not {noise!r}")
        if shape is not None and not (isinstance(shape, (list, tuple)) and shape
                                      and all(_is_int(d) and d > 0 for d in shape)):
            raise DatasetError(f"synthetic-blobs shape must list positive integers, not {shape!r}")
        return synthetic_blobs(**counts, noise=float(noise), sample_shape=shape)
    # idx-files and csv read only paths, and need each of them.
    for key in DATASET_KEYS[kind]:
        if not isinstance(source.get(key), str):
            raise DatasetError(f"{kind} source needs {key!r} as a path string")
    if kind == "idx-files":
        return load_idx_split(
            source["train_images"],
            source["train_labels"],
            source["test_images"],
            source["test_labels"],
        )
    return load_csv(source["path"])
