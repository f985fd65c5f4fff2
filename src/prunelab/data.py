"""Dataset container and loaders: synthetic Gaussian blobs, IDX pairs, CSV."""

from __future__ import annotations

import csv as csv_module
import math
import numbers
import struct
from dataclasses import MISSING, dataclass, fields

import numpy as np

from . import seeding
from .errors import DatasetError, DomainError


def _is_int(v):
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _at_least(low):
    """The test passed by an integer >= `low`."""
    return lambda v: _is_int(v) and v >= low


def _is_number(v):
    """Whether `v` is a finite real number that a float can hold; a bool is not one."""
    try:
        return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:  # an integer beyond every float
        return False


def _is_non_negative(v):
    return _is_number(v) and v >= 0


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


@dataclass(frozen=True)
class DataSplit:
    train: Dataset
    test: Dataset


def synthetic_blobs(classes, dim, n, seed, *, noise=1.0, sample_shape=None) -> DataSplit:
    """Gaussian class blobs, generated normalized; fixed 80/20 split."""
    if classes < 2 or dim < 1 or n < classes:
        raise DomainError("blobs need classes >= 2, dim >= 1, n >= classes")
    if not _is_non_negative(noise):
        raise DomainError(f"blob noise must be a finite number >= 0, not {noise!r}")
    rng = seeding.stream(seed, seeding.BLOBS)
    centers = rng.normal(0.0, 1.0, (classes, dim))
    labels = rng.permutation(np.arange(n) % classes)
    samples = centers[labels] + rng.normal(0.0, float(noise), (n, dim))
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


def _split(where, train, test, shape):
    """The DataSplit of the (features, labels) pairs `train` and `test`.

    Both loaders end here.  Each feature is standardised by the mean and std
    of the train rows alone, so no test row shapes a train sample.  A side
    without rows, or labels of fewer than two classes, raise DatasetError
    naming `where`: such a split can neither train a ticket nor measure one.
    """
    for name, (features, _) in (("train", train), ("test", test)):
        if len(features) == 0:
            raise DatasetError(f"{where}: the {name} split is empty")
    classes = int(max(train[1].max(), test[1].max())) + 1
    if classes < 2:
        raise DatasetError(f"{where}: needs at least two classes")
    xtr, xte = _standardize(train[0], train[0], test[0])
    return DataSplit(Dataset(xtr, train[1], classes, shape), Dataset(xte, test[1], classes, shape))


def load_idx_split(train_images, train_labels, test_images, test_labels) -> DataSplit:
    """Two IDX pairs: the first pair trains and the second tests."""
    xtr, ytr, shape = _idx_pair(train_images, train_labels)
    xte, yte, shape_te = _idx_pair(test_images, test_labels)
    if shape != shape_te:
        raise DatasetError(f"train shape {shape} differs from test shape {shape_te}")
    return _split(f"{train_images}, {test_images}", (xtr, ytr), (xte, yte), shape)


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
    order = np.random.default_rng(2_000_003).permutation(len(rows))
    tr, te = np.split(order, [int(round((1.0 - CSV_TEST_FRACTION) * len(rows)))])
    return _split(path, (features[tr], labels[tr]), (features[te], labels[te]),
                  (features.shape[1],))


def _looks_like_header(row):
    for v in row:
        try:
            float(v)
        except ValueError:
            return True
    return False


def read_keys(what, noun, table, given, error):
    """The keys of `table` read from the mapping `given`, defaults filled in.

    This is the one gate for every mapping read from outside: dataset
    sources (`load_dataset`), pipeline options (`pipelines.pipeline_options`),
    train configs (`pipelines.TrainConfig`), experiment configs
    (`harness.ExperimentConfig`), a ticket file's header and its layer
    specs (`pipelines.load_ticket`, `models.LayerSpec`), and a ticket's
    provenance (`pipelines.read_provenance`).

    `table` maps each key to (default, accepted values, test); a default of
    MISSING marks a required key.  A `given` that is not a mapping raises
    error("<what> must be a mapping, not <given>"), a key `table` lacks
    raises error("<what> <noun> [keys]; allowed: (keys of table)"), a
    required key missing from `given` raises error("<what> needs '<key>',
    ..."), and a given value that fails its test raises
    error("<what> <key> must be <accepted>, not <value>").  Defaults are
    not tested.
    """
    if not isinstance(given, dict):
        raise error(f"{what} must be a mapping, not {given!r}")
    unknown = given.keys() - table.keys()
    if unknown:
        raise error(f"{what} {noun} {sorted(unknown, key=str)}; allowed: {tuple(table)}")
    values = {}
    for key, (default, accepted, ok) in table.items():
        values[key] = given.get(key, default)
        if values[key] is MISSING:
            raise error(f"{what} needs {key!r}, which must be {accepted}")
        if key in given and not ok(values[key]):
            raise error(f"{what} {key} must be {accepted}, not {values[key]!r}")
    return values


def field_keys(cls, tests):
    """The `read_keys` table of the dataclass `cls`: each field's own default
    (MISSING if it has none), then its (accepted values, test) from `tests`."""
    return {f.name: (f.default if f.default_factory is MISSING else f.default_factory(),
                     *tests[f.name]) for f in fields(cls)}


def _is_shape(v):
    return isinstance(v, (list, tuple)) and v and all(map(_at_least(1), v))


_PATH = (MISSING, "a path string", lambda v: isinstance(v, str))

# Each dataset kind and the keys its source reads besides "kind", as
# `read_keys` takes them.  The kind's loader takes the keys read as keywords.
DATASET_KEYS = {
    "synthetic-blobs": {
        "classes": (3, "an integer", _is_int),
        "dim": (16, "an integer", _is_int),
        "n": (600, "an integer", _is_int),
        "seed": (0, "an integer", _is_int),
        "noise": (1.0, "a finite number >= 0", _is_non_negative),
        "shape": (None, "a list of positive integers", lambda v: v is None or _is_shape(v)),
    },
    "idx-files": dict.fromkeys(("train_images", "train_labels", "test_images", "test_labels"),
                               _PATH),
    "csv": {"path": _PATH},
}
LOADERS = {
    "synthetic-blobs": lambda shape, **keys: synthetic_blobs(**keys, sample_shape=shape),
    "idx-files": load_idx_split,
    "csv": load_csv,
}


def load_dataset(source: dict) -> DataSplit:
    """The DataSplit a source mapping describes: its "kind", a key of
    DATASET_KEYS, and the keys that kind reads, which its loader takes.

    A source that is not such a mapping raises DatasetError, and so does a
    key its kind does not read or a value a key does not take (see
    `read_keys`).
    """
    kind = source.get("kind") if isinstance(source, dict) else None
    if not (isinstance(kind, str) and kind in DATASET_KEYS):
        raise DatasetError(f"dataset source must be a mapping whose kind is one of "
                           f"{tuple(DATASET_KEYS)}, not {source!r}")
    given = {k: v for k, v in source.items() if k != "kind"}
    return LOADERS[kind](**read_keys(kind, "dataset takes no key", DATASET_KEYS[kind], given,
                                     DatasetError))
