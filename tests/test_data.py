"""Dataset container, synthetic blobs, IDX parsing, CSV loading."""

import re
import struct

import numpy as np
import pytest

from prunelab.data import (
    DataSplit,
    Dataset,
    load_csv,
    load_dataset,
    load_idx_split,
    synthetic_blobs,
)
from prunelab.errors import DatasetError, DomainError


def test_dataset_validation():
    Dataset(np.zeros((4, 6)), np.zeros(4, dtype=int), 2, (6,))
    with pytest.raises(DatasetError):
        Dataset(np.zeros(4), np.zeros(4, dtype=int), 2, (1,))
    with pytest.raises(DatasetError):
        Dataset(np.zeros((4, 6)), np.zeros(3, dtype=int), 2, (6,))
    with pytest.raises(DatasetError):
        Dataset(np.zeros((4, 6)), np.zeros(4, dtype=int), 2, (2, 2))
    with pytest.raises(DatasetError):
        Dataset(np.zeros((4, 6)), np.zeros(4, dtype=int), 1, (6,))
    with pytest.raises(DatasetError):
        Dataset(np.zeros((4, 6)), np.array([0, 1, 2, 1]), 2, (6,))


@pytest.mark.parametrize("shape", [(True, 4), (2.5, 1.6), (4.0,), ("2", 2), (-1, -4), (1, 2, 2.0)])
def test_dataset_refuses_a_dimension_that_is_not_an_integer_at_least_zero(shape):
    with pytest.raises(DatasetError, match="must list integers >= 0"):
        Dataset(np.zeros((1, 4)), [0], 2, shape)


def test_dataset_takes_numpy_integer_dimensions():
    data = Dataset(np.zeros((1, 4)), [0], 2, np.array([2, 2]))
    assert data.sample_shape == (1, 2, 2)
    assert all(type(d) is int for d in data.sample_shape)


def assert_read_only(*arrays):
    """Each of `arrays` refuses `arr[0] = ...`."""
    assert arrays
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


def test_a_dataset_keeps_the_flags_and_values_of_the_arrays_it_is_given():
    samples, labels = np.arange(12.0).reshape(3, 4), [0, 1, 0]
    ints = np.arange(12).reshape(3, 4)
    for given in (samples, ints):
        data = Dataset(given, labels, 2, (4,))
        assert_read_only(data.samples, data.labels)
        assert given.flags.writeable
        assert np.array_equal(given, np.arange(12).reshape(3, 4))
        assert np.array_equal(data.samples, given) and data.samples.dtype == np.float64
    # An array that is already read-only and of the right dtype is kept as it is.
    again = Dataset(data.samples, data.labels, 2, (4,))
    assert again.samples is data.samples and again.labels is data.labels


def test_every_loader_gives_datasets_of_read_only_arrays(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1.0,2.0,0\n2.0,1.0,1\n0.5,0.5,0\n3.0,0.1,1\n1.1,1.2,1\n")
    paths = idx_quartet(tmp_path)
    splits = (
        synthetic_blobs(3, 4, 30, seed=1),
        load_csv(str(path)),
        load_idx_split(paths["train_images"], paths["train_labels"],
                       paths["test_images"], paths["test_labels"]),
    )
    for split in splits:
        for data in (split.train, split.test, split.train.take([0, 1])):
            assert_read_only(data.samples, data.labels)


def test_dataset_take_and_net_shape():
    data = Dataset(np.arange(12, dtype=float).reshape(3, 4), [0, 1, 0], 2, (1, 2, 2))
    sub = data.take([2, 0])
    assert sub.n == 2
    assert np.array_equal(sub.samples[0], data.samples[2])
    assert data.sample_shape_for_net() == (1, 2, 2)
    flat = Dataset(np.zeros((3, 4)), [0, 1, 0], 2, (4,))
    assert flat.sample_shape_for_net() is None


def test_blobs_split_and_determinism():
    split = synthetic_blobs(3, 8, 100, seed=5)
    assert split.train.n == 80 and split.test.n == 20
    assert split.train.class_count == 3
    again = synthetic_blobs(3, 8, 100, seed=5)
    assert np.array_equal(split.train.samples, again.train.samples)
    other = synthetic_blobs(3, 8, 100, seed=6)
    assert not np.array_equal(split.train.samples, other.train.samples)


def test_blobs_balance_labels_exactly():
    split = synthetic_blobs(3, 4, 300, seed=0)
    labels = np.concatenate([split.train.labels, split.test.labels])
    assert np.bincount(labels, minlength=3).tolist() == [100, 100, 100]


def test_blobs_argument_validation():
    with pytest.raises(DomainError):
        synthetic_blobs(1, 8, 100, seed=0)
    with pytest.raises(DomainError):
        synthetic_blobs(3, 0, 100, seed=0)
    with pytest.raises(DomainError):
        synthetic_blobs(3, 8, 2, seed=0)
    with pytest.raises(DomainError):
        synthetic_blobs(3, 8, 100, seed=0, sample_shape=(3, 3))
    with pytest.raises(DomainError, match="seed -3 is negative"):
        synthetic_blobs(3, 8, 100, seed=-3)


@pytest.mark.parametrize("noise", [float("nan"), float("inf"), -1.0, True, "1"])
def test_blobs_refuse_a_noise_that_is_not_a_finite_number_at_least_zero(noise):
    with pytest.raises(DomainError, match="noise must be a finite number >= 0"):
        synthetic_blobs(3, 4, 30, 1, noise=noise)


def test_blobs_refuse_a_non_integer_seed():
    with pytest.raises(DomainError, match="seed 1.5 is not an integer"):
        synthetic_blobs(3, 16, 100, seed=1.5)


def test_blobs_image_shape_override():
    split = synthetic_blobs(2, 64, 50, seed=1, sample_shape=(1, 8, 8))
    assert split.train.sample_shape == (1, 8, 8)
    assert split.train.samples.shape[1] == 64


def write_idx(path, array):
    array = np.asarray(array, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(bytes([0, 0, 0x08, array.ndim]))
        f.write(struct.pack(f">{array.ndim}I", *array.shape))
        f.write(array.tobytes())


def idx_quartet(tmp_path, n_train=10, n_test=4, side=3):
    rng = np.random.default_rng(7)
    paths = {}
    for name, n in (("train", n_train), ("test", n_test)):
        images = rng.integers(0, 256, size=(n, side, side))
        labels = rng.integers(0, 3, size=n)
        ip, lp = tmp_path / f"{name}-images.idx", tmp_path / f"{name}-labels.idx"
        write_idx(ip, images)
        write_idx(lp, labels)
        paths[f"{name}_images"], paths[f"{name}_labels"] = str(ip), str(lp)
    return paths


def test_idx_round_trip_and_normalization(tmp_path):
    paths = idx_quartet(tmp_path)
    split = load_idx_split(
        paths["train_images"], paths["train_labels"],
        paths["test_images"], paths["test_labels"],
    )
    assert split.train.n == 10 and split.test.n == 4
    assert split.train.sample_shape == (1, 3, 3)
    mu = split.train.samples.mean(axis=0)
    assert np.allclose(mu, 0.0, atol=1e-9)  # train statistics define the scale


def test_idx_error_reports_byte_offsets(tmp_path):
    short = tmp_path / "short.idx"
    short.write_bytes(b"\x00\x00")
    with pytest.raises(DatasetError, match="byte 0"):
        load_idx_split(str(short), str(short), str(short), str(short))

    magic = tmp_path / "magic.idx"
    magic.write_bytes(b"\x01\x00\x08\x01" + b"\x00\x00\x00\x01" + b"\x07")
    with pytest.raises(DatasetError, match="magic at byte 0"):
        load_idx_split(str(magic), str(magic), str(magic), str(magic))

    typed = tmp_path / "typed.idx"
    typed.write_bytes(b"\x00\x00\x09\x01" + b"\x00\x00\x00\x01" + b"\x07")
    with pytest.raises(DatasetError, match="type code 0x09 at byte 2"):
        load_idx_split(str(typed), str(typed), str(typed), str(typed))

    dims = tmp_path / "dims.idx"
    dims.write_bytes(b"\x00\x00\x08\x02" + b"\x00\x00\x00\x01")
    with pytest.raises(DatasetError, match="truncated dimension table"):
        load_idx_split(str(dims), str(dims), str(dims), str(dims))

    payload = tmp_path / "payload.idx"
    payload.write_bytes(b"\x00\x00\x08\x01" + b"\x00\x00\x00\x05" + b"\x01\x02")
    with pytest.raises(DatasetError, match="expected 5 payload bytes at byte 8"):
        load_idx_split(str(payload), str(payload), str(payload), str(payload))


def test_idx_pair_shape_mismatches(tmp_path):
    paths = idx_quartet(tmp_path)
    lonely = tmp_path / "lonely.idx"
    write_idx(lonely, np.zeros((3,), dtype=np.uint8))
    with pytest.raises(DatasetError, match="at least 2 dims"):
        load_idx_split(str(lonely), paths["train_labels"],
                       paths["test_images"], paths["test_labels"])
    with pytest.raises(DatasetError, match="images but"):
        load_idx_split(paths["train_images"], str(lonely),
                       paths["test_images"], paths["test_labels"])


def test_csv_with_and_without_header(tmp_path):
    body = "1.0,2.0,0\n2.0,1.0,1\n0.5,0.5,0\n3.0,0.1,1\n1.1,1.2,1\n"
    bare = tmp_path / "bare.csv"
    bare.write_text(body)
    headed = tmp_path / "headed.csv"
    headed.write_text("f1,f2,label\n" + body)
    a = load_csv(str(bare))
    b = load_csv(str(headed))
    assert a.train.n == b.train.n == 4
    assert np.array_equal(a.train.samples, b.train.samples)
    assert a.train.class_count == 2


def test_csv_split_is_fixed():
    import tempfile, os

    body = "".join(f"{i / 10:.1f},{(i * 7) % 5},{i % 3}\n" for i in range(20))
    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "data.csv")
        with open(p, "w") as f:
            f.write(body)
        one = load_csv(p)
        two = load_csv(p)
    assert np.array_equal(one.train.samples, two.train.samples)
    assert np.array_equal(one.test.labels, two.test.labels)
    assert one.train.n == 16 and one.test.n == 4


def test_csv_errors_carry_line_numbers(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0,0\n1.0,oops,1\n")
    with pytest.raises(DatasetError, match="line 2"):
        load_csv(str(bad))

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1.0,2.0,0\n1.0,1\n")
    with pytest.raises(DatasetError, match="row 2 has 2 fields"):
        load_csv(str(ragged))

    negative = tmp_path / "negative.csv"
    negative.write_text("1.0,2.0,-1\n1.0,1.0,0\n")
    with pytest.raises(DatasetError, match="non-negative integers"):
        load_csv(str(negative))

    fractional = tmp_path / "fractional.csv"
    fractional.write_text("1.0,2.0,0.5\n1.0,1.0,0\n")
    with pytest.raises(DatasetError, match="non-negative integers"):
        load_csv(str(fractional))

    tiny = tmp_path / "tiny.csv"
    tiny.write_text("1.0,2.0,0\n")
    with pytest.raises(DatasetError, match="at least two data rows"):
        load_csv(str(tiny))

    # One non-finite field would turn its whole column non-finite once standardised.
    for value in ("nan", "inf", "-Infinity"):
        nonfinite = tmp_path / "nonfinite.csv"
        nonfinite.write_text(f"1.0,2.0,0\n3.0,{value},1\n4.0,1.0,0\n")
        with pytest.raises(DatasetError, match=f"line 2: '{value}' is not a finite number"):
            load_csv(str(nonfinite))


def test_csv_that_is_not_utf8_fails_typed_naming_its_path(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"x,y,label\n1.0,2.0,0\n3.0,\xff,1\n4.0,1.0,0\n")
    with pytest.raises(DatasetError, match=f"^{re.escape(str(bad))}: not UTF-8 text$"):
        load_csv(str(bad))


def test_load_dataset_dispatch(tmp_path):
    split = load_dataset({"kind": "synthetic-blobs", "classes": 2, "dim": 4, "n": 40, "seed": 3})
    assert isinstance(split, DataSplit)
    assert split.train.class_count == 2

    csv_path = tmp_path / "d.csv"
    csv_path.write_text("1.0,0\n2.0,1\n3.0,0\n4.0,1\n5.0,0\n")
    split = load_dataset({"kind": "csv", "path": str(csv_path)})
    assert split.train.n == 4

    with pytest.raises(DatasetError):
        load_dataset({"kind": "parquet"})
    with pytest.raises(DatasetError):
        load_dataset({})
    with pytest.raises(DatasetError):
        load_dataset({"kind": "idx-files", "train_images": "x"})
    with pytest.raises(DomainError, match="seed -3 is negative"):
        load_dataset({"kind": "synthetic-blobs", "seed": -3})


@pytest.mark.parametrize("bad", [
    {"noise": float("inf")}, {"noise": float("nan")}, {"noise": True}, {"noise": -0.5},
    {"noise": "1.0"}, {"noise": 10**400}, {"shape": [True, 4]}, {"shape": [2.5, 1.6]}, {"shape": [4, 0]},
    {"shape": []}, {"shape": 4},
])
def test_load_dataset_refuses_a_bad_noise_or_shape(bad):
    blobs = {"kind": "synthetic-blobs", "dim": 4, "n": 40}
    (key,) = bad
    with pytest.raises(DatasetError, match=f"synthetic-blobs {key} must "):
        load_dataset({**blobs, **bad})
    # a finite noise >= 0 of any real type, and a shape of positive integers, load
    for good in ({"noise": 0}, {"noise": 0.5}, {"shape": [2, 2]}, {"shape": (1, 2, 2)}):
        load_dataset({**blobs, **good})


def test_load_dataset_rejects_keys_its_kind_does_not_read(tmp_path):
    blobs = {"kind": "synthetic-blobs", "classes": 4, "dim": 4, "n": 40, "seed": 3}
    assert load_dataset(blobs).train.class_count == 4
    with pytest.raises(DatasetError, match="takes no key"):
        load_dataset({**{k: v for k, v in blobs.items() if k != "classes"}, "clases": 4})
    with pytest.raises(DatasetError, match="takes no key"):
        load_dataset({"kind": "csv", "path": str(tmp_path / "d.csv"), "dim": 4})
    with pytest.raises(DatasetError, match="takes no key"):
        load_dataset({"kind": "idx-files", "path": "x"})
