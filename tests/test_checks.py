"""Sanity-check transforms: data corruptions and structural mask attacks."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prunelab.checks import (
    CHECK_NAMES,
    DATA_CHECKS,
    STRUCTURAL_CHECKS,
    apply_data_check,
    corrupt_both,
    corrupt_labels,
    corrupt_pixels,
    half_dataset,
    rearrange_mask_layerwise,
    shuffle_unmasked_weights,
)
from prunelab.data import Dataset
from prunelab.errors import AlignmentError, DomainError
from prunelab.models import LayerSpec, LayeredParams
from prunelab.pruning import Mask
from test_data import assert_read_only

CHI2_CRIT_DF5_P01 = 15.086272469388987


def toy_data(n=20, d=6, classes=3, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(rng.normal(size=(n, d)), rng.integers(0, classes, n), classes, (d,))


def test_corrupt_labels_draws_from_the_label_set():
    data = toy_data(n=500)
    out = corrupt_labels(data, np.random.default_rng(1))
    assert out.labels.min() >= 0 and out.labels.max() < 3
    assert np.array_equal(out.samples, data.samples)
    assert not np.array_equal(out.labels, data.labels)
    again = corrupt_labels(data, np.random.default_rng(1))
    assert np.array_equal(out.labels, again.labels)


@pytest.mark.parametrize("name", DATA_CHECKS)
def test_data_checks_leave_their_input_unchanged(name):
    data = toy_data(n=40)
    samples, labels = data.samples.copy(), data.labels.copy()
    out = apply_data_check(name, data, np.random.default_rng(5))
    if name == "random-labels":
        assert out.samples is data.samples  # shared, not copied
    assert np.array_equal(data.samples, samples)
    assert np.array_equal(data.labels, labels)


@pytest.mark.parametrize("name", DATA_CHECKS)
def test_data_checks_give_datasets_of_read_only_arrays(name):
    data = toy_data(n=40)
    out = apply_data_check(name, data, np.random.default_rng(5))
    assert_read_only(out.samples, out.labels)
    if name == "random-labels":
        assert out.samples is data.samples  # still shared, not copied


def test_structural_checks_give_read_only_arrays():
    specs = (LayerSpec("dense", 3, 1, is_output=True),)
    params = LayeredParams(specs, (np.array([0.5, -0.2, 0.1]),))
    mask = Mask((np.array([1.0, 0.0, 1.0]),))
    rearranged = rearrange_mask_layerwise(mask, np.random.default_rng(1))
    shuffled = shuffle_unmasked_weights(params, mask, np.random.default_rng(1))
    assert_read_only(*rearranged.layers, *shuffled.weights)


def test_corrupt_pixels_permutes_each_sample_independently():
    data = toy_data(n=30, d=16)
    out = corrupt_pixels(data, np.random.default_rng(2))
    assert np.array_equal(np.sort(out.samples, axis=1), np.sort(data.samples, axis=1))
    assert np.array_equal(out.labels, data.labels)
    assert not np.array_equal(out.samples, data.samples)


def test_corrupt_pixels_uses_distinct_permutations_across_duplicates():
    row = np.random.default_rng(3).normal(size=16)
    pairs = Dataset(np.tile(row, (200, 1)), np.zeros(200, dtype=int), 2, (16,))
    out = corrupt_pixels(pairs, np.random.default_rng(4))
    halves = out.samples.reshape(100, 2, 16)
    assert any(not np.array_equal(a, b) for a, b in halves)


def test_corrupt_both_changes_labels_and_pixels():
    data = toy_data(n=300, d=12)
    out = corrupt_both(data, np.random.default_rng(5))
    assert not np.array_equal(out.labels, data.labels)
    assert not np.array_equal(out.samples, data.samples)
    assert np.array_equal(np.sort(out.samples, axis=1), np.sort(data.samples, axis=1))
    again = corrupt_both(data, np.random.default_rng(5))
    assert np.array_equal(out.samples, again.samples)
    assert np.array_equal(out.labels, again.labels)


def per_row_pixels(data, rng):
    """Reference for corrupt_pixels: one rng.permutation(d) per sample, in sample order."""
    out = np.empty_like(data.samples)
    for i in range(data.n):
        out[i] = data.samples[i][rng.permutation(data.samples.shape[1])]
    return out


PIXEL_SHAPES = [(0, 4), (7, 0), (3, 1), (5, 2), (64, 16), (40, 144), (1600, 256)]


@pytest.mark.parametrize("n,d", PIXEL_SHAPES)
def test_corrupt_pixels_matches_the_per_row_reference_and_its_stream(n, d):
    data = toy_data(n=n, d=d, seed=n + d)
    rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
    out = corrupt_pixels(data, rng)
    assert np.array_equal(out.samples, per_row_pixels(data, ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("n,d", PIXEL_SHAPES)
def test_corrupt_both_matches_the_per_row_reference_and_its_stream(n, d):
    data = toy_data(n=n, d=d, seed=n + d)
    rng, ref_rng = np.random.default_rng(12), np.random.default_rng(12)
    out = corrupt_both(data, rng)
    label_rng, pixel_rng = ref_rng.spawn(2)
    labels = label_rng.integers(0, data.class_count, data.n)
    assert np.array_equal(out.labels, labels)
    assert np.array_equal(out.samples, per_row_pixels(data, pixel_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert rng.bit_generator.seed_seq.n_children_spawned == 2


def test_half_dataset_keeps_floor_half_without_replacement():
    data = Dataset(
        np.arange(11, dtype=float)[:, None], np.zeros(11, dtype=int), 2, (1,)
    )
    out = half_dataset(data, np.random.default_rng(6))
    assert out.n == 5
    assert len(set(out.samples[:, 0].tolist())) == 5
    with pytest.raises(DomainError):
        half_dataset(data.take([0]), np.random.default_rng(7))


@settings(deadline=None, max_examples=40)
@given(
    layers=st.lists(
        st.lists(st.integers(0, 1), min_size=1, max_size=30), min_size=1, max_size=4
    ),
    seed=st.integers(0, 2**31 - 1),
)
def test_rearrange_preserves_per_layer_counts(layers, seed):
    mask = Mask(tuple(np.array(c, dtype=float) for c in layers))
    out = rearrange_mask_layerwise(mask, np.random.default_rng(seed))
    assert out.counts() == mask.counts()


def test_rearrange_places_uniformly():
    base = Mask((np.array([1.0, 0.0, 1.0, 0.0]),))
    slots = {frozenset(c): i for i, c in enumerate(combinations(range(4), 2))}
    counts = np.zeros(6)
    rng = np.random.default_rng(0)
    for _ in range(6000):
        m = rearrange_mask_layerwise(base, rng)
        counts[slots[frozenset(np.flatnonzero(m.layers[0]).tolist())]] += 1
    chi2 = float(((counts - 1000.0) ** 2 / 1000.0).sum())
    assert chi2 <= CHI2_CRIT_DF5_P01


def test_shuffle_unmasked_weights_moves_only_kept_values():
    specs = (LayerSpec("dense", 3, 1, is_output=True),)
    params = LayeredParams(specs, (np.array([0.5, -0.2, 0.1]),))
    mask = Mask((np.array([1.0, 0.0, 1.0]),))
    seen = set()
    for seed in range(8):
        out = shuffle_unmasked_weights(params, mask, np.random.default_rng(seed))
        w = out.weights[0]
        assert w[1] == -0.2
        assert sorted(w[[0, 2]].tolist()) == [0.1, 0.5]
        seen.add(tuple(w.tolist()))
    assert len(seen) == 2  # both placements of the two kept values occur


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**31 - 1))
def test_shuffle_unmasked_weights_preserves_kept_multiset(seed):
    rng = np.random.default_rng(seed)
    specs = (LayerSpec("dense", 5, 4), LayerSpec("dense", 4, 2, is_output=True))
    params = LayeredParams(specs, (rng.normal(size=20), rng.normal(size=8)))
    mask = Mask(tuple((rng.random(m) < 0.6).astype(float) for m in (20, 8)))
    out = shuffle_unmasked_weights(params, mask, rng)
    for w0, w1, c in zip(params.weights, out.weights, mask.layers):
        kept = c == 1.0
        assert np.array_equal(np.sort(w0[kept]), np.sort(w1[kept]))
        assert np.array_equal(w0[~kept], w1[~kept])


def test_shuffle_unmasked_weights_rejects_misalignment():
    specs = (LayerSpec("dense", 3, 1, is_output=True),)
    params = LayeredParams(specs, (np.zeros(3),))
    with pytest.raises(AlignmentError):
        shuffle_unmasked_weights(params, Mask((np.ones(2),)), np.random.default_rng(0))


def test_apply_data_check_dispatch():
    data = toy_data(n=40)
    for name in DATA_CHECKS:
        out = apply_data_check(name, data, np.random.default_rng(8))
        assert isinstance(out, Dataset)
    with pytest.raises(DomainError):
        apply_data_check("rearrange", data, np.random.default_rng(9))


def test_check_name_registry():
    assert CHECK_NAMES[0] == "none"
    assert set(DATA_CHECKS) == {"random-labels", "random-pixels", "corrupt-both", "half-data"}
    assert set(STRUCTURAL_CHECKS) == {"rearrange", "shuffle-weights"}
    assert len(CHECK_NAMES) == 7
