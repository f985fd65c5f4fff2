"""Sanity-check transforms: data corruptions and structural ticket attacks.

Data corruptions produce new Dataset objects and never touch their inputs.
Structural attacks perturb a ticket's mask placement or its surviving weight
values while preserving all per-layer counts.  All randomness comes from the
caller's generator, so every transform is replayable.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset
from .engine import check_alignment
from .errors import DomainError
from .pruning import Mask

DATA_CHECKS = ("random-labels", "random-pixels", "corrupt-both", "half-data")
STRUCTURAL_CHECKS = ("rearrange", "shuffle-weights")
CHECK_NAMES = ("none",) + DATA_CHECKS + STRUCTURAL_CHECKS


def corrupt_labels(data, rng) -> Dataset:
    """Replace every label with a uniform draw from the label set.

    The samples are unchanged, so the new Dataset shares its input's array.
    """
    labels = rng.integers(0, data.class_count, data.n)
    return Dataset(data.samples, labels, data.class_count, data.sample_shape)


def corrupt_pixels(data, rng) -> Dataset:
    """Apply an independent uniform permutation to each sample's features.

    The stream and the result equal one `rng.permutation(d)` per sample, in order.
    """
    out = rng.permuted(data.samples, axis=1)
    return Dataset(out, data.labels.copy(), data.class_count, data.sample_shape)


def corrupt_both(data, rng) -> Dataset:
    """Label corruption then pixel corruption, on independent streams."""
    label_rng, pixel_rng = rng.spawn(2)
    return corrupt_pixels(corrupt_labels(data, label_rng), pixel_rng)


def half_dataset(data, rng) -> Dataset:
    """Keep floor(n / 2) samples chosen uniformly without replacement."""
    if data.n < 2:
        raise DomainError("need at least two samples to halve a dataset")
    idx = rng.permutation(data.n)[: data.n // 2]
    return data.take(idx)


def rearrange_mask_layerwise(mask, rng) -> Mask:
    """Re-place each layer's kept positions uniformly; counts preserved."""
    return Mask(tuple(rng.permutation(c) for c in mask.layers))


def shuffle_unmasked_weights(params, mask, rng):
    """Permute the surviving weight values within each layer; mask untouched."""
    check_alignment(params, mask)
    new_weights = []
    for w, c in zip(params.weights, mask.layers):
        out = w.copy()
        kept = np.flatnonzero(c)
        out[kept] = w[kept][rng.permutation(kept.size)]
        new_weights.append(out)
    return params.with_weights(new_weights)


def apply_data_check(name, data, rng) -> Dataset:
    """Dispatch one data-corruption check by its public name."""
    if name == "random-labels":
        return corrupt_labels(data, rng)
    if name == "random-pixels":
        return corrupt_pixels(data, rng)
    if name == "corrupt-both":
        return corrupt_both(data, rng)
    if name == "half-data":
        return half_dataset(data, rng)
    raise DomainError(f"unknown data check {name!r}; choose from {DATA_CHECKS}")
