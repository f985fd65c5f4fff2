"""Mask algebra and pruning criteria.

A mask is a per-layer binary vector aligned with the flat weights.  Scores
always use the keep-priority convention: higher score means keep first, and
exact ties break by (layer index, position index) ascending everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engine
from .errors import (
    AlignmentError,
    DegenerateGradientError,
    DomainError,
    EmptyNetworkError,
)


def round_half_up(x) -> int:
    """The one rounding rule used for every retained-count computation."""
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class Mask:
    """Per-layer binary keep indicators stored as float64 {0, 1} vectors."""

    layers: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "layers", tuple(np.asarray(c, dtype=np.float64).reshape(-1) for c in self.layers)
        )
        if len(self.layers) == 0:
            raise DomainError("a mask needs at least one layer")
        for i, c in enumerate(self.layers):
            bad = (c != 0.0) & (c != 1.0)
            if bad.any():
                raise DomainError(f"layer {i}: mask entries must be 0 or 1")

    def counts(self) -> list[int]:
        return [int(c.sum()) for c in self.layers]

    @property
    def total_kept(self) -> int:
        return sum(self.counts())

    @property
    def total_size(self) -> int:
        return sum(c.size for c in self.layers)


@dataclass(frozen=True)
class ScoreMap:
    """Per-layer keep-priority scores aligned with the flat weights."""

    layers: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "layers", tuple(np.asarray(s, dtype=np.float64).reshape(-1) for s in self.layers)
        )
        if len(self.layers) == 0:
            raise DomainError("a score map needs at least one layer")
        for i, s in enumerate(self.layers):
            if not np.isfinite(s).all():
                raise DomainError(f"layer {i}: scores must be finite")


def full_mask(sizes) -> Mask:
    return Mask(tuple(np.ones(int(m)) for m in sizes))


def sparsity(mask) -> float:
    """Fraction of all weights removed: 1 - kept / total."""
    return 1.0 - mask.total_kept / mask.total_size


def keep_ratios(mask) -> list[float]:
    """Per-layer kept fraction."""
    return [int(c.sum()) / c.size for c in mask.layers]


def _select_global(scores, eligible, k) -> Mask:
    """Keep the k best eligible weights across all layers; ties by flat position.

    `eligible` is a boolean vector over the layer-major concatenation of the
    scores, so flat position order is exactly (layer index, position index)
    order.
    """
    flat = np.concatenate(scores.layers)
    candidates = np.flatnonzero(eligible)
    order = candidates[np.argsort(-flat[candidates], kind="stable")]
    out = np.zeros(flat.size)
    out[order[:k]] = 1.0
    return Mask(tuple(np.split(out, np.cumsum([s.size for s in scores.layers])[:-1])))


def mask_from_scores_global(scores, target_sparsity) -> Mask:
    """Keep the round((1 - p) * total) best-scoring weights across all layers."""
    if not (0.0 <= target_sparsity < 1.0):
        raise DomainError("target sparsity must lie in [0, 1)")
    total = sum(s.size for s in scores.layers)
    k = round_half_up((1.0 - target_sparsity) * total)
    if k == 0:
        raise EmptyNetworkError("target sparsity would empty the whole network")
    return _select_global(scores, np.ones(total, dtype=bool), k)


def mask_from_scores_layerwise(scores, schedule) -> Mask:
    """Keep each layer's quota of best-scoring weights; ties by position."""
    quotas = schedule.quotas
    if len(quotas) != len(scores.layers):
        raise AlignmentError(
            f"schedule has {len(quotas)} layers, scores have {len(scores.layers)}"
        )
    layers = []
    for i, (s, q) in enumerate(zip(scores.layers, quotas)):
        q = int(q)
        if q < 0 or q > s.size:
            raise DomainError(f"layer {i}: quota {q} outside [0, {s.size}]")
        keep = np.argsort(-s, kind="stable")[:q]
        c = np.zeros(s.size)
        c[keep] = 1.0
        layers.append(c)
    mask = Mask(tuple(layers))
    if mask.total_kept == 0:
        raise EmptyNetworkError("all layer quotas are zero")
    return mask


def magnitude_scores(params) -> ScoreMap:
    """Keep-priority |w|."""
    return ScoreMap(tuple(np.abs(w) for w in params.weights))


def snip_scores(params, mask, samples, labels, *, sample_shape=None, head=engine.SOFTMAX_XENT):
    """Keep-priority |g * w| from one batch-mean loss gradient."""
    _, fp = engine.forward_loss(
        params, mask, samples, labels, sample_shape=sample_shape, head=head
    )
    grads = engine.backward(fp)
    return ScoreMap(tuple(np.abs(g * w) for g, w in zip(grads, params.weights)))


def grasp_scores(
    params, mask, samples, labels, *, sample_shape=None, epsilon=1e-5, head=engine.SOFTMAX_XENT
):
    """Keep-priority w * (H g).

    The raw gradient-flow change for removing weight j is -w_j (Hg)_j; the
    most negative raw change should be kept first, so the stored score is its
    negation.  H g comes from central differences along the unit gradient
    direction, scaled back by the gradient norm.
    """
    _, fp = engine.forward_loss(
        params, mask, samples, labels, sample_shape=sample_shape, head=head
    )
    grads = engine.backward(fp)
    gnorm = math.sqrt(sum(float(g @ g) for g in grads))
    if gnorm == 0.0:
        raise DegenerateGradientError("loss gradient is zero on the scoring batch")
    unit = [g / gnorm for g in grads]
    hu = engine.hessian_vector_product(
        params, mask, samples, labels, unit, epsilon, sample_shape=sample_shape, head=head
    )
    return ScoreMap(tuple(w * (gnorm * h) for w, h in zip(params.weights, hu)))


def random_mask_from_schedule(schedule, sizes, rng) -> Mask:
    """Uniform random placement of each layer's quota."""
    sizes = [int(m) for m in sizes]
    if len(schedule.quotas) != len(sizes):
        raise AlignmentError(
            f"schedule has {len(schedule.quotas)} layers, sizes have {len(sizes)}"
        )
    layers = []
    for q, m in zip(schedule.quotas, sizes):
        q = int(q)
        if q < 0 or q > m:
            raise DomainError(f"quota {q} outside [0, {m}]")
        c = np.zeros(m)
        c[rng.permutation(m)[:q]] = 1.0
        layers.append(c)
    mask = Mask(tuple(layers))
    if mask.total_kept == 0:
        raise EmptyNetworkError("all layer quotas are zero")
    return mask


CRITERION_NAMES = ("magnitude", "snip", "grasp", "random")
