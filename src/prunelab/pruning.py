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
from .data import _is_int, _is_number, _read_only
from .errors import (
    AlignmentError,
    DegenerateGradientError,
    DomainError,
    EmptyNetworkError,
)


def round_half_up(x) -> int:
    """The one rounding rule used for every retained-count computation."""
    return int(math.floor(x + 0.5))


def retained_budget(sizes, target_sparsity) -> int:
    """round((1 - p) * N): the weights every ticket at sparsity p keeps.

    A size that is not an integer, or a p that is not a real number, raises
    DomainError.
    """
    sizes = list(sizes)
    if not all(_is_int(m) for m in sizes):
        raise DomainError(f"layer sizes must be integers, not {sizes}")
    if not _is_number(target_sparsity):
        raise DomainError(f"target sparsity must be a real number, not {target_sparsity!r}")
    return round_half_up((1.0 - target_sparsity) * sum(int(m) for m in sizes))


@dataclass(frozen=True)
class Mask:
    """Per-layer binary keep indicators stored as read-only float64 {0, 1} vectors."""

    layers: tuple[np.ndarray, ...]

    def __post_init__(self):
        flat = (np.asarray(c, dtype=np.float64).reshape(-1) for c in self.layers)
        object.__setattr__(self, "layers", tuple(map(_read_only, flat)))
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
    """Per-layer keep-priority scores aligned with the flat weights, as read-only arrays."""

    layers: tuple[np.ndarray, ...]

    def __post_init__(self):
        flat = (np.asarray(s, dtype=np.float64).reshape(-1) for s in self.layers)
        object.__setattr__(self, "layers", tuple(map(_read_only, flat)))
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


def _top_k(values, k) -> np.ndarray:
    """Positions of the k largest values, ties in position order: the first k of
    a stable descending sort, as a set.  `values` must hold no NaN (`ScoreMap`
    refuses non-finite scores).
    """
    n = values.size
    if k == 0 or k >= n:
        return np.arange(min(k, n))
    kth = np.partition(values, n - k)[n - k]
    above = np.flatnonzero(values > kth)
    return np.concatenate((above, np.flatnonzero(values == kth)[: k - above.size]))


def _select_global(scores, eligible, k) -> Mask:
    """Keep the k best eligible weights across all layers; ties by flat position.

    `eligible` is a boolean vector over the layer-major concatenation of the
    scores, so flat position order is exactly (layer index, position index)
    order.
    """
    flat = np.concatenate(scores.layers)
    candidates = np.flatnonzero(eligible)
    out = np.zeros(flat.size)
    out[candidates[_top_k(flat[candidates], k)]] = 1.0
    return Mask(tuple(np.split(out, np.cumsum([s.size for s in scores.layers])[:-1])))


def mask_from_scores_global(scores, target_sparsity) -> Mask:
    """Keep the round((1 - p) * total) best-scoring weights across all layers."""
    if not (0.0 <= target_sparsity < 1.0):
        raise DomainError("target sparsity must lie in [0, 1)")
    sizes = [s.size for s in scores.layers]
    k = retained_budget(sizes, target_sparsity)
    if k == 0:
        raise EmptyNetworkError("target sparsity would empty the whole network")
    return _select_global(scores, np.ones(sum(sizes), dtype=bool), k)


def _select_layerwise(scores, within, quotas) -> Mask:
    """Keep each layer's quota of best scores among the positions the mask `within` keeps.

    The layerwise sibling of `_select_global`: ties break by position.
    """
    layers = []
    for s, c, q in zip(scores.layers, within.layers, quotas):
        candidates = np.flatnonzero(c)
        out = np.zeros(s.size)
        out[candidates[_top_k(s[candidates], q)]] = 1.0
        layers.append(out)
    return Mask(tuple(layers))


def _check_quotas(quotas, sizes):
    """Each layer's quota must fit its layer, and the quotas must keep something."""
    if len(quotas) != len(sizes):
        raise AlignmentError(f"schedule has {len(quotas)} layers, the network has {len(sizes)}")
    for i, (q, m) in enumerate(zip(quotas, sizes)):
        if q < 0 or q > m:
            raise DomainError(f"layer {i}: quota {q} outside [0, {m}]")
    if sum(quotas) == 0:
        raise EmptyNetworkError("all layer quotas are zero")


def mask_from_scores_layerwise(scores, schedule) -> Mask:
    """Keep each layer's quota of best-scoring weights; ties by position."""
    sizes = [s.size for s in scores.layers]
    _check_quotas(schedule.quotas, sizes)
    return _select_layerwise(scores, full_mask(sizes), schedule.quotas)


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


def grasp_scores(params, mask, samples, labels, *, sample_shape=None, head=engine.SOFTMAX_XENT):
    """Keep-priority w * (H g).

    The raw gradient-flow change for removing weight j is -w_j (Hg)_j; the
    most negative raw change should be kept first, so the stored score is its
    negation.  H g is exact: `engine.hessian_vector_product` on the pass
    that gave g.
    """
    _, fp = engine.forward_loss(
        params, mask, samples, labels, sample_shape=sample_shape, head=head
    )
    grads = engine.backward(fp)
    if not any(g.any() for g in grads):
        raise DegenerateGradientError("loss gradient is zero on the scoring batch")
    hg = engine.hessian_vector_product(fp, grads)
    return ScoreMap(tuple(w * h for w, h in zip(params.weights, hg)))


def random_mask_from_schedule(schedule, sizes, rng) -> Mask:
    """Uniform random placement of each layer's quota."""
    sizes = [int(m) for m in sizes]
    _check_quotas(schedule.quotas, sizes)
    layers = []
    for q, m in zip(schedule.quotas, sizes):
        c = np.zeros(m)
        c[rng.permutation(m)[:q]] = 1.0
        layers.append(c)
    return Mask(tuple(layers))
