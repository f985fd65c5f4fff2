"""Mask algebra, selection rules, and saliency criteria."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prunelab.engine import backward, forward_loss
from prunelab.errors import (
    AlignmentError,
    DegenerateGradientError,
    DomainError,
    EmptyNetworkError,
)
from prunelab.data import synthetic_blobs
from prunelab.models import LayerSpec, LayeredParams, build_network, layer_sizes, preset_specs
from prunelab.pipelines import score_batch
from prunelab.pruning import (
    Mask,
    ScoreMap,
    _select_global,
    _select_layerwise,
    full_mask,
    grasp_scores,
    keep_ratios,
    magnitude_scores,
    mask_from_scores_global,
    mask_from_scores_layerwise,
    random_mask_from_schedule,
    round_half_up,
    snip_scores,
    sparsity,
)
from prunelab.schedules import KeepRatioSchedule

from oracles import finite_diff_hvp, relu_flips
from test_data import assert_read_only


def test_round_half_up_rule():
    assert round_half_up(0.5) == 1
    assert round_half_up(1.5) == 2
    assert round_half_up(2.5) == 3
    assert round_half_up(-0.5) == 0
    assert round_half_up(-1.5) == -1
    assert round_half_up(3.2) == 3
    assert round_half_up(3.7) == 4


def test_mask_validation_and_counts():
    mask = Mask((np.array([1.0, 1.0, 0.0]), np.array([1.0, 0.0, 0.0, 0.0])))
    assert mask.counts() == [2, 1]
    assert mask.total_kept == 3
    assert mask.total_size == 7
    with pytest.raises(DomainError):
        Mask((np.array([0.5, 1.0]),))
    with pytest.raises(DomainError):
        Mask(())


def test_sparsity_and_keep_ratios_by_count():
    mask = Mask((np.array([1.0, 1.0, 0.0]), np.array([1.0, 0.0, 0.0, 0.0])))
    assert sparsity(mask) == pytest.approx(1.0 - 3.0 / 7.0, abs=1e-15)
    assert keep_ratios(mask) == [pytest.approx(2 / 3), pytest.approx(1 / 4)]


def test_full_mask_keeps_everything():
    mask = full_mask([3, 5])
    assert mask.counts() == [3, 5]
    assert sparsity(mask) == 0.0


def test_score_map_rejects_non_finite():
    with pytest.raises(DomainError):
        ScoreMap((np.array([1.0, np.nan]),))
    with pytest.raises(DomainError):
        ScoreMap((np.array([np.inf]),))


@pytest.mark.parametrize("kind", [Mask, ScoreMap])
def test_masks_and_score_maps_keep_the_flags_and_values_of_the_arrays_they_are_given(kind):
    given = (np.array([1.0, 0.0, 1.0]), np.array([[0.0], [1.0]]), [1, 1])
    held = kind(given)
    assert_read_only(*held.layers)
    assert given[0].flags.writeable and given[1].flags.writeable
    assert np.array_equal(given[0], [1.0, 0.0, 1.0]) and np.array_equal(given[1], [[0.0], [1.0]])
    assert [a.tolist() for a in held.layers] == [[1.0, 0.0, 1.0], [0.0, 1.0], [1.0, 1.0]]


def test_every_mask_and_score_map_holds_read_only_arrays():
    scores = ScoreMap((np.array([0.5, 0.2]), np.array([0.1, 0.9, 0.3])))
    schedule = KeepRatioSchedule((0.5, 1 / 3), (1, 1), 0.6)
    params = build_network(preset_specs("mlp-4", (4,), 3), seed=0)
    masks = (
        full_mask([2, 3]),
        _select_global(scores, np.ones(5, dtype=bool), 2),
        _select_layerwise(scores, full_mask([2, 3]), [1, 1]),
        mask_from_scores_global(scores, 0.6),
        mask_from_scores_layerwise(scores, schedule),
        random_mask_from_schedule(schedule, [2, 3], np.random.default_rng(0)),
    )
    assert_read_only(*scores.layers, *magnitude_scores(params).layers)
    for mask in masks:
        assert_read_only(*mask.layers)


def test_global_selection_keeps_two_best_across_layers():
    scores = ScoreMap((np.array([0.5, 0.2]), np.array([0.1, 0.9])))
    mask = mask_from_scores_global(scores, 0.5)
    assert [list(c) for c in mask.layers] == [[1.0, 0.0], [0.0, 1.0]]


def test_global_selection_ties_break_by_layer_then_position():
    scores = ScoreMap((np.array([1.0, 1.0, 1.0]), np.array([1.0, 1.0])))
    mask = mask_from_scores_global(scores, 1.0 - 3.0 / 5.0)
    assert [list(c) for c in mask.layers] == [[1.0, 1.0, 1.0], [0.0, 0.0]]


def test_global_selection_rejects_emptying_and_bad_sparsity():
    scores = ScoreMap((np.array([1.0, 2.0, 3.0, 4.0, 5.0]),))
    with pytest.raises(EmptyNetworkError):
        mask_from_scores_global(scores, 0.99)
    with pytest.raises(DomainError):
        mask_from_scores_global(scores, 1.0)
    with pytest.raises(DomainError):
        mask_from_scores_global(scores, -0.1)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_global_selection_matches_full_sort_oracle(data):
    sizes = data.draw(
        st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=4)
    )
    total = sum(sizes)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    flat = rng.normal(size=total)
    p = data.draw(st.floats(min_value=0.0, max_value=0.95))
    k = round_half_up((1.0 - p) * total)
    if k == 0:
        return
    layers, start = [], 0
    for m in sizes:
        layers.append(flat[start : start + m])
        start += m
    mask = mask_from_scores_global(ScoreMap(tuple(layers)), p)

    # oracle: full sort of (score desc, flat position asc)
    order = sorted(range(total), key=lambda i: (-flat[i], i))
    expect = np.zeros(total)
    expect[order[:k]] = 1.0
    assert np.array_equal(np.concatenate(mask.layers), expect)


TIED_VALUES = {
    "small-int": st.integers(-2, 2).map(float),
    "signed-zero": st.sampled_from([-0.0, 0.0, 1.0, -1.0]),
}


def draw_tied_layers(data):
    """Score layers with many exact ties: small integers, +-0.0 mixes or constant layers."""
    sizes = data.draw(st.lists(st.integers(1, 30), min_size=1, max_size=4))
    kind = data.draw(st.sampled_from(["small-int", "signed-zero", "all-equal"]))
    if kind == "all-equal":
        return [np.full(m, data.draw(st.sampled_from([-1.0, -0.0, 0.0, 2.5]))) for m in sizes]
    return [np.array(data.draw(st.lists(TIED_VALUES[kind], min_size=m, max_size=m)))
            for m in sizes]


def sorted_pick(values, positions, k):
    """Oracle: the first k positions of a full sort on (-score, position)."""
    return sorted(positions, key=lambda i: (-values[i], i))[:k]


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_global_and_layerwise_selection_match_full_sort_under_ties(data):
    layers = draw_tied_layers(data)
    flat = np.concatenate(layers)
    total = flat.size
    scores = ScoreMap(tuple(layers))
    # mask_from_scores_global for every budget from 1 to total
    k = data.draw(st.integers(1, total))
    expect = np.zeros(total)
    expect[sorted_pick(flat, range(total), k)] = 1.0
    got = _select_global(scores, np.ones(total, dtype=bool), k)
    assert np.array_equal(np.concatenate(got.layers), expect)
    p = 1.0 - k / total
    if round_half_up((1.0 - p) * total) == k:
        got = mask_from_scores_global(scores, p)
        assert np.array_equal(np.concatenate(got.layers), expect)
    # mask_from_scores_layerwise for one quota per layer
    quotas = [data.draw(st.integers(0, s.size)) for s in layers]
    if sum(quotas) > 0:
        got = mask_from_scores_layerwise(scores, KeepRatioSchedule(
            tuple(q / s.size for q, s in zip(quotas, layers)), tuple(quotas), 0.5))
        for s, q, c in zip(layers, quotas, got.layers):
            want = np.zeros(s.size)
            want[sorted_pick(s, range(s.size), q)] = 1.0
            assert np.array_equal(c, want)


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_selection_within_an_eligible_subset_matches_full_sort_under_ties(data):
    """IMP's nested rounds choose among the weights the previous mask kept."""
    layers = draw_tied_layers(data)
    flat = np.concatenate(layers)
    within = Mask(tuple(
        np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=s.size,
                                    max_size=s.size)))
        for s in layers
    ))
    eligible = np.concatenate(within.layers) > 0
    candidates = np.flatnonzero(eligible).tolist()
    k = data.draw(st.integers(0, len(candidates)))
    expect = np.zeros(flat.size)
    expect[sorted_pick(flat, candidates, k)] = 1.0
    got = _select_global(ScoreMap(tuple(layers)), eligible, k)
    assert np.array_equal(np.concatenate(got.layers), expect)

    quotas = [data.draw(st.integers(0, int(c.sum()))) for c in within.layers]
    got = _select_layerwise(ScoreMap(tuple(layers)), within, quotas)
    for s, c, q, out in zip(layers, within.layers, quotas, got.layers):
        want = np.zeros(s.size)
        want[sorted_pick(s, np.flatnonzero(c).tolist(), q)] = 1.0
        assert np.array_equal(out, want)


def test_layerwise_selection_takes_per_layer_quota():
    scores = ScoreMap((np.array([0.3, 0.8, 0.05, 0.6]),))
    schedule = KeepRatioSchedule((0.5,), (2,), 0.5)
    mask = mask_from_scores_layerwise(scores, schedule)
    assert list(mask.layers[0]) == [0.0, 1.0, 0.0, 1.0]


def test_layerwise_selection_validates_quota_bounds():
    scores = ScoreMap((np.array([0.3, 0.8]),))
    with pytest.raises(DomainError):
        mask_from_scores_layerwise(scores, KeepRatioSchedule((1.5,), (3,), 0.0))
    with pytest.raises(AlignmentError):
        mask_from_scores_layerwise(scores, KeepRatioSchedule((0.5, 0.5), (1, 1), 0.5))
    with pytest.raises(EmptyNetworkError):
        mask_from_scores_layerwise(scores, KeepRatioSchedule((0.0,), (0,), 1.0))


def test_magnitude_scores_are_absolute_values():
    specs = (LayerSpec("dense", 2, 1, is_output=True),)
    params = LayeredParams(specs, (np.array([0.5, -0.2]),))
    scores = magnitude_scores(params)
    assert np.allclose(scores.layers[0], [0.5, 0.2])


def single_unit(w):
    specs = (LayerSpec("dense", 1, 1, is_output=True),)
    return LayeredParams(specs, (np.array([float(w)]),)), full_mask([1])


def test_snip_score_single_unit():
    params, mask = single_unit(1.0)
    scores = snip_scores(params, mask, [[2.0]], [0.0], head="squared-error")
    assert scores.layers[0][0] == pytest.approx(4.0, abs=1e-12)


def test_grasp_score_single_unit_keep_priority_sign():
    # L = w^2 / 2 has g = w and unit curvature, so w * (H g) = w^2
    params, mask = single_unit(2.0)
    scores = grasp_scores(params, mask, [[1.0]], [0.0], head="squared-error")
    assert scores.layers[0][0] == pytest.approx(4.0, abs=1e-6)


def test_grasp_rejects_zero_gradient():
    params, mask = single_unit(0.0)
    with pytest.raises(DegenerateGradientError):
        grasp_scores(params, mask, [[1.0]], [0.0], head="squared-error")


def test_grasp_keep_order_matches_removal_enumeration():
    """Keep-priority order equals brute-force single-removal gradient-flow deltas."""
    specs = (
        LayerSpec("dense", 2, 2),
        LayerSpec("dense", 2, 1, is_output=True),
    )
    sizes = layer_sizes(specs)
    ones = full_mask(sizes)
    params = build_network(specs, seed=16)
    rng = np.random.default_rng([16, 77])
    x = rng.normal(size=(5, 2))
    y = rng.integers(0, 1, size=5)

    scores = grasp_scores(params, ones, x, y, head="squared-error")
    keep = np.concatenate(scores.layers)

    def grad_norm_sq(p):
        _, tape = forward_loss(p, ones, x, y, head="squared-error")
        return float(sum(np.sum(g * g) for g in backward(tape)))

    base = grad_norm_sq(params)
    flat = np.concatenate(params.weights)
    deltas = []
    for i in range(flat.size):
        probe = flat.copy()
        probe[i] = 0.0
        split = [probe[:4], probe[4:]]
        deltas.append(grad_norm_sq(params.with_weights(split)) - base)

    got = np.argsort(-keep, kind="stable")
    want = np.argsort(np.asarray(deltas), kind="stable")
    assert np.array_equal(got, want)


def test_grasp_hg_is_exact_where_a_coarse_difference_step_crosses_a_relu():
    # The scoring batch of a conv-5 GraSP cell on 1x12x12 blobs, with the
    # dataset and cell seeds of the conv-grid benchmark workload at seed 4.
    # A central difference along the unit gradient at step 1e-5 flips one
    # ReLU between its two passes here, which threw H g off by 12.9x its
    # largest entry; at step 1e-6 no ReLU flips and the difference is exact
    # to rounding.
    shape = (1, 12, 12)
    data = synthetic_blobs(4, 144, 400, 1440266115, sample_shape=shape).train
    specs = preset_specs("conv-5", shape, 4)
    seed = 1046543613
    params = build_network(specs, seed)
    ones = full_mask(layer_sizes(specs))
    x, y, _ = score_batch(data, seed)
    _, fp = forward_loss(params, ones, x, y, sample_shape=shape)
    grads = backward(fp)
    gnorm = np.sqrt(sum(float(g @ g) for g in grads))
    unit = [g / gnorm for g in grads]
    assert relu_flips(params, ones, x, y, unit, 1e-5, sample_shape=shape) == 1
    assert relu_flips(params, ones, x, y, unit, 1e-6, sample_shape=shape) == 0

    oracle = finite_diff_hvp(params, ones, x, y, unit, 1e-6, sample_shape=shape)
    oracle = [gnorm * h for h in oracle]
    scores = grasp_scores(params, ones, x, y, sample_shape=shape)
    assert all(np.all(w != 0.0) for w in params.weights)
    hg = [s / w for s, w in zip(scores.layers, params.weights)]
    scale = max(float(np.abs(h).max()) for h in oracle)
    assert max(float(np.abs(a - b).max()) for a, b in zip(hg, oracle)) <= 1e-8 * scale


def test_random_mask_fills_quotas_exactly():
    schedule = KeepRatioSchedule((0.5, 0.25), (2, 1), 0.5)
    rng = np.random.default_rng(0)
    mask = random_mask_from_schedule(schedule, [4, 4], rng)
    assert mask.counts() == [2, 1]


def test_random_mask_is_generator_deterministic():
    schedule = KeepRatioSchedule((0.5,), (5,), 0.5)
    a = random_mask_from_schedule(schedule, [10], np.random.default_rng(42))
    b = random_mask_from_schedule(schedule, [10], np.random.default_rng(42))
    assert np.array_equal(a.layers[0], b.layers[0])


def test_random_mask_validates_quotas():
    with pytest.raises(DomainError):
        random_mask_from_schedule(
            KeepRatioSchedule((2.0,), (8,), 0.0), [4], np.random.default_rng(0)
        )
    with pytest.raises(AlignmentError):
        random_mask_from_schedule(
            KeepRatioSchedule((0.5,), (2,), 0.5), [4, 4], np.random.default_rng(0)
        )
    with pytest.raises(EmptyNetworkError):
        random_mask_from_schedule(
            KeepRatioSchedule((0.0, 0.0), (0, 0), 1.0), [4, 4], np.random.default_rng(0)
        )


@settings(deadline=None, max_examples=50)
@given(
    kept=st.lists(st.integers(0, 1), min_size=1, max_size=40),
    extra=st.lists(st.integers(0, 1), min_size=1, max_size=40),
)
def test_sparsity_plus_keep_fraction_is_one(kept, extra):
    mask = Mask((np.array(kept, dtype=float), np.array(extra, dtype=float)))
    total = mask.total_size
    weighted_keep = sum(r * c.size for r, c in zip(keep_ratios(mask), mask.layers))
    assert sparsity(mask) + weighted_keep / total == pytest.approx(1.0, abs=1e-12)


def test_score_map_refuses_no_layers():
    with pytest.raises(DomainError, match="at least one layer"):
        ScoreMap(())
