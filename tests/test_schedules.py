"""Keep-ratio schedules: raw profiles, scaling, caps, quota rounding."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prunelab import schedules
from prunelab.errors import AlignmentError, DomainError, InfeasibleSparsityError
from prunelab.models import ArchFamily, LayerSpec
from prunelab.pruning import round_half_up
from prunelab.schedules import (
    OUTPUT_KEEP_RATIO,
    SCHEDULE_KINDS,
    KeepRatioSchedule,
    _largest_remainder,
    retained_budget,
    schedule_by_name,
    smart_ratio,
    smart_raw_weights,
)


def test_raw_weights_plain():
    assert smart_raw_weights(4, ArchFamily.PLAIN) == [20.0, 12.0, 6.0]
    assert smart_raw_weights(5, ArchFamily.PLAIN) == [30.0, 20.0, 12.0, 6.0]


def test_raw_weights_fast_decay():
    raws = smart_raw_weights(4, ArchFamily.FAST_DECAY)
    assert np.allclose(raws, [20.0, 3.0, 6.0 / 9.0], atol=1e-12, rtol=0)


def test_smart_ratio_uniform_sizes_scale_factor_case():
    # hidden budget 68 over raw-weighted mass 6800 scales raws by 0.01
    sched = smart_ratio([100, 100, 100, 100, 50], None, 1.0 - 83.0 / 450.0)
    assert np.allclose(sched.ratios, [0.30, 0.20, 0.12, 0.06, 0.3], atol=1e-12, rtol=0)
    assert sched.quotas == (30, 20, 12, 6, 15)


def test_smart_ratio_cap_pushes_surplus_deeper():
    sched = smart_ratio([10, 100, 40], None, 1.0 - 112.0 / 150.0)
    assert sched.quotas == (10, 90, 12)
    assert np.allclose(sched.ratios, [1.0, 0.9, 0.3], atol=1e-12, rtol=0)


def test_smart_ratio_surplus_can_reach_the_output_layer():
    sched = smart_ratio([2, 4, 100], None, 0.05)
    assert sched.quotas == (2, 4, 95)
    assert sched.total_kept == retained_budget([2, 4, 100], 0.05)


def test_smart_ratio_output_pin_in_easy_case():
    sched = smart_ratio([100, 100, 100, 100, 50], None, 1.0 - 83.0 / 450.0)
    assert sched.quotas[-1] == round_half_up(OUTPUT_KEEP_RATIO * 50)


def test_smart_ratio_hidden_ratios_decrease_with_depth():
    sched = smart_ratio([384, 1152, 4608, 384], None, 0.9)
    hidden = sched.ratios[:-1]
    assert all(a > b for a, b in zip(hidden, hidden[1:]))


def test_smart_ratio_infeasible_when_budget_below_output_pin():
    with pytest.raises(InfeasibleSparsityError):
        smart_ratio([4, 4, 100], None, 0.95)


def test_schedule_input_validation():
    with pytest.raises(DomainError):
        smart_ratio([100], None, 0.5)
    with pytest.raises(DomainError):
        smart_ratio([100, 50], None, 0.0)
    with pytest.raises(DomainError):
        smart_ratio([100, 50], None, 1.0)
    with pytest.raises(DomainError):
        smart_ratio([100, 0], None, 0.5)
    specs = (LayerSpec("dense", 4, 4), LayerSpec("dense", 4, 2, is_output=True))
    with pytest.raises(AlignmentError):
        smart_ratio([16, 8, 4], specs, 0.5)


@pytest.mark.parametrize("kind", SCHEDULE_KINDS)
@pytest.mark.parametrize("sizes, sparsity", [
    ([100.9, 50.7], 0.5),  # not truncated to [100, 50]
    ([True, 4, 10], 0.5),  # not a 1-weight layer
    ([100, "50"], 0.5),
    ([100, 50], "0.5"),
    ([100, 50], None),
    ([100, 50], True),
], ids=["float-sizes", "bool-size", "str-size", "str-sparsity", "none-sparsity",
        "bool-sparsity"])
def test_schedules_refuse_a_size_or_sparsity_of_the_wrong_type(kind, sizes, sparsity):
    with pytest.raises(DomainError):
        schedule_by_name(kind, sizes, None, sparsity)
    with pytest.raises(DomainError):
        retained_budget(sizes, sparsity)


def test_schedules_take_numpy_sizes_and_sparsities():
    want = smart_ratio([100, 50], None, 0.5)
    assert smart_ratio(np.array([100, 50]), None, np.float64(0.5)) == want
    assert retained_budget(np.array([100, 50]), np.float32(0.5)) == want.total_kept


def test_ablation_linear_and_cubic_raw_profiles():
    lin = schedule_by_name("linear", [100, 100, 100, 50], None, 0.9)
    cub = schedule_by_name("cubic", [100, 100, 100, 50], None, 0.9)
    # proportionality survives uniform sizes: ratios follow the raw profile
    assert lin.ratios[0] / lin.ratios[2] == pytest.approx(4.0 / 2.0, rel=0.15)
    assert cub.ratios[0] / cub.ratios[2] == pytest.approx(64.0 / 8.0, rel=0.3)


def test_ablation_balanced_equalizes_hidden_quotas():
    bal = schedule_by_name("balanced", [200, 200, 200, 50], None, 0.9)
    hidden = bal.quotas[:-1]
    assert max(hidden) - min(hidden) <= 1


def test_ablation_ascending_reverses_the_hidden_profile():
    asc = schedule_by_name("ascending", [100, 100, 100, 100, 50], None, 1.0 - 83.0 / 450.0)
    assert np.allclose(asc.ratios[:-1], [0.06, 0.12, 0.20, 0.30], atol=1e-12, rtol=0)
    assert asc.quotas == (6, 12, 20, 30, 15)


def test_ablation_ascending_keeps_budget_on_uneven_sizes():
    sizes = [384, 1152, 4608, 384]
    asc = schedule_by_name("ascending", sizes, None, 0.9)
    assert asc.total_kept == retained_budget(sizes, 0.9)


def test_schedule_by_name_dispatch_and_rejection():
    sizes = [100, 100, 50]
    assert schedule_by_name("smart", sizes, None, 0.9).quotas == smart_ratio(
        sizes, None, 0.9
    ).quotas
    with pytest.raises(DomainError):
        schedule_by_name("golden", sizes, None, 0.9)
    for kind in SCHEDULE_KINDS:
        with pytest.raises(DomainError, match="unknown family"):
            schedule_by_name(kind, sizes, None, 0.9, "plian")
    with pytest.raises(DomainError, match="unknown family"):
        smart_ratio(sizes, None, 0.9, "plian")
    with pytest.raises(DomainError, match="unknown family"):
        smart_raw_weights(4, "x")


def test_schedule_kind_registry():
    assert set(SCHEDULE_KINDS) == {"smart", "balanced", "ascending", "linear", "cubic"}


def test_keep_ratio_schedule_validates_lengths():
    with pytest.raises(AlignmentError):
        KeepRatioSchedule((0.5, 0.5), (1,), 0.5)


@pytest.mark.parametrize("kind", ["smart", "balanced", "ascending", "linear", "cubic"])
def test_every_schedule_kind_gives_an_output_only_budget_to_the_output(kind):
    # 20 weights at sparsity 0.875 keep 3, exactly the pinned output quota.
    sched = schedule_by_name(kind, [10, 10], None, 0.875)
    assert sched.quotas == (0, 3)


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_every_schedule_kind_hits_the_budget_exactly(data):
    depth = data.draw(st.integers(min_value=2, max_value=6))
    sizes = data.draw(
        st.lists(st.integers(min_value=10, max_value=2000), min_size=depth, max_size=depth)
    )
    p = data.draw(st.floats(min_value=0.3, max_value=0.97))
    family = data.draw(st.sampled_from(list(ArchFamily)))
    budget = retained_budget(sizes, p)
    if budget < OUTPUT_KEEP_RATIO * sizes[-1]:
        with pytest.raises(InfeasibleSparsityError):
            smart_ratio(sizes, None, p, family)
        return
    for kind in ("smart", "balanced", "ascending", "linear", "cubic"):
        sched = schedule_by_name(kind, sizes, None, p, family)
        assert sched.total_kept == budget, (kind, sizes, p)
        assert all(0 <= q <= m for q, m in zip(sched.quotas, sizes)), (kind, sizes, p)
        assert all(
            q == pytest.approx(r * m, abs=1e-9)
            for q, r, m in zip(sched.quotas, sched.ratios, sizes)
        )


def test_largest_remainder_fills_in_layer_order_once_the_fractions_run_out():
    # The three large fractions sit at their caps: the fraction pass gives the last layer
    # one weight, and the fill loop gives it the other two.
    assert _largest_remainder([2.9, 2.9, 2.9, 0.3], [2, 2, 2, 10], 9) == [2, 2, 2, 3]


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_every_profile_scales_to_reals_that_sum_to_the_budget(data):
    # _largest_remainder relies on this: the floors of such reals never exceed the budget.
    depth = data.draw(st.integers(min_value=2, max_value=7))
    sizes = data.draw(
        st.lists(st.integers(min_value=1, max_value=5000), min_size=depth, max_size=depth)
    )
    p = data.draw(st.floats(min_value=0.01, max_value=0.99))
    real_retained, seen = schedules._real_retained, []

    def spy(*args):
        seen.append(real_retained(*args))
        return seen[-1]

    with mock.patch.object(schedules, "_real_retained", spy):
        for kind in SCHEDULE_KINDS:
            for family in ArchFamily:
                try:
                    schedule_by_name(kind, sizes, None, p, family)
                except InfeasibleSparsityError:  # the budget is below the output pin
                    assert retained_budget(sizes, p) < OUTPUT_KEEP_RATIO * sizes[-1]
    for reals, budget in seen:
        assert sum(reals) == pytest.approx(budget, abs=1e-6), (sizes, p)
