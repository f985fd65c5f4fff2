"""Layerwise keep-ratio schedules.

The main schedule assigns each non-output layer a keep-ratio proportional to
a depth-dependent raw weight, pins the output layer at a 30% keep-ratio, and
rescales so the whole network retains exactly round((1 - p) * total) weights.
With layers indexed l = 1..L (L counts every conv and dense layer):

    raw(l) = (L - l + 1)^2 + (L - l + 1)          plain stacks
    raw(l) = ((L - l + 1)^2 + (L - l + 1)) / l^2   fast-decay stacks

Keep-ratios above 1 are capped and the surplus retained count cascades to the
next deeper layer until absorbed.  Integer quotas come from largest-remainder
rounding, ties by layer index, so the retained total is hit exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .data import _is_int, _is_number
from .errors import AlignmentError, DomainError, InfeasibleSparsityError
from .models import FAMILIES, ArchFamily
from .pruning import retained_budget

OUTPUT_KEEP_RATIO = 0.3

SCHEDULE_KINDS = ("smart", "balanced", "ascending", "linear", "cubic")


@dataclass(frozen=True)
class KeepRatioSchedule:
    """Finalized per-layer keep plan; ratios[l] == quotas[l] / m_l."""

    ratios: tuple[float, ...]
    quotas: tuple[int, ...]
    target_sparsity: float

    def __post_init__(self):
        object.__setattr__(self, "ratios", tuple(float(r) for r in self.ratios))
        object.__setattr__(self, "quotas", tuple(int(q) for q in self.quotas))
        if len(self.ratios) != len(self.quotas):
            raise AlignmentError("ratios and quotas must have equal length")

    @property
    def total_kept(self) -> int:
        return sum(self.quotas)


def _family(family) -> ArchFamily:
    try:
        return ArchFamily(family)
    except ValueError:
        raise DomainError(f"unknown family {family!r}; expected one of {FAMILIES}") from None


def smart_raw_weights(total_layers, family) -> list[float]:
    """raw(l) for the non-output layers l = 1..L-1."""
    family = _family(family)
    raws = []
    for l in range(1, total_layers):
        r = float((total_layers - l + 1) ** 2 + (total_layers - l + 1))
        if family is ArchFamily.FAST_DECAY:
            r /= float(l * l)
        raws.append(r)
    return raws


def _real_retained(raws, sizes, target_sparsity):
    """Real-valued retained counts per layer after scaling and cap cascade."""
    budget = retained_budget(sizes, target_sparsity)
    out_real = OUTPUT_KEEP_RATIO * sizes[-1]
    hidden_budget = budget - out_real
    if hidden_budget < 0:
        raise InfeasibleSparsityError(
            f"retained budget {budget} is below the pinned output quota {out_real:.1f}"
        )
    denom = sum(r * m for r, m in zip(raws, sizes[:-1]))
    # With no hidden budget the ascending profile's raws are all zero, and so is denom.
    alpha = hidden_budget / denom if hidden_budget else 0.0
    reals = [alpha * r * m for r, m in zip(raws, sizes[:-1])] + [out_real]

    # Cap cascade: surplus retained count moves to the next deeper layer.
    carry = 0.0
    capped = []
    for k, m in zip(reals, sizes):
        k += carry
        if k > m:
            carry = k - m
            k = float(m)
        else:
            carry = 0.0
        capped.append(k)
    # Surplus that ran past the output wraps back into remaining headroom, so
    # any budget that fits the network at all is still hit exactly.
    if carry > 0.0:
        for i in range(len(capped) - 1, -1, -1):
            room = sizes[i] - capped[i]
            if room <= 0.0:
                continue
            absorbed = min(room, carry)
            capped[i] += absorbed
            carry -= absorbed
            if carry <= 0.0:
                break
    if carry > 0.5:
        raise InfeasibleSparsityError(
            f"{carry:.1f} retained weights cannot be absorbed even at keep-ratio 1"
        )
    return capped, budget


def _largest_remainder(reals, caps, total) -> list[int]:
    """Integer quotas summing to `total`, each at most its cap.

    The reals must sum to `total` up to float dust, so their floors never
    exceed it and only ever need raising.
    """
    floors = [min(int(math.floor(k)), c) for k, c in zip(reals, caps)]
    rem = total - sum(floors)
    by_fraction = sorted(
        range(len(reals)), key=lambda i: (-(reals[i] - math.floor(reals[i])), i)
    )
    for i in by_fraction:
        if rem == 0:
            break
        if floors[i] < caps[i]:
            floors[i] += 1
            rem -= 1
    if rem > 0:
        for i in range(len(floors)):
            while rem > 0 and floors[i] < caps[i]:
                floors[i] += 1
                rem -= 1
    if rem > 0:
        raise InfeasibleSparsityError("quota budget exceeds total capacity")
    return floors


def smart_ratio(sizes, specs, target_sparsity, family=ArchFamily.PLAIN) -> KeepRatioSchedule:
    """Depth-weighted schedule: most retained near the input, 30% at the output."""
    return schedule_by_name("smart", sizes, specs, target_sparsity, family)


def schedule_by_name(kind, sizes, specs, target_sparsity, family=ArchFamily.PLAIN):
    """Dispatch on the schedule-kind names; every profile shares scale-cap-round.

    smart: the main schedule (`smart_ratio`).
    balanced: flat raw, so every hidden layer gets the same keep-ratio.
    ascending: the main schedule's hidden ratio sequence reversed.
    linear: raw(l) = L - l + 1.  cubic: raw(l) = (L - l + 1)^3.
    """
    if kind not in SCHEDULE_KINDS:
        raise DomainError(f"unknown schedule kind {kind!r}; choose from {SCHEDULE_KINDS}")
    sizes = list(sizes)
    if not all(_is_int(m) for m in sizes):
        raise DomainError(f"layer sizes must be integers, not {sizes}")
    sizes = [int(m) for m in sizes]
    if len(sizes) < 2:
        raise DomainError("schedules need at least two layers")
    if any(m < 1 for m in sizes):
        raise DomainError("layer sizes must be positive")
    if specs is not None and len(specs) != len(sizes):
        raise AlignmentError(f"{len(specs)} specs but {len(sizes)} sizes")
    if not (_is_number(target_sparsity) and 0.0 < target_sparsity < 1.0):
        raise DomainError("target sparsity must lie in (0, 1)")
    n = len(sizes)
    smart = smart_raw_weights(n, family)  # also refuses an unknown family
    if kind == "smart":
        raws = smart
    elif kind == "balanced":
        raws = [1.0] * (n - 1)
    elif kind == "linear":
        raws = [float(n - l + 1) for l in range(1, n)]
    elif kind == "cubic":
        raws = [float((n - l + 1) ** 3) for l in range(1, n)]
    else:
        reals, _ = _real_retained(smart, sizes, target_sparsity)
        raws = [k / m for k, m in zip(reals[:-1], sizes[:-1])][::-1]
    reals, budget = _real_retained(raws, sizes, target_sparsity)
    quotas = _largest_remainder(reals, sizes, budget)
    ratios = tuple(q / m for q, m in zip(quotas, sizes))
    return KeepRatioSchedule(ratios, tuple(quotas), target_sparsity)
