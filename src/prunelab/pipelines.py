"""Ticket pipelines: masked SGD training, ticket constructors, checkpoints.

A ticket is (mask, weights, provenance): everything needed to retrain a
pruned network.  Constructors cover score-at-init tickets (snip, grasp),
magnitude tickets from a pretrained network (reset to init, weight rewinding,
fresh-schedule retraining of trained weights, layerwise schedule-constrained
pruning), schedule-driven random tickets, and iterative magnitude pruning.

Training is plain SGD with momentum and weight decay.  Gradients and the
decay term are zeroed at masked positions every step, so masked weights are
bit-exactly inert.
"""

from __future__ import annotations

import io
import json
import struct
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import seeding
from .data import DataSplit
from .engine import backward, forward_loss
from .errors import (
    AlignmentError,
    DatasetError,
    DomainError,
    InfeasibleSparsityError,
    NumericsError,
    PrunelabError,
    TrainingDivergedError,
)
from .checks import (
    DATA_CHECKS,
    STRUCTURAL_CHECKS,
    apply_data_check,
    rearrange_mask_layerwise,
    shuffle_unmasked_weights,
)
from .models import ArchFamily, LayeredParams, LayerSpec, accuracy, build_network, layer_sizes
from .pruning import (
    _select_global,
    Mask,
    ScoreMap,
    full_mask,
    grasp_scores,
    keep_ratios,
    magnitude_scores,
    mask_from_scores_global,
    mask_from_scores_layerwise,
    random_mask_from_schedule,
    round_half_up,
    snip_scores,
)
from .schedules import _largest_remainder, retained_budget, schedule_by_name, smart_ratio

SCORE_BATCH_SIZE = 128

TICKET_KINDS = (
    "dense",
    "snip",
    "grasp",
    "random",
    "lt",
    "weight-rewind",
    "lr-rewind",
    "hybrid",
    "imp",
)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 40
    batch_size: int = 64
    initial_lr: float = 0.1
    lr_drop_factor: float = 0.1
    lr_drop_points: tuple[float, ...] = (0.5, 0.75)
    weight_decay: float = 1e-4
    momentum: float = 0.9
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "lr_drop_points", tuple(float(p) for p in self.lr_drop_points))
        if self.epochs < 0 or self.batch_size < 1:
            raise DomainError("epochs must be >= 0 and batch_size >= 1")
        if self.initial_lr <= 0 or self.lr_drop_factor <= 0:
            raise DomainError("learning rates and drop factor must be positive")
        if self.weight_decay < 0 or self.momentum < 0:
            raise DomainError("weight decay and momentum must be non-negative")
        pts = self.lr_drop_points
        if any(not (0.0 < p < 1.0) for p in pts) or list(pts) != sorted(set(pts)):
            raise DomainError("lr_drop_points must be strictly increasing within (0, 1)")

    def to_dict(self):
        d = asdict(self)
        d["lr_drop_points"] = list(self.lr_drop_points)
        return d

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        if "lr_drop_points" in d:
            d["lr_drop_points"] = tuple(d["lr_drop_points"])
        return cls(**d)


@dataclass(frozen=True)
class Checkpoint:
    """Weights captured after `epoch` full epochs (0 means initialization)."""

    epoch: int
    weights: LayeredParams
    rng_state: dict


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    lr: float
    loss: float
    accuracy: float | None


@dataclass(frozen=True)
class TrainResult:
    params: LayeredParams
    history: tuple[EpochStats, ...]
    checkpoints: dict


@dataclass(frozen=True)
class Ticket:
    mask: Mask
    weights: LayeredParams
    provenance: dict

    def __post_init__(self):
        if len(self.mask.layers) != len(self.weights.weights):
            raise AlignmentError("ticket mask and weights have different layer counts")
        for i, (c, w) in enumerate(zip(self.mask.layers, self.weights.weights)):
            if c.size != w.size:
                raise AlignmentError(
                    f"layer {i}: ticket mask has {c.size} entries for {w.size} weights"
                )


def learning_rate_at(cfg, epoch) -> float:
    """Step schedule: drop by lr_drop_factor at each floor(point * epochs)."""
    boundaries = [int(p * cfg.epochs) for p in cfg.lr_drop_points]
    passed = sum(1 for b in boundaries if epoch >= b)
    return cfg.initial_lr * cfg.lr_drop_factor**passed


def train(
    params,
    mask,
    data,
    cfg,
    checkpoint_epochs=(),
    *,
    eval_data=None,
    schedule_offset=0,
) -> TrainResult:
    """Masked SGD with momentum and weight decay.

    `schedule_offset` shifts the learning-rate schedule: retraining epoch t
    uses the rate of schedule epoch min(offset + t, epochs - 1), which lets a
    rewound ticket resume the schedule where its checkpoint left off.
    """
    if len(mask.layers) != len(params.weights):
        raise AlignmentError("mask and params have different layer counts")
    for i, (c, w) in enumerate(zip(mask.layers, params.weights)):
        if c.shape != w.shape:
            raise AlignmentError(f"layer {i}: mask and weights are misaligned")
    if schedule_offset < 0:
        raise DomainError("schedule_offset must be >= 0")
    checkpoint_epochs = set(int(e) for e in checkpoint_epochs)
    for e in checkpoint_epochs:
        if e < 0 or e > cfg.epochs:
            raise DomainError(f"checkpoint epoch {e} outside [0, {cfg.epochs}]")

    rng = seeding.stream(cfg.seed, seeding.BATCH_SHUFFLE)
    w = [x.copy() for x in params.weights]
    vel = [np.zeros_like(x) for x in w]
    n = data.n
    shape = data.sample_shape_for_net()
    checkpoints = {}

    def snapshot(epoch):
        checkpoints[epoch] = Checkpoint(
            epoch, params.with_weights([x.copy() for x in w]), rng.bit_generator.state
        )

    if 0 in checkpoint_epochs:
        snapshot(0)

    history = []
    for epoch in range(cfg.epochs):
        lr = learning_rate_at(cfg, min(schedule_offset + epoch, max(cfg.epochs - 1, 0)))
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            cur = params.with_weights(w)
            try:
                loss, tape = forward_loss(
                    cur, mask, data.samples[idx], data.labels[idx], sample_shape=shape
                )
            except NumericsError as exc:
                raise TrainingDivergedError(str(exc), epoch) from None
            grads = backward(tape)
            losses.append(loss)
            for l, (g, c) in enumerate(zip(grads, mask.layers)):
                step = (g + cfg.weight_decay * w[l]) * c
                vel[l] = cfg.momentum * vel[l] + step
                w[l] = w[l] - lr * vel[l]
        acc = None
        if eval_data is not None:
            acc = accuracy(params.with_weights(w), mask, eval_data)
        history.append(EpochStats(epoch, lr, float(np.mean(losses)), acc))
        if epoch + 1 in checkpoint_epochs:
            snapshot(epoch + 1)

    final = params.with_weights(w)
    for l, x in enumerate(final.weights):
        if not np.isfinite(x).all():
            raise TrainingDivergedError(
                f"layer {l} weights became non-finite", max(cfg.epochs - 1, 0)
            )
    return TrainResult(final, tuple(history), checkpoints)


def best_accuracy(result, params_if_empty=None, mask=None, eval_data=None) -> float:
    """Best per-epoch eval accuracy of a run, in [0, 1]."""
    accs = [h.accuracy for h in result.history if h.accuracy is not None]
    if accs:
        return max(accs)
    if params_if_empty is not None and eval_data is not None:
        return accuracy(params_if_empty, mask, eval_data)
    raise DomainError("run recorded no accuracies and no fallback was given")


def score_batch(data, seed):
    """One fixed scoring batch: 128 samples, or the whole set if smaller."""
    if data.n <= SCORE_BATCH_SIZE:
        idx = np.arange(data.n)
    else:
        idx = seeding.stream(seed, seeding.SCORE_BATCH).choice(
            data.n, SCORE_BATCH_SIZE, replace=False
        )
    return data.samples[idx], data.labels[idx], idx


def _arch_provenance(specs):
    return [
        {
            "kind": s.kind,
            "fan_in": s.fan_in,
            "fan_out": s.fan_out,
            "kernel": list(s.kernel) if s.kernel else None,
            "is_output": s.is_output,
        }
        for s in specs
    ]


def make_initial_ticket(kind, specs, data, target_sparsity, seed) -> Ticket:
    """Score a fresh initialization on one batch and prune globally."""
    if kind not in ("snip", "grasp"):
        raise DomainError(f"initial tickets support snip or grasp, not {kind!r}")
    params = build_network(specs, seed)
    ones = full_mask(layer_sizes(specs))
    samples, labels, idx = score_batch(data, seed)
    shape = data.sample_shape_for_net()
    if kind == "snip":
        scores = snip_scores(params, ones, samples, labels, sample_shape=shape)
    else:
        scores = grasp_scores(params, ones, samples, labels, sample_shape=shape)
    mask = mask_from_scores_global(scores, target_sparsity)
    return Ticket(
        mask,
        params,
        {
            "kind": kind,
            "criterion": kind,
            "sparsity": float(target_sparsity),
            "seed": int(seed),
            "score_batch": [int(i) for i in idx],
            "arch": _arch_provenance(specs),
        },
    )


def _pretrain(specs, data, cfg, seed, checkpoint_epochs):
    init = build_network(specs, seed)
    run_cfg = replace(cfg, seed=seeding.combine(seed, seeding.PRETRAIN))
    ones = full_mask(layer_sizes(specs))
    result = train(init, ones, data, run_cfg, checkpoint_epochs=checkpoint_epochs)
    return init, run_cfg, result


def _magnitude_mask(params, target_sparsity, preserve_output_layer):
    scores = magnitude_scores(params)
    if not preserve_output_layer:
        return mask_from_scores_global(scores, target_sparsity)
    sizes = layer_sizes(params)
    budget = round_half_up((1.0 - target_sparsity) * sum(sizes))
    if budget < sizes[-1]:
        raise InfeasibleSparsityError(
            f"budget {budget} cannot cover the preserved output layer ({sizes[-1]})"
        )
    hidden = _select_global(
        ScoreMap(scores.layers[:-1]), np.ones(sum(sizes[:-1]), dtype=bool), budget - sizes[-1]
    )
    return Mask(hidden.layers + (np.ones(sizes[-1]),))


def make_lt_ticket(
    specs, data, target_sparsity, pretrain_cfg, seed, *, preserve_output_layer=False
) -> Ticket:
    """Pretrain, prune by final magnitude, reset weights to initialization."""
    _, run_cfg, result = _pretrain(
        specs, data, pretrain_cfg, seed, checkpoint_epochs=(0, pretrain_cfg.epochs)
    )
    mask = _magnitude_mask(result.params, target_sparsity, preserve_output_layer)
    return Ticket(
        mask,
        result.checkpoints[0].weights,
        {
            "kind": "lt",
            "criterion": "magnitude",
            "sparsity": float(target_sparsity),
            "seed": int(seed),
            "preserve_output_layer": bool(preserve_output_layer),
            "pretrain": run_cfg.to_dict(),
            "source_checkpoints": {0: result.checkpoints[0],
                                   pretrain_cfg.epochs: result.checkpoints[pretrain_cfg.epochs]},
            "arch": _arch_provenance(specs),
        },
    )


def make_weight_rewind_ticket(
    specs, data, target_sparsity, pretrain_cfg, rewind_epoch, seed, *, preserve_output_layer=False
) -> Ticket:
    """Final-magnitude mask with weights rewound to an earlier checkpoint.

    Retraining should resume the learning-rate schedule at the rewind epoch;
    the offset is recorded in provenance for the retraining caller.
    """
    rewind_epoch = int(rewind_epoch)
    if rewind_epoch < 0 or rewind_epoch > pretrain_cfg.epochs:
        raise DomainError(f"rewind epoch {rewind_epoch} outside [0, {pretrain_cfg.epochs}]")
    _, run_cfg, result = _pretrain(
        specs, data, pretrain_cfg, seed,
        checkpoint_epochs={0, rewind_epoch, pretrain_cfg.epochs},
    )
    mask = _magnitude_mask(result.params, target_sparsity, preserve_output_layer)
    ticket = Ticket(
        mask,
        result.params,
        {
            "kind": "weight-rewind",
            "criterion": "magnitude",
            "sparsity": float(target_sparsity),
            "seed": int(seed),
            "rewind_epoch": rewind_epoch,
            "preserve_output_layer": bool(preserve_output_layer),
            "pretrain": run_cfg.to_dict(),
            "source_checkpoints": dict(result.checkpoints),
            "arch": _arch_provenance(specs),
        },
    )
    return rewind_weights(ticket, result.checkpoints[rewind_epoch])


def rewind_weights(ticket, checkpoint) -> Ticket:
    """Swap a ticket's weights for an earlier checkpoint's, keeping its mask."""
    if len(checkpoint.weights.weights) != len(ticket.mask.layers):
        raise AlignmentError("checkpoint does not align with the ticket mask")
    prov = dict(ticket.provenance)
    prov["rewound_to_epoch"] = int(checkpoint.epoch)
    prov["schedule_offset"] = int(checkpoint.epoch)
    return Ticket(ticket.mask, checkpoint.weights, prov)


def make_lr_rewind_ticket(
    specs, data, target_sparsity, pretrain_cfg, seed, *, preserve_output_layer=False
) -> Ticket:
    """Final-magnitude mask, trained weights kept, schedule restarted fresh."""
    _, run_cfg, result = _pretrain(
        specs, data, pretrain_cfg, seed, checkpoint_epochs=(0, pretrain_cfg.epochs)
    )
    mask = _magnitude_mask(result.params, target_sparsity, preserve_output_layer)
    return Ticket(
        mask,
        result.params,
        {
            "kind": "lr-rewind",
            "criterion": "magnitude",
            "sparsity": float(target_sparsity),
            "seed": int(seed),
            "preserve_output_layer": bool(preserve_output_layer),
            "pretrain": run_cfg.to_dict(),
            "source_checkpoints": dict(result.checkpoints),
            "schedule_offset": 0,
            "arch": _arch_provenance(specs),
        },
    )


def make_hybrid_ticket(
    specs, data, target_sparsity, pretrain_cfg, seed, family=ArchFamily.PLAIN
) -> Ticket:
    """Layerwise magnitude pruning of a trained network under schedule quotas."""
    _, run_cfg, result = _pretrain(
        specs, data, pretrain_cfg, seed, checkpoint_epochs=(0, pretrain_cfg.epochs)
    )
    schedule = smart_ratio(layer_sizes(specs), specs, target_sparsity, family)
    mask = mask_from_scores_layerwise(magnitude_scores(result.params), schedule)
    return Ticket(
        mask,
        result.params,
        {
            "kind": "hybrid",
            "criterion": "magnitude",
            "schedule": "smart",
            "family": ArchFamily(family).value,
            "sparsity": float(target_sparsity),
            "seed": int(seed),
            "pretrain": run_cfg.to_dict(),
            "schedule_offset": 0,
            "arch": _arch_provenance(specs),
        },
    )


def make_random_ticket(
    specs, target_sparsity, family, seed, schedule_kind="smart"
) -> Ticket:
    """Schedule-driven random mask over a fresh initialization; data-free."""
    sizes = layer_sizes(specs)
    schedule = schedule_by_name(schedule_kind, sizes, specs, target_sparsity, family)
    params = build_network(specs, seed)
    mask = random_mask_from_schedule(
        schedule, sizes, seeding.stream(seed, seeding.RANDOM_MASK)
    )
    return Ticket(
        mask,
        params,
        {
            "kind": "random",
            "criterion": "random",
            "schedule": schedule_kind,
            "family": ArchFamily(family).value,
            "sparsity": float(target_sparsity),
            "seed": int(seed),
            "arch": _arch_provenance(specs),
        },
    )


IMP_MODES = ("reset", "lr-rewind", "hybrid")


def iterative_magnitude_prune(
    specs,
    data,
    target_sparsity,
    round_fraction,
    pretrain_cfg,
    mode,
    seed,
    family=ArchFamily.PLAIN,
) -> Ticket:
    """Train-prune rounds until the target sparsity is reached.

    Each round removes `round_fraction` of the surviving weights (globally by
    trained magnitude for reset and lr-rewind; layerwise for hybrid, with
    per-layer quotas interpolated linearly between dense counts and the final
    depth-weighted schedule).  reset restarts every round from the epoch-0
    weights, the other modes continue from the trained weights.  Masks are
    nested: pruning only ever removes.
    """
    if mode not in IMP_MODES:
        raise DomainError(f"unknown round mode {mode!r}; choose from {IMP_MODES}")
    if not (0.0 < round_fraction < 1.0):
        raise DomainError("round fraction must lie in (0, 1)")
    if not (0.0 < target_sparsity < 1.0):
        raise DomainError("target sparsity must lie in (0, 1)")

    sizes = layer_sizes(specs)
    total = sum(sizes)
    budget = retained_budget(sizes, target_sparsity)
    if budget == 0:
        raise InfeasibleSparsityError("target sparsity would empty the whole network")

    init = build_network(specs, seed)
    mask = full_mask(sizes)
    weights = init
    survivors = total
    final_schedule = smart_ratio(sizes, specs, target_sparsity, family) if mode == "hybrid" else None
    prev_quotas = list(sizes)
    rounds = 0

    while survivors > budget:
        rounds += 1
        run_cfg = replace(
            pretrain_cfg, seed=seeding.combine(seed, seeding.IMP_ROUND, rounds)
        )
        result = train(weights, mask, data, run_cfg)
        trained = result.params
        next_n = max(round_half_up((1.0 - round_fraction) * survivors), budget)
        scores = magnitude_scores(trained)
        if mode == "hybrid":
            t = (total - next_n) / (total - budget)
            reals = [m - t * (m - q) for m, q in zip(sizes, final_schedule.quotas)]
            quotas = _largest_remainder(reals, prev_quotas, next_n)
            new_layers = []
            for s, c, q in zip(scores.layers, mask.layers, quotas):
                eligible = c > 0
                masked = np.where(eligible, s, -np.inf)
                keep = np.argsort(-masked, kind="stable")[:q]
                nc = np.zeros(s.size)
                nc[keep] = 1.0
                new_layers.append(nc)
            new_mask = Mask(tuple(new_layers))
            prev_quotas = quotas
        else:
            eligible = np.concatenate([c > 0 for c in mask.layers])
            new_mask = _select_global(scores, eligible, next_n)
        for old, new in zip(mask.layers, new_mask.layers):
            assert not ((new == 1.0) & (old == 0.0)).any(), "pruning must only remove"
        mask = new_mask
        survivors = next_n
        weights = init if mode == "reset" else trained

    return Ticket(
        mask,
        weights,
        {
            "kind": "imp",
            "mode": mode,
            "criterion": "magnitude",
            "family": ArchFamily(family).value,
            "sparsity": float(target_sparsity),
            "round_fraction": float(round_fraction),
            "rounds": rounds,
            "seed": int(seed),
            "pretrain": pretrain_cfg.to_dict(),
            "schedule_offset": 0,
            "arch": _arch_provenance(specs),
        },
    )


def build_ticket(kind, specs, split, target_sparsity, seed, cfg, params=None) -> Ticket:
    """Construct a ticket by pipeline kind; `params` carries kind options.

    `split` may be a DataSplit or a train Dataset; data-free kinds accept
    None.  Recognized params: family, schedule, preserve_output_layer,
    rewind_epoch, round_fraction, mode.
    """
    params = dict(params or {})
    family = ArchFamily(params.get("family", "plain"))
    data = split.train if isinstance(split, DataSplit) else split
    if kind == "dense":
        return Ticket(
            full_mask(layer_sizes(specs)),
            build_network(specs, seed),
            {"kind": "dense", "sparsity": 0.0, "seed": int(seed),
             "arch": _arch_provenance(specs)},
        )
    if kind == "random":
        return make_random_ticket(
            specs, target_sparsity, family, seed, schedule_kind=params.get("schedule", "smart")
        )
    if data is None:
        raise DomainError(f"pipeline {kind!r} needs data")
    if kind in ("snip", "grasp"):
        return make_initial_ticket(kind, specs, data, target_sparsity, seed)
    if kind == "lt":
        return make_lt_ticket(
            specs, data, target_sparsity, cfg, seed,
            preserve_output_layer=bool(params.get("preserve_output_layer", False)),
        )
    if kind == "weight-rewind":
        return make_weight_rewind_ticket(
            specs, data, target_sparsity, cfg,
            params.get("rewind_epoch", max(cfg.epochs // 10, 1)), seed,
            preserve_output_layer=bool(params.get("preserve_output_layer", False)),
        )
    if kind == "lr-rewind":
        return make_lr_rewind_ticket(
            specs, data, target_sparsity, cfg, seed,
            preserve_output_layer=bool(params.get("preserve_output_layer", False)),
        )
    if kind == "hybrid":
        return make_hybrid_ticket(specs, data, target_sparsity, cfg, seed, family)
    if kind == "imp":
        return iterative_magnitude_prune(
            specs, data, target_sparsity, float(params.get("round_fraction", 0.2)),
            cfg, params.get("mode", "reset"), seed, family,
        )
    raise DomainError(f"unknown pipeline kind {kind!r}; choose from {TICKET_KINDS}")


def replay_ticket(provenance, specs, split) -> Ticket:
    """Rebuild a ticket from its provenance record."""
    kind = provenance["kind"]
    cfg = (
        TrainConfig.from_dict(provenance["pretrain"])
        if "pretrain" in provenance
        else TrainConfig()
    )
    if "pretrain" in provenance:
        # build_ticket re-derives the pretraining seed from the ticket seed.
        cfg = replace(cfg, seed=0)
    return build_ticket(
        kind if kind != "imp" else "imp",
        specs,
        split,
        provenance.get("sparsity", 0.0),
        provenance["seed"],
        cfg,
        params={
            k: provenance[k]
            for k in ("family", "schedule", "preserve_output_layer", "rewind_epoch",
                      "round_fraction", "mode")
            if k in provenance
        },
    )


def apply_structural_check(ticket, check, rng) -> Ticket:
    """Attack a finished ticket's mask placement or weight values."""
    prov = dict(ticket.provenance)
    prov.setdefault("checks", [])
    prov["checks"] = list(prov["checks"]) + [check]
    if check == "rearrange":
        return Ticket(rearrange_mask_layerwise(ticket.mask, rng), ticket.weights, prov)
    if check == "shuffle-weights":
        return Ticket(
            ticket.mask, shuffle_unmasked_weights(ticket.weights, ticket.mask, rng), prov
        )
    raise DomainError(f"unknown structural check {check!r}; choose from {STRUCTURAL_CHECKS}")


@dataclass(frozen=True)
class CellResult:
    """One retrained ticket: the unit of every report row."""

    accuracy: float  # percent, best epoch
    keep: tuple[float, ...]
    collapsed: bool
    ticket: Ticket


def run_cell(
    kind, pipeline_params, check, split, specs, target_sparsity, seed, train_cfg
) -> CellResult:
    """Build one ticket under one check, retrain on clean data, measure."""
    check = check or "none"
    check_rng = seeding.stream(seed, seeding.CHECK, _check_tag(check))
    prune_data = split.train
    if check in DATA_CHECKS:
        prune_data = apply_data_check(check, split.train, check_rng)
    ticket = build_ticket(
        kind, specs, DataSplit(prune_data, split.test), target_sparsity, seed, train_cfg,
        params=pipeline_params,
    )
    if check in STRUCTURAL_CHECKS:
        ticket = apply_structural_check(ticket, check, check_rng)

    rcfg = replace(train_cfg, seed=seeding.combine(seed, seeding.RETRAIN))
    offset = int(ticket.provenance.get("schedule_offset", 0))
    result = train(
        ticket.weights, ticket.mask, split.train, rcfg,
        eval_data=split.test, schedule_offset=offset,
    )
    best = best_accuracy(result, ticket.weights, ticket.mask, split.test)
    ratios = keep_ratios(ticket.mask)
    return CellResult(100.0 * best, tuple(ratios), any(r == 0.0 for r in ratios), ticket)


def _check_tag(check):
    names = ("none",) + DATA_CHECKS + STRUCTURAL_CHECKS
    if check not in names:
        raise DomainError(f"unknown check {check!r}; choose from {names}")
    return names.index(check)


@dataclass(frozen=True)
class SuiteReport:
    details: tuple[dict, ...]
    summary: tuple[dict, ...]


def run_sanity_suite(
    kind, checks, split, specs, *, sparsities, seeds, train_cfg, pipeline_params=None
) -> SuiteReport:
    """Baseline plus each check, across sparsities and seeds.

    Returns per-run detail rows and per-(check, sparsity) mean and sample
    standard deviation of the best test accuracy.
    """
    checks = list(checks)
    for c in checks:
        _check_tag(c)
    details = []
    summary = []
    for target in sparsities:
        for check in ["none"] + checks:
            accs = []
            for seed in seeds:
                cell = run_cell(
                    kind, pipeline_params, check, split, specs, target, seed, train_cfg
                )
                accs.append(cell.accuracy)
                details.append(
                    {
                        "pipeline": kind,
                        "check": check,
                        "sparsity": float(target),
                        "seed": int(seed),
                        "accuracy": cell.accuracy,
                        "keep": list(cell.keep),
                        "collapsed": cell.collapsed,
                    }
                )
            summary.append(
                {
                    "pipeline": kind,
                    "check": check,
                    "sparsity": float(target),
                    "mean": float(np.mean(accs)),
                    "std": float(np.std(accs, ddof=1)) if len(accs) > 1 else 0.0,
                    "n": len(accs),
                }
            )
    return SuiteReport(tuple(details), tuple(summary))


CHECKPOINT_MAGIC = b"PLCKPT01"
TICKET_MAGIC = b"PLTCKT01"
CONTAINER_VERSION = 1


def _pack_array(arr):
    data = np.asarray(arr, dtype="<f8").tobytes()
    return struct.pack("<Q", len(data)) + data


def _take(buf, offset, nbytes, path):
    end = offset + nbytes
    if end > len(buf):
        raise DatasetError(
            f"{path}: truncated: {nbytes} bytes needed at byte {offset}, file has {len(buf)}"
        )
    return buf[offset:end], end


def _unpack(fmt, buf, offset, path):
    raw, offset = _take(buf, offset, struct.calcsize(fmt), path)
    return struct.unpack(fmt, raw), offset


def _unpack_array(buf, offset, count, path):
    (nbytes,), offset = _unpack("<Q", buf, offset, path)
    if nbytes != 8 * count:
        raise DatasetError(
            f"{path}: array at byte {offset - 8} holds {nbytes} bytes, its layer needs {8 * count}"
        )
    raw, offset = _take(buf, offset, nbytes, path)
    return np.frombuffer(raw, dtype="<f8").astype(np.float64), offset


def _pack_json(obj):
    data = json.dumps(obj, sort_keys=True).encode("utf-8")
    return struct.pack("<Q", len(data)) + data


def _unpack_json(buf, offset, path):
    (nbytes,), offset = _unpack("<Q", buf, offset, path)
    raw, end = _take(buf, offset, nbytes, path)
    try:
        return json.loads(raw.decode("utf-8")), end
    except ValueError as exc:
        raise DatasetError(f"{path}: bad JSON at byte {offset}: {exc}") from None


def _jsonable_rng_state(state):
    def conv(v):
        if isinstance(v, dict):
            return {k: conv(x) for k, x in v.items()}
        if isinstance(v, np.ndarray):
            return {"__ndarray__": v.tolist(), "dtype": str(v.dtype)}
        if isinstance(v, (np.integer,)):
            return int(v)
        return v

    return conv(state)


def _restore_rng_state(state):
    def conv(v):
        if isinstance(v, dict):
            if "__ndarray__" in v:
                return np.asarray(v["__ndarray__"], dtype=v["dtype"])
            return {k: conv(x) for k, x in v.items()}
        return v

    return conv(state)


def save_checkpoint(checkpoint, path):
    """Versioned binary container; round-trips bit-exactly."""
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<II", CONTAINER_VERSION, checkpoint.epoch))
    buf.write(_pack_json(_arch_provenance(checkpoint.weights.specs)))
    buf.write(struct.pack("<I", len(checkpoint.weights.weights)))
    for w in checkpoint.weights.weights:
        buf.write(_pack_array(w))
    buf.write(_pack_json(_jsonable_rng_state(checkpoint.rng_state)))
    with open(path, "wb") as f:
        f.write(buf.getvalue())


def _read_container(path, magic, what):
    """The file's bytes and the offset just past its magic and version."""
    with open(path, "rb") as f:
        buf = f.read()
    if buf[:8] != magic:
        raise DatasetError(f"{path}: bad {what} magic at byte 0")
    (version,), offset = _unpack("<I", buf, 8, path)
    if version != CONTAINER_VERSION:
        raise DatasetError(f"{path}: unsupported {what} version {version}")
    return buf, offset


def _read_layers(buf, offset, arch, arrays_per_layer, path):
    """Specs from an arch record, then each layer's arrays sized by its spec."""
    try:
        specs = tuple(
            LayerSpec(
                a["kind"], a["fan_in"], a["fan_out"],
                kernel=tuple(a["kernel"]) if a.get("kernel") else None,
                is_output=a["is_output"],
            )
            for a in arch
        )
    except (KeyError, TypeError, ValueError, PrunelabError) as exc:
        raise DatasetError(f"{path}: bad architecture record: {exc}") from None
    (n_layers,), offset = _unpack("<I", buf, offset, path)
    if n_layers != len(specs):
        raise DatasetError(f"{path}: {n_layers} layers stored for {len(specs)} specs")
    layers = []
    for spec in specs:
        arrays = []
        for _ in range(arrays_per_layer):
            arr, offset = _unpack_array(buf, offset, spec.weight_count, path)
            arrays.append(arr)
        layers.append(arrays)
    return specs, layers, offset


def _check_end(buf, offset, path):
    if offset != len(buf):
        raise DatasetError(f"{path}: {len(buf) - offset} trailing bytes after byte {offset}")


def load_checkpoint(path) -> Checkpoint:
    buf, offset = _read_container(path, CHECKPOINT_MAGIC, "checkpoint")
    (epoch,), offset = _unpack("<I", buf, offset, path)
    arch, offset = _unpack_json(buf, offset, path)
    specs, layers, offset = _read_layers(buf, offset, arch, 1, path)
    state, offset = _unpack_json(buf, offset, path)
    _check_end(buf, offset, path)
    try:
        weights = LayeredParams(specs, tuple(w for (w,) in layers))
        return Checkpoint(epoch, weights, _restore_rng_state(state))
    except (KeyError, TypeError, ValueError, PrunelabError) as exc:
        raise DatasetError(f"{path}: {exc}") from None


def _jsonable_provenance(prov):
    out = {}
    for k, v in prov.items():
        if k == "source_checkpoints":
            out["source_checkpoint_epochs"] = sorted(int(e) for e in v)
        else:
            out[k] = v
    return out


def save_ticket(ticket, path):
    buf = io.BytesIO()
    buf.write(TICKET_MAGIC)
    buf.write(struct.pack("<I", CONTAINER_VERSION))
    buf.write(_pack_json(_arch_provenance(ticket.weights.specs)))
    buf.write(_pack_json(_jsonable_provenance(ticket.provenance)))
    buf.write(struct.pack("<I", len(ticket.weights.weights)))
    for w, c in zip(ticket.weights.weights, ticket.mask.layers):
        buf.write(_pack_array(w))
        buf.write(_pack_array(c))
    with open(path, "wb") as f:
        f.write(buf.getvalue())


def load_ticket(path) -> Ticket:
    buf, offset = _read_container(path, TICKET_MAGIC, "ticket")
    arch, offset = _unpack_json(buf, offset, path)
    prov, offset = _unpack_json(buf, offset, path)
    if not isinstance(prov, dict):
        raise DatasetError(f"{path}: provenance is not a JSON object")
    specs, layers, offset = _read_layers(buf, offset, arch, 2, path)
    _check_end(buf, offset, path)
    try:
        weights = LayeredParams(specs, tuple(w for w, _ in layers))
        return Ticket(Mask(tuple(c for _, c in layers)), weights, prov)
    except PrunelabError as exc:
        raise DatasetError(f"{path}: {exc}") from None
