"""Ticket pipelines: masked SGD training, ticket construction, the ticket file.

A ticket is (mask, weights, provenance): everything needed to retrain a
pruned network.  `build_ticket` constructs every kind: the dense network,
schedule-driven random tickets, score-at-init tickets (snip, grasp),
magnitude tickets from a pretrained network (a table row per kind: reset to
init, weight rewinding, fresh-schedule retraining of trained weights,
layerwise schedule-constrained pruning), and iterative magnitude pruning.
It also applies a ticket's sanity checks: at most one data check on the
pruning data, then structural checks on the built ticket, all drawn from one
check seed that provenance records, so `replay_ticket` rebuilds any ticket.

Training is plain SGD with momentum and weight decay.  A run checks its
data once, then steps compact vectors over the mask's kept positions (the
weights, their gradient, velocity and update) and keeps one flat buffer of
masked weights w * c, refreshed at the kept positions after each step, for
the engine's pass to read.  The full weight buffer is written back once
per epoch, at the kept positions only, so masked weights are never written
and stay bit-exactly inert.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import MISSING, dataclass, replace
from functools import partial

import numpy as np

from . import seeding
from .data import DataSplit, _at_least, _is_non_negative, _is_number, field_keys, read_keys
# forward_loss is bound here too, so a tracer that patches it by name finds it
from .engine import SOFTMAX_XENT, _checked, _loss_pass, backward, check_alignment, forward_loss
from .errors import (
    DatasetError,
    DomainError,
    InfeasibleSparsityError,
    NumericsError,
    PrunelabError,
    TrainingDivergedError,
)
from .checks import (
    CHECK_NAMES,
    DATA_CHECKS,
    STRUCTURAL_CHECKS,
    apply_data_check,
    rearrange_mask_layerwise,
    shuffle_unmasked_weights,
)
from .models import FAMILIES, LayeredParams, LayerSpec, accuracy, build_network, layer_sizes, record
from .pruning import (
    _select_global,
    _select_layerwise,
    Mask,
    ScoreMap,
    full_mask,
    grasp_scores,
    keep_ratios,
    magnitude_scores,
    mask_from_scores_global,
    mask_from_scores_layerwise,
    random_mask_from_schedule,
    retained_budget,
    round_half_up,
    snip_scores,
)
from .schedules import SCHEDULE_KINDS, _largest_remainder, schedule_by_name, smart_ratio

SCORE_BATCH_SIZE = 128
IMP_MODES = ("reset", "lr-rewind", "hybrid")


# Each pipeline option: its default, the values it takes, and a test for them.
# A rewind_epoch of None leaves the epoch to `_trained_ticket`, which knows the run.
OPTIONS = {
    "family": ("plain", f"one of {FAMILIES}", lambda v: v in FAMILIES),
    "schedule": ("smart", f"one of {SCHEDULE_KINDS}", lambda v: v in SCHEDULE_KINDS),
    "mode": ("reset", f"one of {IMP_MODES}", lambda v: v in IMP_MODES),
    "rewind_epoch": (None, "an integer >= 0", _at_least(0)),
    "preserve_output_layer": (False, "true or false", lambda v: isinstance(v, bool)),
    "round_fraction": (0.2, "a number in (0, 1)", lambda v: _is_number(v) and 0.0 < v < 1.0),
}
# Each pipeline kind and the options `build_ticket` reads for it.
PIPELINE_OPTIONS = {
    "dense": (),
    "snip": (),
    "grasp": (),
    "random": ("family", "schedule"),
    "lt": ("preserve_output_layer",),
    "weight-rewind": ("rewind_epoch", "preserve_output_layer"),
    "lr-rewind": ("preserve_output_layer",),
    "hybrid": ("family",),
    "imp": ("round_fraction", "mode", "family"),
}
TICKET_KINDS = tuple(PIPELINE_OPTIONS)
DATA_FREE_KINDS = ("dense", "random")


def pipeline_options(kind, params):
    """The options `kind` reads from `params`, defaults filled in.

    Options pass the one key gate, `data.read_keys`, as every mapping read
    from outside does: a key that `kind` does not read, or a value its
    option does not take, raises DomainError.
    """
    if kind not in TICKET_KINDS:  # a tuple, so an unhashable kind fails here too
        raise DomainError(f"unknown pipeline kind {kind!r}; choose from {TICKET_KINDS}")
    table = {key: OPTIONS[key] for key in PIPELINE_OPTIONS[kind]}
    return read_keys(f"pipeline {kind!r}", "takes no option", table, params, DomainError)


@dataclass(frozen=True)
class TrainConfig:
    """SGD settings; every field passes `TRAIN_KEYS` through `data.read_keys`."""

    epochs: int = 40
    batch_size: int = 64
    initial_lr: float = 0.1
    lr_drop_factor: float = 0.1
    lr_drop_points: tuple[float, ...] = (0.5, 0.75)
    weight_decay: float = 1e-4
    momentum: float = 0.9
    seed: int = 0

    def __post_init__(self):
        read_keys("train config", "takes no key", TRAIN_KEYS, vars(self), DomainError)
        object.__setattr__(self, "lr_drop_points", tuple(float(p) for p in self.lr_drop_points))

    def to_dict(self):
        return record(self)

    @classmethod
    def from_dict(cls, d):
        """The config `to_dict` gave `d`; a mapping `TRAIN_KEYS` refuses raises DomainError."""
        return cls(**read_keys("train config", "takes no key", TRAIN_KEYS, d, DomainError))


def _is_drop_points(v):
    return (isinstance(v, (list, tuple)) and all(_is_number(p) and 0.0 < p < 1.0 for p in v)
            and list(v) == sorted(set(v)))


# Each train config field: the values it takes and a test for them.
TRAIN_KEYS = field_keys(TrainConfig, {
    "epochs": ("an integer >= 0", _at_least(0)),
    "batch_size": ("an integer >= 1", _at_least(1)),
    "initial_lr": ("a finite number > 0", lambda v: _is_number(v) and v > 0),
    "lr_drop_factor": ("a finite number > 0", lambda v: _is_number(v) and v > 0),
    "lr_drop_points": ("a strictly increasing list of finite numbers in (0, 1)", _is_drop_points),
    "weight_decay": ("a finite number >= 0", _is_non_negative),
    "momentum": ("a finite number >= 0", _is_non_negative),
    "seed": ("an integer >= 0", _at_least(0)),
})


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
    checkpoints: dict  # epoch -> LayeredParams after that many epochs (0: the init)


@dataclass(frozen=True)
class Ticket:
    mask: Mask
    weights: LayeredParams
    provenance: dict

    def __post_init__(self):
        check_alignment(self.weights, self.mask)


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
    rewound ticket resume the schedule where its checkpoint left off.  Zero
    epochs return `params` itself, with no history.
    """
    check_alignment(params, mask)
    if schedule_offset < 0:
        raise DomainError("schedule_offset must be >= 0")
    checkpoint_epochs = set(int(e) for e in checkpoint_epochs)
    for e in checkpoint_epochs:
        if e < 0 or e > cfg.epochs:
            raise DomainError(f"checkpoint epoch {e} outside [0, {cfg.epochs}]")
    if cfg.epochs:
        cur, history, checkpoints = _sgd(params, mask, data, cfg, checkpoint_epochs,
                                         eval_data, schedule_offset)
    else:
        cur, history, checkpoints = params, (), {0: params} if 0 in checkpoint_epochs else {}
    for l, w in enumerate(cur.weights):
        if not np.isfinite(w).all():
            raise TrainingDivergedError(
                f"layer {l} weights became non-finite", max(cfg.epochs - 1, 0)
            )
    return TrainResult(cur, tuple(history), checkpoints)


def _sgd(params, mask, data, cfg, checkpoint_epochs, eval_data, schedule_offset):
    """`train`'s epochs; returns (trained params, history, checkpoints).

    The SGD state lives on the kept positions only: the kept weights, their
    gradient, velocity and update are compact vectors over `kept`.  One
    flat buffer holds the masked weights w * c that each step's pass reads;
    a step refreshes it at the kept positions, where c is 1, so no step
    multiplies by the mask.  The full weight buffer, which `cur` views, is
    written back once per epoch, so masked-out weights are never written.
    Under a full mask the compact vectors are the full buffers themselves,
    and w * c is w, which spares a step its full-length gather and scatter.
    """
    samples, target = _checked(params, mask, data.samples, data.labels, data.sample_shape)
    rng = seeding.stream(cfg.seed, seeding.BATCH_SHUFFLE)
    weights = np.concatenate(params.weights)
    keep = np.concatenate(mask.layers)
    kept = np.flatnonzero(keep)
    grad = np.empty_like(weights)
    sparse = kept.size < weights.size
    if sparse:
        w, g, masked = weights[kept], np.empty(kept.size), weights * keep
    else:
        w, g, masked = weights, grad, weights
    vel = np.zeros_like(w)
    step = np.empty_like(w)
    bounds = np.cumsum([x.size for x in params.weights])[:-1]
    cs = [c.reshape(spec.shape) for c, spec in zip(mask.layers, params.specs)]
    ws = [x.reshape(c.shape) for x, c in zip(np.split(masked, bounds), cs)]
    grads = np.split(grad, bounds)
    cur = params.with_weights(np.split(weights, bounds))
    checkpoints = {0: params} if 0 in checkpoint_epochs else {}
    history = []
    tape = None  # each step and evaluation refills the spent step's conv patch buffers
    for epoch in range(cfg.epochs):
        lr = learning_rate_at(cfg, min(schedule_offset + epoch, cfg.epochs - 1))
        order = rng.permutation(data.n)
        losses = []
        for start in range(0, data.n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            try:
                loss, tape = _loss_pass(ws, cs, samples[idx], target[idx], SOFTMAX_XENT,
                                        data.sample_shape, tape)
            except NumericsError as exc:
                raise TrainingDivergedError(str(exc), epoch) from None
            backward(tape, grads)
            losses.append(loss)
            # step = g + wd * w;  vel = m * vel + step;  w = w - lr * vel, on the
            # kept positions, where the mask's factor 1.0 changes no bit
            if sparse:
                np.take(grad, kept, out=g)
            np.multiply(w, cfg.weight_decay, out=step)
            step += g
            vel *= cfg.momentum
            vel += step
            np.multiply(vel, lr, out=step)
            w -= step
            if sparse:
                masked[kept] = w
        if sparse:
            weights[kept] = w
        acc = None
        if eval_data is not None:
            acc = accuracy(cur, mask, eval_data, reuse=tape)
        history.append(EpochStats(epoch, lr, float(np.mean(losses)), acc))
        if epoch + 1 in checkpoint_epochs:
            checkpoints[epoch + 1] = params.with_weights([x.copy() for x in cur.weights])
    return cur, history, checkpoints


def score_batch(data, seed):
    """One fixed scoring batch: 128 samples, or the whole set if smaller.

    Returns (samples, labels, index); the index is read-only, because a
    memo keeps it with the scores.
    """
    if data.n <= SCORE_BATCH_SIZE:
        idx = np.arange(data.n)
    else:
        idx = seeding.stream(seed, seeding.SCORE_BATCH).choice(
            data.n, SCORE_BATCH_SIZE, replace=False
        )
    idx.flags.writeable = False
    return data.samples[idx], data.labels[idx], idx


def _init_scores(kind, specs, data, seed):
    """(init, its snip or grasp scores on `data`'s scoring batch, that batch's indices)."""
    init = build_network(specs, seed)
    samples, labels, idx = score_batch(data, seed)
    score = snip_scores if kind == "snip" else grasp_scores
    scores = score(init, full_mask(layer_sizes(specs)), samples, labels,
                   sample_shape=data.sample_shape)
    return init, scores, idx


def _header(kind, specs, target_sparsity, seed, **fields):
    """The provenance every ticket starts with, then its kind's own `fields`."""
    return {"kind": kind, "sparsity": float(target_sparsity), "seed": int(seed),
            "arch": [record(s) for s in specs], **fields}


def _shared(memo, key, make):
    """`memo[key]`, which a miss sets to `make()`; without a memo, just `make()`.

    Every later hit shares the kept value, whose arrays are read-only by
    type.  A `make()` that raises keeps nothing.  `build_ticket` describes
    the memo's layout.
    """
    if memo is None:
        return make()
    if key not in memo:
        memo[key] = make()
    return memo[key]


def _held(held, group):
    """The entries the bucket `held` keeps for `group`, after dropping another group's.

    A grid runs the cells of one pipeline together inside each pruning data,
    so a bucket keeps the entries of only the pipeline now running on it.
    Without a bucket there are no entries, and the result is None.
    """
    if held is None:
        return None
    if held.get("pipeline", (None,))[0] != group:
        held["pipeline"] = (group, {})
    return held["pipeline"][1]


def pruning_data_name(kind, check, check_seed):
    """The memo's name for the data a `kind` ticket under `check` prunes on.

    It is (data check, check seed), or ("none", None) for clean data, which
    is the same under every check seed.  A structural check prunes on clean
    data, and so does a data-free kind under any check.
    """
    if check in DATA_CHECKS and kind not in DATA_FREE_KINDS:
        return (check, check_seed)
    return ("none", None)


def _pruning_data(data, check, check_seed, held):
    """The train Dataset `data` under data check `check` ("none" leaves it clean).

    `held` is the memo bucket of this pruning data, or None.
    """
    if check == "none":
        return data
    return _shared(held, "data",
                   lambda: apply_data_check(check, data, check_stream(check_seed, check)))


def _pretrain(specs, pruning, cfg, seed, checkpoint_epochs, *, memo=None):
    """Dense pretraining; returns (run config, TrainResult).

    `pruning()` returns the pretraining data, and only a miss calls it.
    `memo` is the memo bucket of that pruning data.
    """
    run_cfg = replace(cfg, seed=seeding.combine(seed, seeding.PRETRAIN))
    result = _shared(
        memo, (tuple(specs), cfg, seed, frozenset(checkpoint_epochs)),
        lambda: train(build_network(specs, seed), full_mask(layer_sizes(specs)), pruning(),
                      run_cfg, checkpoint_epochs=checkpoint_epochs),
    )
    return run_cfg, result


# Trained-magnitude tickets all pretrain densely and prune by trained
# magnitude.  Each kind's row says how it masks, which weights it keeps and
# where retraining picks up the learning-rate schedule:
#   mask: "global" top-k over the whole network (the output layer kept whole
#     under preserve_output_layer), or "smart" quotas filled layer by layer;
#   weights: a pretraining epoch, "rewind" (the rewind epoch) or "trained"
#     (the final weights);
#   offset: the schedule offset recorded for retraining; "rewind" is the
#     rewind epoch and None records none, which retraining reads as 0.
TRAINED_TICKETS = {
    "lt": ("global", 0, None),
    "weight-rewind": ("global", "rewind", "rewind"),
    "lr-rewind": ("global", "trained", 0),
    "hybrid": ("smart", "trained", 0),
}


def _trained_ticket(kind, specs, pruning, target_sparsity, cfg, seed, opts, memo) -> Ticket:
    """Pretrain densely on `pruning` data, prune by trained magnitude as `kind`'s row says.

    `opts` are the kind's filled options (see `pipeline_options`), and `memo`
    is the pruning data's memo bucket, or None.
    """
    rule, kept, offset = TRAINED_TICKETS[kind]
    epochs = {0, cfg.epochs}
    prov = _header(kind, specs, target_sparsity, seed, criterion="magnitude", **opts)
    if kept == "rewind":
        kept = opts["rewind_epoch"]
        kept = offset = max(cfg.epochs // 10, 1) if kept is None else kept
        if kept > cfg.epochs:
            raise DomainError(f"rewind epoch {kept} outside [0, {cfg.epochs}]")
        epochs.add(kept)
        prov.update(rewind_epoch=kept, rewound_to_epoch=kept)
    run_cfg, result = _pretrain(specs, pruning, cfg, seed, epochs, memo=memo)
    if rule == "smart":
        schedule = smart_ratio(layer_sizes(specs), specs, target_sparsity, opts["family"])
        mask = mask_from_scores_layerwise(magnitude_scores(result.params), schedule)
        prov["schedule"] = "smart"
    else:
        keep_output = opts["preserve_output_layer"]
        mask = _global_magnitude_mask(result.params, target_sparsity, keep_output)
        prov["source_checkpoint_epochs"] = sorted(result.checkpoints)
    if offset is not None:
        prov["schedule_offset"] = offset
    prov["pretrain"] = run_cfg.to_dict()
    weights = result.params if kept == "trained" else result.checkpoints[kept]
    return Ticket(mask, weights, prov)


def _global_magnitude_mask(params, target_sparsity, preserve_output_layer):
    scores = magnitude_scores(params)
    if not preserve_output_layer:
        return mask_from_scores_global(scores, target_sparsity)
    if not (0.0 <= target_sparsity < 1.0):
        raise DomainError("target sparsity must lie in [0, 1)")
    sizes = layer_sizes(params)
    budget = retained_budget(sizes, target_sparsity)
    if budget < sizes[-1]:
        raise InfeasibleSparsityError(
            f"budget {budget} cannot cover the preserved output layer ({sizes[-1]})"
        )
    hidden = _select_global(
        ScoreMap(scores.layers[:-1]), np.ones(sum(sizes[:-1]), dtype=bool), budget - sizes[-1]
    )
    return Mask(hidden.layers + (np.ones(sizes[-1]),))


@dataclass(frozen=True)
class _ImpState:
    """A point on an IMP path: after `rounds` rounds `mask` keeps `survivors`
    weights, and the next round trains `weights`; `trained` is that
    training's result once it has run."""

    rounds: int
    survivors: int
    mask: Mask
    weights: LayeredParams
    trained: LayeredParams | None = None


def _imp_ticket(specs, pruning, target_sparsity, cfg, seed, opts, paths=None) -> Ticket:
    """Train-prune rounds until the target sparsity is reached.

    Each round removes `round_fraction` of the surviving weights (globally by
    trained magnitude for reset and lr-rewind; layerwise for hybrid, with
    per-layer quotas interpolated linearly between dense counts and the final
    depth-weighted schedule).  reset restarts every round from the epoch-0
    weights, the other modes continue from the trained weights.  Masks are
    nested: pruning only ever removes.  `opts` are the kind's filled options
    (see `pipeline_options`).  `pruning()` returns the pruning data, and only
    a round that trains calls it.

    `paths` is the memo's entries for this pipeline on its pruning data, or
    None.  Under ("imp", seed) they hold the deepest target-free state of
    the reset or lr-rewind path reached so far, with the training run from
    it once one has: no budget clamped a round before it, so every target
    reaches it the same way.  A target whose budget is at most the held
    survivors resumes there; any other target walks from the init.  Hybrid
    rounds interpolate toward the target's own schedule, so hybrid holds
    nothing.
    """
    if not (0.0 < target_sparsity < 1.0):
        raise DomainError("target sparsity must lie in (0, 1)")
    opts = {**opts, "round_fraction": float(opts["round_fraction"])}
    mode, round_fraction = opts["mode"], opts["round_fraction"]

    sizes = layer_sizes(specs)
    total = sum(sizes)
    budget = retained_budget(sizes, target_sparsity)
    if budget == 0:
        raise InfeasibleSparsityError("target sparsity would empty the whole network")
    key = ("imp", seed)
    if mode == "hybrid":
        paths = None
        final_schedule = smart_ratio(sizes, specs, target_sparsity, opts["family"])
        prev_quotas = list(sizes)

    def hold(state):
        """Keep `state` as the frontier, unless the held one is deeper."""
        if paths is not None and (key not in paths or paths[key].survivors >= state.survivors):
            paths[key] = state

    state = None if paths is None else paths.get(key)
    if state is None or budget > state.survivors:
        state = _ImpState(0, total, full_mask(sizes), build_network(specs, seed))
    while state.survivors > budget:
        trained = state.trained
        if trained is None:
            run_cfg = replace(cfg, seed=seeding.combine(seed, seeding.IMP_ROUND, state.rounds + 1))
            trained = train(state.weights, state.mask, pruning(), run_cfg).params
            hold(replace(state, trained=trained))
        # Each round removes at least one weight, even where rounding would keep all.
        free_n = min(round_half_up((1.0 - round_fraction) * state.survivors), state.survivors - 1)
        next_n = max(free_n, budget)
        scores = magnitude_scores(trained)
        if mode == "hybrid":
            t = (total - next_n) / (total - budget)
            reals = [m - t * (m - q) for m, q in zip(sizes, final_schedule.quotas)]
            prev_quotas = _largest_remainder(reals, prev_quotas, next_n)
            mask = _select_layerwise(scores, state.mask, prev_quotas)
        else:
            mask = _select_global(scores, np.concatenate(state.mask.layers) > 0, next_n)
        for old, new in zip(state.mask.layers, mask.layers):
            assert not ((new == 1.0) & (old == 0.0)).any(), "pruning must only remove"
        # reset's weights are the init in every state.
        weights = state.weights if mode == "reset" else trained
        state = _ImpState(state.rounds + 1, next_n, mask, weights)
        if next_n == free_n:
            hold(state)

    return Ticket(state.mask, state.weights, _header(
        "imp", specs, target_sparsity, seed, criterion="magnitude", **opts, rounds=state.rounds,
        pretrain=cfg.to_dict(), schedule_offset=0,
    ))


def build_ticket(
    kind, specs, data, target_sparsity, seed, cfg, params=None, checks=(), *,
    check_seed=None, memo=None,
) -> Ticket:
    """Construct a ticket by pipeline kind under sanity `checks`.

    `data` is a DataSplit or its train Dataset; data-free kinds accept None.
    `params` carries kind options, checked and filled by `pipeline_options`,
    and provenance records the filled options.  Each check draws from
    `check_stream(check_seed, check)`; `check_seed` defaults to the ticket
    seed, as in a grid cell.  A data check corrupts the pruning data, and
    runs only when the ticket reads its data; structural checks then attack
    the built ticket in order (see `apply_structural_check`).  Provenance
    lists the checks applied under "checks" and, when there are any, their
    seed under "check_seed", so `replay_ticket` rebuilds the ticket exactly.

    `memo` is a dict shared by tickets built from the same data, or None.
    Every value it keeps is deterministic in its key, and its arrays are
    read-only by type: `Dataset`, `Mask`, `ScoreMap` and `LayeredParams`
    hold read-only arrays, and so does `score_batch`'s index.  It maps each
    pruning data's name (see `pruning_data_name`) to a bucket that holds
    everything kept for that data:
      - its corrupted train set under "data";
      - its pretraining runs under (specs, train config, seed, checkpoint
        epochs);
      - under "pipeline", one (group, entries) pair for the pipeline now
        running on that data.  The group is (kind, options, specs, train
        config), and the entries are keyed:
          ("scores", seed): the snip or grasp (init, scores, batch index)
            that serve every sparsity;
          ("imp", seed): the frontier of the IMP path that every sparsity
            stops on (see `_imp_ticket`);
          (sparsity, seed): on clean data, the ticket that structural
            checks attack;
          ("cell", sparsity, seed): `run_cell`'s result for that ticket.
    A grid runs its cells grouped by pruning data, and inside each by
    pipeline, then ascending sparsity, so each IMP path is walked once.  A
    new group replaces the bucket's old one (see `_held`), and after the
    last cell on a pruning data the grid drops its bucket.
    """
    opts = pipeline_options(kind, params or {})
    if not _is_number(target_sparsity):
        raise DomainError(f"target sparsity must be a real number, not {target_sparsity!r}")
    data = data.train if isinstance(data, DataSplit) else data
    if kind not in DATA_FREE_KINDS and data is None:
        raise DomainError(f"pipeline {kind!r} needs data")
    if not set(checks) <= set(CHECK_NAMES):
        raise DomainError(f"unknown check in {list(checks)}; choose from {CHECK_NAMES}")
    data_checks = [c for c in checks if c in DATA_CHECKS and kind not in DATA_FREE_KINDS]
    if len(data_checks) > 1:
        raise DomainError("a ticket takes at most one data check")
    check_seed = seed if check_seed is None else check_seed
    for s in (seed, check_seed):
        seeding._key(s, ())  # refuses a non-integer seed before a memo takes True for 1
    data_check = data_checks[0] if data_checks else "none"
    name = pruning_data_name(kind, data_check, check_seed)
    held = None if memo is None else memo.setdefault(name, {})
    entries = _held(held, (kind, tuple(opts.items()), tuple(specs), cfg))
    pruning = partial(_pruning_data, data, data_check, check_seed, held)
    sizes = layer_sizes(specs)

    def build():
        if kind in TRAINED_TICKETS:
            return _trained_ticket(kind, specs, pruning, target_sparsity, cfg, seed, opts, held)
        if kind == "imp":
            return _imp_ticket(specs, pruning, target_sparsity, cfg, seed, opts, entries)
        if kind == "dense":
            prov = _header(kind, specs, 0, seed)
            return Ticket(full_mask(sizes), build_network(specs, seed), prov)
        if kind == "random":
            schedule = schedule_by_name(
                opts["schedule"], sizes, specs, target_sparsity, opts["family"]
            )
            init = build_network(specs, seed)
            rng = seeding.stream(seed, seeding.RANDOM_MASK)
            mask = random_mask_from_schedule(schedule, sizes, rng)
            prov = _header(kind, specs, target_sparsity, seed, criterion=kind, **opts)
            return Ticket(mask, init, prov)
        # Score a fresh initialization on one batch and prune globally.  The
        # scores do not depend on the sparsity, so the memo keeps them.
        init, scores, idx = _shared(entries, ("scores", seed),
                                    lambda: _init_scores(kind, specs, pruning(), seed))
        return Ticket(mask_from_scores_global(scores, target_sparsity), init, _header(
            kind, specs, target_sparsity, seed, criterion=kind, score_batch=[int(i) for i in idx]
        ))

    # Only a ticket built on clean data is kept: structural checks attack it.
    clean = entries if data_check == "none" else None
    ticket = _shared(clean, (target_sparsity, seed), build)
    if data_checks:
        ticket = replace(ticket, provenance={
            **ticket.provenance, "checks": data_checks, "check_seed": int(check_seed)})
    for c in checks:
        if c in STRUCTURAL_CHECKS:
            ticket = apply_structural_check(ticket, c, check_seed)
    return ticket


# The values a list of check names takes, and a test for them: a config's
# "checks" and a provenance's.
CHECK_LIST = (f"a list of checks from {CHECK_NAMES}",
              lambda v: isinstance(v, (list, tuple)) and all(c in CHECK_NAMES for c in v))
# The provenance keys `read_provenance` reads besides the kind's options and
# "pretrain", as `read_keys` takes them.  Its other keys only describe the ticket.
PROVENANCE_KEYS = {
    "kind": (MISSING, f"one of {TICKET_KINDS}", lambda v: v in TICKET_KINDS),
    "sparsity": (0.0, "a number in [0, 1)", lambda v: _is_number(v) and 0.0 <= v < 1.0),
    "seed": (MISSING, "an integer >= 0", _at_least(0)),
    "checks": ((), *CHECK_LIST),
    "check_seed": (None, "an integer >= 0", _at_least(0)),
}


def read_provenance(provenance):
    """The `build_ticket` arguments that a provenance record names, by keyword.

    This is the one reading of a provenance, for `replay_ticket` and
    `load_ticket`.  A record that is not a mapping, a key `PROVENANCE_KEYS`
    refuses, an option the kind does not take (see `pipeline_options`), or
    a "pretrain" that `TrainConfig.from_dict` refuses raises DomainError,
    whose message starts "provenance".
    """
    if not isinstance(provenance, dict):
        raise DomainError(f"provenance must be a mapping, not {provenance!r}")
    read = read_keys("provenance", "takes no key", PROVENANCE_KEYS,
                     {k: provenance[k] for k in PROVENANCE_KEYS if k in provenance}, DomainError)
    params = {k: provenance[k] for k in PIPELINE_OPTIONS[read["kind"]] if k in provenance}
    try:
        pipeline_options(read["kind"], params)
        cfg = TrainConfig.from_dict(provenance.get("pretrain", {}))
    except DomainError as exc:
        raise DomainError(f"provenance: {exc}") from None
    return dict(kind=read["kind"], target_sparsity=read["sparsity"], seed=read["seed"], cfg=cfg,
                params=params, checks=read["checks"], check_seed=read["check_seed"])


def replay_ticket(provenance, specs, data) -> Ticket:
    """Rebuild a ticket from its provenance record and the `data` it was built on.

    `data` is as for `build_ticket`.  The recorded checks run again from the
    recorded check seed, so a checked ticket replays bit for bit.  A record
    that `read_provenance` refuses raises DomainError.
    """
    return build_ticket(specs=specs, data=data, **read_provenance(provenance))


def apply_structural_check(ticket, check, check_seed=None) -> Ticket:
    """Attack a finished ticket's mask placement or weight values.

    The check draws from `check_stream(check_seed, check)`, the stream of the
    grid cell with that seed.  `check_seed` defaults to the seed the ticket
    was checked under, else to the ticket's seed.  A ticket checked under one
    seed refuses another, because replay takes one check seed per ticket.
    Provenance appends the check to "checks" and records "check_seed".
    """
    prov = ticket.provenance
    recorded = prov.get("check_seed", prov.get("seed", 0))
    if check_seed is None:
        check_seed = recorded
    elif prov.get("checks") and check_seed != recorded:
        raise DomainError(f"the ticket was checked under seed {recorded}, not {check_seed}; "
                          "replay needs one check seed per ticket")
    if check not in STRUCTURAL_CHECKS:
        raise DomainError(f"unknown structural check {check!r}; choose from {STRUCTURAL_CHECKS}")
    rng = check_stream(check_seed, check)
    prov = {**prov, "checks": [*prov.get("checks", ()), check], "check_seed": int(check_seed)}
    if check == "rearrange":
        return Ticket(rearrange_mask_layerwise(ticket.mask, rng), ticket.weights, prov)
    return Ticket(ticket.mask, shuffle_unmasked_weights(ticket.weights, ticket.mask, rng), prov)


def check_stream(seed, check):
    """The stream `check` draws from in the grid cell of `seed`."""
    if check not in CHECK_NAMES:
        raise DomainError(f"unknown check {check!r}; choose from {CHECK_NAMES}")
    return seeding.stream(seed, seeding.CHECK, CHECK_NAMES.index(check))


@dataclass(frozen=True)
class CellResult:
    """One retrained ticket: the unit of every report row."""

    accuracy: float  # percent, after the last retraining epoch
    keep: tuple[float, ...]
    collapsed: bool
    ticket: Ticket


def run_cell(
    kind, pipeline_params, check, split, specs, target_sparsity, seed, train_cfg, *, memo=None
) -> CellResult:
    """Build one ticket under one check, retrain on clean data, measure.

    `memo` is a dict that the cells of one grid on the same `split` share, in
    the order the grid runs them; `build_ticket` describes what it keeps.  A ticket that no
    check touched is the clean ticket (a data-free kind ignores data
    checks), so its cell is the clean cell, whose result the memo keeps.
    """
    check = check or "none"
    rcfg = replace(train_cfg, seed=seeding.combine(seed, seeding.RETRAIN))
    ticket = build_ticket(
        kind, specs, split, target_sparsity, seed, train_cfg, pipeline_params, [check], memo=memo
    )
    retrain = partial(_retrain, ticket, split, rcfg)
    if memo is None or "checks" in ticket.provenance:
        return retrain()
    # build_ticket took this ticket from its pipeline's entries in the clean bucket.
    entries = memo[pruning_data_name(kind, check, seed)]["pipeline"][1]
    return _shared(entries, ("cell", target_sparsity, seed), retrain)


def _retrain(ticket, split, rcfg) -> CellResult:
    """Retrain `ticket` on the clean train set under the cell's retraining config."""
    offset = int(ticket.provenance.get("schedule_offset", 0))
    result = train(
        ticket.weights, ticket.mask, split.train, rcfg,
        eval_data=split.test, schedule_offset=offset,
    )
    # The epoch retraining ended on, or the ticket as built when no epoch ran:
    # the row never picks an epoch by its test accuracy.
    final = (result.history[-1].accuracy if result.history
             else accuracy(ticket.weights, ticket.mask, split.test))
    ratios = keep_ratios(ticket.mask)
    return CellResult(100.0 * final, tuple(ratios), any(r == 0.0 for r in ratios), ticket)


# Layout: magic, little-endian u32 version, u64 header length, the JSON header
# {"arch": ..., "provenance": ...}, then each layer's weights and mask as <f8
# (the arch fixes their lengths); a little-endian CRC32 of every earlier byte
# ends it.
TICKET_MAGIC = b"PLTCKT01"
CONTAINER_VERSION = 3
_PREFIX = struct.Struct("<8sIQ")  # magic, version, header length
# The header's keys, as `read_keys` takes them.
HEADER_KEYS = {
    "arch": (MISSING, "a list of layer specs", lambda v: isinstance(v, list)),
    "provenance": (MISSING, "a JSON object", lambda v: isinstance(v, dict)),
}


def save_ticket(ticket, path):
    header = json.dumps(
        {"arch": [record(s) for s in ticket.weights.specs], "provenance": ticket.provenance},
        sort_keys=True,
    ).encode("utf-8")
    pairs = zip(ticket.weights.weights, ticket.mask.layers)
    arrays = np.concatenate([a for pair in pairs for a in pair], dtype="<f8")
    body = _PREFIX.pack(TICKET_MAGIC, CONTAINER_VERSION, len(header)) + header + arrays.tobytes()
    with open(path, "wb") as f:
        f.write(body + struct.pack("<I", zlib.crc32(body)))


def load_ticket(path) -> Ticket:
    """The ticket `save_ticket` wrote to `path`; a file that is not one, or
    whose provenance `read_provenance` refuses, raises DatasetError."""
    with open(path, "rb") as f:
        buf = f.read()
    if buf[:8] != TICKET_MAGIC:
        raise DatasetError(f"{path}: bad ticket magic at byte 0")
    if len(buf) < _PREFIX.size:
        raise DatasetError(f"{path}: truncated: {_PREFIX.size} bytes needed, file has {len(buf)}")
    _, version, nbytes = _PREFIX.unpack_from(buf)
    if version != CONTAINER_VERSION:
        raise DatasetError(f"{path}: unsupported ticket version {version}")
    start = _PREFIX.size + nbytes
    if start > len(buf):
        raise DatasetError(f"{path}: truncated: {start} bytes needed, file has {len(buf)}")
    try:
        header = read_keys("header", "takes no key", HEADER_KEYS,
                           json.loads(buf[_PREFIX.size : start].decode("utf-8")), DomainError)
        specs = tuple(LayerSpec.from_dict(a) for a in header["arch"])
    except (ValueError, PrunelabError) as exc:
        raise DatasetError(f"{path}: bad header: {type(exc).__name__}: {exc}") from None
    # Each layer's weights, then its mask; the CRC follows them.
    counts = [s.weight_count for s in specs for _ in range(2)]
    crc_at = start + 8 * sum(counts)
    extra = len(buf) - crc_at - 4
    if extra < 0:
        raise DatasetError(f"{path}: truncated: {crc_at + 4} bytes needed, file has {len(buf)}")
    if extra > 0:
        raise DatasetError(f"{path}: {extra} trailing bytes after byte {crc_at + 4}")
    if struct.unpack_from("<I", buf, crc_at)[0] != zlib.crc32(buf[:crc_at]):
        raise DatasetError(f"{path}: checksum mismatch over bytes 0-{crc_at - 1}")
    values = np.frombuffer(buf, dtype="<f8", count=sum(counts), offset=start)
    arrays = np.split(values.astype(np.float64), np.cumsum(counts[:-1]))
    prov = header["provenance"]
    try:
        read_provenance(prov)  # a ticket whose provenance could not replay does not load
        return Ticket(Mask(tuple(arrays[1::2])), LayeredParams(specs, tuple(arrays[0::2])), prov)
    except PrunelabError as exc:
        raise DatasetError(f"{path}: {exc}") from None
