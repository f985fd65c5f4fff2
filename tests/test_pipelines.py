"""Training loop, ticket constructors, IMP, grid cells, binary containers."""

import dataclasses
import itertools
import json
import re
import struct

import numpy as np
import pytest

from prunelab import pipelines, seeding
from prunelab.checks import (
    CHECK_NAMES,
    DATA_CHECKS,
    STRUCTURAL_CHECKS,
    rearrange_mask_layerwise,
)
from prunelab.engine import backward, forward_loss
from prunelab.errors import (
    AlignmentError,
    DatasetError,
    DomainError,
    InfeasibleSparsityError,
    TrainingDivergedError,
)
from prunelab.models import LayerSpec, accuracy, build_network, layer_sizes, preset_specs
from prunelab.pipelines import (
    IMP_MODES,
    TICKET_KINDS,
    Ticket,
    TrainConfig,
    apply_structural_check,
    build_ticket,
    learning_rate_at,
    load_ticket,
    replay_ticket,
    run_cell,
    save_ticket,
    score_batch,
    train,
)
from prunelab.pruning import (
    Mask,
    full_mask,
    keep_ratios,
    round_half_up,
    sparsity,
)
from prunelab.schedules import smart_ratio
from prunelab.data import Dataset, DataSplit, synthetic_blobs
from test_data import assert_read_only

SPECS = (
    LayerSpec("dense", 4, 6),
    LayerSpec("dense", 6, 3, is_output=True),
)
SIZES = layer_sizes(SPECS)  # [24, 18]
BLOBS = synthetic_blobs(3, 4, 60, seed=9)
# The caller's own arrays: plain writable copies of the blobs' train samples and
# labels, then test samples and labels.  SPLIT's Datasets hold read-only views of them.
CALLER_ARRAYS = tuple(a.copy() for d in (BLOBS.train, BLOBS.test) for a in (d.samples, d.labels))
SPLIT = DataSplit(Dataset(*CALLER_ARRAYS[:2], 3, (4,)), Dataset(*CALLER_ARRAYS[2:], 3, (4,)))
FAST = TrainConfig(epochs=3, batch_size=16, seed=0)


def test_learning_rate_step_schedule():
    cfg = TrainConfig(epochs=40, initial_lr=0.1, lr_drop_factor=0.1, lr_drop_points=(0.5, 0.75))
    assert learning_rate_at(cfg, 0) == pytest.approx(0.1)
    assert learning_rate_at(cfg, 19) == pytest.approx(0.1)
    assert learning_rate_at(cfg, 20) == pytest.approx(0.01)
    assert learning_rate_at(cfg, 29) == pytest.approx(0.01)
    assert learning_rate_at(cfg, 30) == pytest.approx(0.001)
    assert learning_rate_at(cfg, 39) == pytest.approx(0.001)


def test_train_config_validation_and_round_trip():
    cfg = TrainConfig(epochs=7, lr_drop_points=(0.25, 0.5))
    assert TrainConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(DomainError):
        TrainConfig(epochs=-1)
    with pytest.raises(DomainError):
        TrainConfig(batch_size=0)
    with pytest.raises(DomainError):
        TrainConfig(initial_lr=0.0)
    with pytest.raises(DomainError):
        TrainConfig(lr_drop_points=(0.75, 0.5))
    with pytest.raises(DomainError):
        TrainConfig(lr_drop_points=(0.5, 0.5))
    with pytest.raises(DomainError):
        TrainConfig(momentum=-0.1)
    for bad in ({"epochs": True}, {"batch_size": True}, {"seed": 1.5}, {"initial_lr": True},
                {"lr_drop_factor": "0.1"}, {"weight_decay": None}, {"momentum": False},
                {"lr_drop_points": (0.5, True)}):
        with pytest.raises(DomainError):
            TrainConfig(**bad)


def test_negative_seeds_are_refused_by_name():
    for make in (
        lambda: seeding.stream(-1, seeding.INIT),
        lambda: seeding.combine(-1, seeding.RETRAIN),
        lambda: TrainConfig(seed=-1),
        lambda: build_ticket("random", SPECS, None, 0.5, -1, FAST),
        lambda: build_ticket("random", SPECS, None, 0.5, 1, FAST, {}, ["rearrange"], check_seed=-1),
    ):
        with pytest.raises(DomainError, match="seed -1 is negative"):
            make()


@pytest.mark.parametrize("make", [
    lambda: build_ticket("random", SPECS, None, 0.5, 1.5, TrainConfig()),
    lambda: build_ticket("random", SPECS, None, 0.5, True, TrainConfig()),
    lambda: run_cell("random", {}, "none", SPLIT, SPECS, 0.5, 2.7, FAST),
    # True == 1, so a memo holding seed 1's clean cell must not answer for it
    lambda memo={}: [run_cell("random", {}, "none", SPLIT, SPECS, 0.5, s, FAST, memo=memo)
                     for s in (1, True)],
    lambda memo={}: [build_ticket("snip", SPECS, SPLIT, 0.5, s, FAST, memo=memo)
                     for s in (1, True)],
    lambda memo={}: [build_ticket("snip", SPECS, SPLIT, 0.5, 1, FAST, {}, ["corrupt-both"],
                                  check_seed=s, memo=memo) for s in (1, True)],
], ids=["build_ticket-1.5", "build_ticket-True", "run_cell-2.7", "run_cell-True-after-1",
        "build_ticket-True-after-1", "build_ticket-check-seed-True-after-1"])
def test_non_integer_seeds_are_refused_not_truncated(make):
    with pytest.raises(DomainError, match="is not an integer; seeds are integers >= 0"):
        make()


def as_bytes(weights):
    return [w.tobytes() for w in weights]


def assert_train_matches_manual_sgd_loop(specs, split):
    """train() against the per-layer reference loop, byte for byte.

    Bytes, not `array_equal`, which counts -0.0 equal to 0.0.  Three epochs
    of 48 samples at batch 20 (a short last batch), a schedule offset that
    crosses a rate drop, checkpoints and per-epoch evaluation, at mask
    densities 0.1, 0.7 and 1.0 (dense pretraining and IMP's first round).
    """
    for density in (0.1, 0.7, 1.0):
        params = build_network(specs, seed=3)
        rng = np.random.default_rng(4)
        mask = Mask(tuple((rng.random(m) < density).astype(float) for m in layer_sizes(specs)))
        assert (mask.total_kept == mask.total_size) == (density == 1.0)
        cfg = TrainConfig(epochs=3, batch_size=20, seed=11)
        offset = 1
        kept = (0, 2, 3)
        result = train(
            params, mask, split.train, cfg, checkpoint_epochs=kept,
            eval_data=split.test, schedule_offset=offset,
        )

        shuffle = seeding.stream(cfg.seed, seeding.BATCH_SHUFFLE)
        w = [x.copy() for x in params.weights]
        vel = [np.zeros_like(x) for x in w]
        n = split.train.n
        shape = split.train.sample_shape
        checkpoints = {0: [x.copy() for x in w]}
        history = []
        for epoch in range(cfg.epochs):
            lr = learning_rate_at(cfg, min(offset + epoch, cfg.epochs - 1))
            order = shuffle.permutation(n)
            losses = []
            for start in range(0, n, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                loss, tape = forward_loss(
                    params.with_weights(w), mask,
                    split.train.samples[idx], split.train.labels[idx], sample_shape=shape,
                )
                losses.append(loss)
                grads = backward(tape)
                for l, (g, c) in enumerate(zip(grads, mask.layers)):
                    step = (g + cfg.weight_decay * w[l]) * c
                    vel[l] = cfg.momentum * vel[l] + step
                    w[l] = w[l] - lr * vel[l]
            acc = accuracy(params.with_weights(w), mask, split.test)
            history.append((epoch, lr, float(np.mean(losses)), acc))
            if epoch + 1 in kept:
                checkpoints[epoch + 1] = [x.copy() for x in w]

        got = [(h.epoch, h.lr, h.loss, h.accuracy) for h in result.history]
        assert np.array(got).tobytes() == np.array(history).tobytes()
        assert len({h.lr for h in result.history}) == 2
        assert sorted(result.checkpoints) == sorted(checkpoints)
        for epoch, want in checkpoints.items():
            assert as_bytes(result.checkpoints[epoch].weights) == as_bytes(want)
        assert as_bytes(result.params.weights) == as_bytes(w)


def test_train_matches_manual_sgd_loop_bit_for_bit():
    assert_train_matches_manual_sgd_loop(SPECS, SPLIT)


def test_train_matches_manual_sgd_loop_bit_for_bit_conv_first():
    split = synthetic_blobs(3, 81, 60, seed=9, sample_shape=(1, 9, 9))
    assert_train_matches_manual_sgd_loop(preset_specs("conv-5", (1, 9, 9), 3), split)


def test_train_never_moves_masked_weights():
    params = build_network(SPECS, seed=5)
    rng = np.random.default_rng(6)
    mask = Mask(tuple((rng.random(m) < 0.5).astype(float) for m in SIZES))
    result = train(params, mask, SPLIT.train, FAST)
    for w0, w1, c in zip(params.weights, result.params.weights, mask.layers):
        dead = c == 0.0
        assert np.array_equal(w0[dead], w1[dead])
        assert not np.array_equal(w0[~dead], w1[~dead])


@pytest.mark.parametrize("arch", ["mlp-4", "conv-5"])
def test_train_leaves_every_masked_weight_byte_for_byte(arch):
    # -0.0 and a huge weight are the values a sloppy update would show:
    # adding a zero step turns -0.0 into 0.0, and decay moves 1e6 at any rate.
    split = synthetic_blobs(3, 81, 60, seed=9, sample_shape=(1, 9, 9))
    specs = preset_specs(arch, (1, 9, 9), 3)
    rng = np.random.default_rng(6)
    mask = Mask(tuple((rng.random(m) < 0.3).astype(float) for m in layer_sizes(specs)))
    weights = [w.copy() for w in build_network(specs, seed=5).weights]
    for w, c in zip(weights, mask.layers):
        dead = np.flatnonzero(c == 0.0)
        w[dead[0]], w[dead[-1]] = -0.0, 1e6
    params = build_network(specs, seed=5).with_weights(weights)
    result = train(params, mask, split.train, FAST, checkpoint_epochs=(1, 3),
                   eval_data=split.test)
    for trained in (result.params, *result.checkpoints.values()):
        for w0, w1, c in zip(params.weights, trained.weights, mask.layers):
            dead = c == 0.0
            assert w1[dead].tobytes() == w0[dead].tobytes()
            assert not np.array_equal(w0[~dead], w1[~dead])


def test_zero_epoch_train_returns_its_input_and_draws_nothing(monkeypatch):
    params = build_network(SPECS, seed=5)
    mask = full_mask(SIZES)
    idle = dataclasses.replace(FAST, epochs=0)

    def no_stream(*args):
        raise AssertionError("a zero-epoch train drew a random stream")

    monkeypatch.setattr(pipelines.seeding, "stream", no_stream)
    result = train(params, mask, SPLIT.train, idle)
    assert result.params is params and result.history == () and result.checkpoints == {}
    assert_read_only(*result.params.weights)
    result = train(params, mask, SPLIT.train, idle, checkpoint_epochs=(0,),
                   eval_data=SPLIT.test, schedule_offset=3)
    assert result.params is params and result.history == ()
    assert result.checkpoints == {0: params}


def test_zero_epoch_train_still_checks_its_arguments():
    params = build_network(SPECS, seed=5)
    mask = full_mask(SIZES)
    idle = dataclasses.replace(FAST, epochs=0)
    with pytest.raises(AlignmentError):
        train(params, Mask((np.ones(24),)), SPLIT.train, idle)
    with pytest.raises(DomainError, match=r"checkpoint epoch 1 outside \[0, 0\]"):
        train(params, mask, SPLIT.train, idle, checkpoint_epochs=(0, 1))
    with pytest.raises(DomainError, match="schedule_offset must be >= 0"):
        train(params, mask, SPLIT.train, idle, schedule_offset=-1)
    weights = [w.copy() for w in params.weights]
    weights[1][4] = np.inf
    with pytest.raises(TrainingDivergedError, match="layer 1 weights became non-finite") as err:
        train(params.with_weights(weights), mask, SPLIT.train, idle)
    assert err.value.epoch == 0


def test_train_is_seed_deterministic():
    params = build_network(SPECS, seed=7)
    mask = full_mask(SIZES)
    a = train(params, mask, SPLIT.train, FAST)
    b = train(params, mask, SPLIT.train, FAST)
    for wa, wb in zip(a.params.weights, b.params.weights):
        assert np.array_equal(wa, wb)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_train_divergence_reports_the_epoch():
    params = build_network(SPECS, seed=8)
    cfg = TrainConfig(epochs=4, batch_size=16, initial_lr=1e200, seed=0)
    with pytest.raises(TrainingDivergedError) as err:
        train(params, full_mask(SIZES), SPLIT.train, cfg)
    assert isinstance(err.value.epoch, int)
    assert 0 <= err.value.epoch < 4


def test_train_checkpoints_capture_epoch_boundaries():
    params = build_network(SPECS, seed=9)
    mask = full_mask(SIZES)
    result = train(params, mask, SPLIT.train, FAST, checkpoint_epochs=(0, 2, 3))
    assert sorted(result.checkpoints) == [0, 2, 3]
    for w0, winit in zip(result.checkpoints[0].weights, params.weights):
        assert np.array_equal(w0, winit)
    assert any(
        not np.array_equal(a, b)
        for a, b in zip(result.checkpoints[2].weights, result.checkpoints[3].weights)
    )
    with pytest.raises(DomainError):
        train(params, mask, SPLIT.train, FAST, checkpoint_epochs=(7,))


def test_train_gives_read_only_params_and_checkpoints():
    result = train(build_network(SPECS, seed=9), full_mask(SIZES), SPLIT.train, FAST,
                   checkpoint_epochs=(0, 2, 3))
    for params in (result.params, *result.checkpoints.values()):
        assert_read_only(*params.weights)
    # The whole set, and a drawn batch of a set larger than the batch.
    for data in (SPLIT.train, synthetic_blobs(3, 4, 200, seed=1).train):
        assert_read_only(score_batch(data, 3)[2])


def test_train_schedule_offset_shifts_the_rate():
    params = build_network(SPECS, seed=10)
    cfg = TrainConfig(epochs=8, batch_size=16, seed=0, lr_drop_points=(0.5,))
    result = train(params, full_mask(SIZES), SPLIT.train, cfg, schedule_offset=6)
    # every retraining epoch sits at or past the drop boundary, capped at 7
    assert [h.lr for h in result.history] == [
        learning_rate_at(cfg, min(6 + t, 7)) for t in range(8)
    ]
    with pytest.raises(DomainError):
        train(params, full_mask(SIZES), SPLIT.train, cfg, schedule_offset=-1)


def test_train_rejects_misaligned_mask():
    params = build_network(SPECS, seed=11)
    with pytest.raises(AlignmentError):
        train(params, Mask((np.ones(24),)), SPLIT.train, FAST)
    with pytest.raises(AlignmentError):
        train(params, Mask((np.ones(24), np.ones(17))), SPLIT.train, FAST)


def test_run_cell_reports_the_best_epoch_or_the_ticket_as_built():
    cell = run_cell("random", {}, "none", SPLIT, SPECS, 0.5, 12, FAST)
    rcfg = dataclasses.replace(FAST, seed=seeding.combine(12, seeding.RETRAIN))
    result = train(cell.ticket.weights, cell.ticket.mask, SPLIT.train, rcfg, eval_data=SPLIT.test)
    assert cell.accuracy == 100.0 * max(h.accuracy for h in result.history)
    idle_cfg = dataclasses.replace(FAST, epochs=0)
    idle = run_cell("random", {}, "none", SPLIT, SPECS, 0.5, 12, idle_cfg)
    as_built = accuracy(idle.ticket.weights, idle.ticket.mask, SPLIT.test)
    assert idle.accuracy == 100.0 * as_built


def test_score_batch_is_capped_and_deterministic():
    small = SPLIT.train
    x, y, idx = score_batch(small, seed=0)
    assert len(idx) == small.n  # whole set when under the cap
    big = synthetic_blobs(3, 4, 400, seed=1).train
    x, y, idx = score_batch(big, seed=5)
    assert len(idx) == 128
    assert len(set(idx.tolist())) == 128
    _, _, again = score_batch(big, seed=5)
    assert np.array_equal(idx, again)


@pytest.mark.parametrize("kind", ["snip", "grasp"])
def test_initial_tickets_prune_a_fresh_init(kind):
    ticket = build_ticket(kind, SPECS, SPLIT.train, 0.5, 2, FAST)
    total = sum(SIZES)
    assert ticket.mask.total_kept == round_half_up(0.5 * total)
    for w, init in zip(ticket.weights.weights, build_network(SPECS, 2).weights):
        assert np.array_equal(w, init)
    assert ticket.provenance["kind"] == kind
    assert len(ticket.provenance["score_batch"]) == SPLIT.train.n
    with pytest.raises(DomainError):
        build_ticket("magnitude", SPECS, SPLIT.train, 0.5, 2, FAST)


def test_lt_ticket_resets_kept_weights_to_init_bit_for_bit():
    ticket = build_ticket("lt", SPECS, SPLIT.train, 0.5, 3, FAST)
    init = build_network(SPECS, 3)
    for w, winit in zip(ticket.weights.weights, init.weights):
        assert np.array_equal(w, winit)
    assert ticket.mask.total_kept == round_half_up(0.5 * sum(SIZES))
    assert ticket.provenance["source_checkpoint_epochs"] == [0, FAST.epochs]


def test_lt_preserve_output_layer_keeps_it_dense():
    ticket = build_ticket(
        "lt", SPECS, SPLIT, 0.5, 4, FAST, params={"preserve_output_layer": True}
    )
    assert ticket.mask.counts()[-1] == SIZES[-1]
    assert ticket.mask.total_kept == round_half_up(0.5 * sum(SIZES))
    with pytest.raises(InfeasibleSparsityError):
        build_ticket(
            "lt", SPECS, SPLIT, 0.95, 4, FAST, params={"preserve_output_layer": True}
        )


@pytest.mark.parametrize("kind", ["lt", "weight-rewind", "lr-rewind"])
@pytest.mark.parametrize("p", [-0.5, 1.0, 1.5])
def test_a_preserved_output_layer_keeps_the_sparsity_domain(kind, p):
    for params in ({}, {"preserve_output_layer": True}):
        with pytest.raises(DomainError, match=r"target sparsity must lie in \[0, 1\)"):
            build_ticket(kind, SPECS, SPLIT, p, 4, FAST, params)


def test_weight_rewind_ticket_takes_the_checkpoint_weights():
    ticket = build_ticket("weight-rewind", SPECS, SPLIT.train, 0.5, 5, FAST, {"rewind_epoch": 2})
    assert ticket.provenance["rewound_to_epoch"] == 2
    assert ticket.provenance["schedule_offset"] == 2
    _, run = pipelines._pretrain(SPECS, lambda: SPLIT.train, FAST, 5, {0, 2, FAST.epochs})
    assert ticket.provenance["source_checkpoint_epochs"] == [0, 2, FAST.epochs]
    for w, wc in zip(ticket.weights.weights, run.checkpoints[2].weights):
        assert np.array_equal(w, wc)
    with pytest.raises(DomainError):
        build_ticket("weight-rewind", SPECS, SPLIT.train, 0.5, 5, FAST, {"rewind_epoch": 9})


def test_lr_rewind_ticket_keeps_trained_weights_and_fresh_schedule():
    ticket = build_ticket("lr-rewind", SPECS, SPLIT, 0.5, 7, FAST)
    assert ticket.provenance["schedule_offset"] == 0
    _, run = pipelines._pretrain(SPECS, lambda: SPLIT.train, FAST, 7, {0, FAST.epochs})
    for w, wc in zip(ticket.weights.weights, run.params.weights):
        assert np.array_equal(w, wc)


def test_hybrid_ticket_fills_schedule_quotas_with_layer_magnitude():
    ticket = build_ticket("hybrid", SPECS, SPLIT, 0.6, 8, FAST)
    want = smart_ratio(SIZES, SPECS, 0.6).quotas
    assert tuple(ticket.mask.counts()) == want
    # within each layer every kept magnitude >= every pruned magnitude
    for w, c in zip(ticket.weights.weights, ticket.mask.layers):
        kept, dead = np.abs(w[c == 1.0]), np.abs(w[c == 0.0])
        if kept.size and dead.size:
            assert kept.min() >= dead.max()


def test_random_ticket_is_data_free_and_schedule_exact():
    for kind in ("smart", "balanced", "ascending", "linear", "cubic"):
        ticket = build_ticket("random", SPECS, None, 0.6, 9, FAST, {"schedule": kind})
        assert ticket.mask.total_kept == round_half_up(0.4 * sum(SIZES))
        assert ticket.provenance["schedule"] == kind
    a = build_ticket("random", SPECS, None, 0.6, 10, FAST, {"family": "plain"})
    b = build_ticket("random", SPECS, None, 0.6, 10, FAST, {"family": "plain"})
    for ca, cb in zip(a.mask.layers, b.mask.layers):
        assert np.array_equal(ca, cb)


def imp_survivor_sequence(total, budget, q):
    seq, s = [], total
    while s > budget:
        s = max(round_half_up((1.0 - q) * s), budget)
        seq.append(s)
    return seq


@pytest.mark.parametrize("mode", IMP_MODES)
def test_imp_reaches_the_budget_with_the_rounded_round_count(mode):
    cfg = TrainConfig(epochs=1, batch_size=16, seed=0)
    ticket = build_ticket(
        "imp", SPECS, SPLIT.train, 0.7, 11, cfg, {"round_fraction": 0.2, "mode": mode}
    )
    total = sum(SIZES)
    budget = round_half_up(0.3 * total)
    seq = imp_survivor_sequence(total, budget, 0.2)
    assert ticket.mask.total_kept == budget
    assert ticket.provenance["rounds"] == len(seq)
    assert ticket.provenance["mode"] == mode


def test_imp_reset_mode_returns_initialization_weights():
    cfg = TrainConfig(epochs=1, batch_size=16, seed=0)
    ticket = build_ticket("imp", SPECS, SPLIT.train, 0.7, 12, cfg, {"round_fraction": 0.2})
    init = build_network(SPECS, 12)
    for w, winit in zip(ticket.weights.weights, init.weights):
        assert np.array_equal(w, winit)


def test_imp_hybrid_mode_lands_on_schedule_quotas():
    cfg = TrainConfig(epochs=1, batch_size=16, seed=0)
    ticket = build_ticket(
        "imp", SPECS, SPLIT.train, 0.7, 13, cfg, {"round_fraction": 0.3, "mode": "hybrid"}
    )
    want = smart_ratio(SIZES, SPECS, 0.7).quotas
    assert tuple(ticket.mask.counts()) == want


def test_imp_validates_arguments():
    cfg = TrainConfig(epochs=1, batch_size=16, seed=0)
    with pytest.raises(DomainError):
        build_ticket("imp", SPECS, SPLIT.train, 0.7, 0, cfg, {"round_fraction": 0.0})
    with pytest.raises(DomainError):
        build_ticket("imp", SPECS, SPLIT.train, 1.2, 0, cfg, {"round_fraction": 0.2})
    with pytest.raises(DomainError):
        build_ticket("imp", SPECS, SPLIT.train, 0.7, 0, cfg, {"mode": "anneal"})


def record_train_masks(monkeypatch, limit=50):
    """Masks handed to pipelines.train, in call order; fails a run that never ends."""
    masks = []
    real_train = pipelines.train

    def recording(params, mask, *args, **kwargs):
        masks.append(mask)
        assert len(masks) <= limit, "training never stops"
        return real_train(params, mask, *args, **kwargs)

    monkeypatch.setattr(pipelines, "train", recording)
    return masks


@pytest.mark.parametrize("mode,target", [("reset", 0.9), ("hybrid", 0.8)])
def test_imp_removes_a_weight_every_round_where_rounding_keeps_all(monkeypatch, mode, target):
    # 8 weights at round fraction 0.1: 8 -> 7 -> 6 -> 5, where 0.9 * 5 = 4.5 rounds back
    # up to 5.  (hybrid's schedule cannot pin the output layer at 0.9, so it runs at 0.8.)
    specs = (LayerSpec("dense", 2, 2), LayerSpec("dense", 2, 2, is_output=True))
    split = synthetic_blobs(2, 2, 40, seed=1)
    cfg = TrainConfig(epochs=1, batch_size=16, seed=0)
    budget = round_half_up((1.0 - target) * 8)
    masks = record_train_masks(monkeypatch)
    ticket = build_ticket(
        "imp", specs, split.train, target, 3, cfg, {"round_fraction": 0.1, "mode": mode}
    )
    assert ticket.mask.total_kept == budget
    masks.append(ticket.mask)
    kept = [m.total_kept for m in masks]
    assert kept == sorted(set(kept), reverse=True) and kept[3] == 5 and kept[4] < 5
    for outer, inner in zip(masks, masks[1:]):
        for a, b in zip(outer.layers, inner.layers):
            assert (b <= a).all()


def test_build_ticket_covers_every_kind():
    for kind in TICKET_KINDS:
        ticket = build_ticket(kind, SPECS, SPLIT, 0.5, 1, FAST)
        assert ticket.provenance["kind"] == kind
        if kind == "dense":
            assert sparsity(ticket.mask) == 0.0
        else:
            assert ticket.mask.total_kept == round_half_up(0.5 * sum(SIZES))
    with pytest.raises(DomainError):
        build_ticket("quantize", SPECS, SPLIT, 0.5, 1, FAST)
    with pytest.raises(DomainError):
        build_ticket("snip", SPECS, None, 0.5, 1, FAST)


@pytest.mark.parametrize("kind, params", [
    ("random", {"family": "plian"}),
    ("imp", {"round_fraction": "x"}),
    ("weight-rewind", {"rewind_epoch": "x"}),
    ("lt", {"preserve_output_layer": "no"}),
])
def test_build_ticket_rejects_bad_option_values(kind, params):
    ((key, value),) = params.items()
    with pytest.raises(DomainError, match=rf"pipeline '{kind}' {key} must be .*, not '{value}'$"):
        build_ticket(kind, SPECS, SPLIT, 0.5, 1, FAST, params)


def same_arrays(a, b):
    """Whether two tickets have equal masks and equal weights."""
    pairs = [*zip(a.mask.layers, b.mask.layers), *zip(a.weights.weights, b.weights.weights)]
    return all(np.array_equal(x, y) for x, y in pairs)


def test_replay_ticket_reproduces_mask_and_weights():
    for kind in ("random", "snip", "lt"):
        ticket = build_ticket(kind, SPECS, SPLIT, 0.5, 3, FAST)
        assert same_arrays(ticket, replay_ticket(ticket.provenance, SPECS, SPLIT))


@pytest.mark.parametrize("kind", ["imp", "lt", "hybrid"])
def test_replay_returns_the_provenance_a_ticket_was_built_with(kind):
    # Training seeds come from the ticket seed, so the config's own seed is only recorded.
    ticket = build_ticket(kind, SPECS, SPLIT, 0.5, 3, TrainConfig(epochs=2, batch_size=16, seed=5))
    again = replay_ticket(ticket.provenance, SPECS, SPLIT)
    assert again.provenance == ticket.provenance
    assert same_arrays(ticket, again)


# Each edits an lt ticket's provenance the way a hand-made ticket file could.
MALFORMED_PROVENANCE = {
    "pretrain-with-an-unknown-key": lambda p: {**p, "pretrain": {**p["pretrain"], "bogus": 1}},
    "pretrain-not-a-mapping": lambda p: {**p, "pretrain": list(p["pretrain"].values())},
    "no-kind": lambda p: {k: v for k, v in p.items() if k != "kind"},
    "no-seed": lambda p: {k: v for k, v in p.items() if k != "seed"},
    "sparsity-not-a-number": lambda p: {**p, "sparsity": "x"},
}


@pytest.mark.parametrize("case", MALFORMED_PROVENANCE)
def test_replay_refuses_a_malformed_provenance_with_a_typed_error(case):
    ticket = build_ticket("lt", SPECS, SPLIT, 0.5, 3, FAST)
    with pytest.raises(DomainError):
        replay_ticket(MALFORMED_PROVENANCE[case](ticket.provenance), SPECS, SPLIT)


def test_train_config_from_dict_refuses_a_non_mapping_or_an_unknown_key():
    for bad in ([3, 16], "epochs=3", None, {**FAST.to_dict(), "bogus": 1}):
        with pytest.raises(DomainError, match="must be a mapping with keys from"):
            TrainConfig.from_dict(bad)


@pytest.mark.parametrize("kind", TICKET_KINDS)
@pytest.mark.parametrize("sparsity", ["0.5", None, True])
def test_build_ticket_refuses_a_sparsity_that_is_not_a_real_number(kind, sparsity):
    with pytest.raises(DomainError, match="must be a real number"):
        build_ticket(kind, SPECS, SPLIT, sparsity, 3, FAST)


@pytest.mark.parametrize("kind", [k for k in TICKET_KINDS if k not in pipelines.DATA_FREE_KINDS])
@pytest.mark.parametrize("check", DATA_CHECKS)
def test_build_ticket_takes_a_split_or_its_train_set_under_a_data_check(kind, check):
    whole = build_ticket(kind, SPECS, SPLIT, 0.5, 19, FAST, {}, [check])
    train_only = build_ticket(kind, SPECS, SPLIT.train, 0.5, 19, FAST, {}, [check])
    assert whole.provenance == train_only.provenance
    assert whole.provenance["checks"] == [check]
    assert same_arrays(whole, train_only)


# Each single check, and a data check with a structural one.
CHECK_LISTS = [[c] for c in CHECK_NAMES] + [["corrupt-both", "shuffle-weights"]]


def test_replay_rebuilds_every_checked_ticket_from_its_file(tmp_path):
    memo, moved = {}, []
    for check_seed, kind, checks in itertools.product((None, 9), TICKET_KINDS, CHECK_LISTS):
        ticket = build_ticket(
            kind, SPECS, SPLIT, 0.5, 18, FAST, {}, checks, check_seed=check_seed, memo=memo
        )
        if check_seed is None and len(checks) == 1:  # the grid cell's ticket
            cell = run_cell(kind, {}, checks[0], SPLIT, SPECS, 0.5, 18, FAST, memo=memo)
            assert same_arrays(ticket, cell.ticket), (kind, checks)
            assert cell.ticket.provenance == ticket.provenance, (kind, checks)
        reads_data = kind not in pipelines.DATA_FREE_KINDS
        applied = [c for c in checks if c in STRUCTURAL_CHECKS or (c != "none" and reads_data)]
        assert ticket.provenance.get("checks", []) == applied
        if applied:
            assert ticket.provenance["check_seed"] == (check_seed or 18)
        else:
            assert "check_seed" not in ticket.provenance
        path = tmp_path / f"{kind}-{'+'.join(checks)}-{check_seed}.plab"
        save_ticket(ticket, str(path))
        loaded = load_ticket(str(path)).provenance
        assert loaded == ticket.provenance, (kind, checks, check_seed)
        again = replay_ticket(loaded, SPECS, SPLIT)
        assert same_arrays(ticket, again), (kind, checks, check_seed)
        if applied and check_seed is not None:
            unseeded = {k: v for k, v in loaded.items() if k != "check_seed"}
            moved.append(not same_arrays(ticket, replay_ticket(unseeded, SPECS, SPLIT)))
    # Without the recorded check seed most checks would draw from other streams.  Some
    # land on the same arrays: rearranging a dense mask, say, changes nothing.
    assert sum(moved) > len(moved) / 2


def test_apply_structural_check_records_provenance():
    ticket = build_ticket("random", SPECS, SPLIT, 0.5, 4, FAST)
    # by default the check draws from the stream of the grid cell with the ticket's seed
    rearranged = apply_structural_check(ticket, "rearrange")
    assert rearranged.mask.counts() == ticket.mask.counts()
    assert rearranged.provenance["checks"] == ["rearrange"]
    assert rearranged.provenance["check_seed"] == 4
    want = rearrange_mask_layerwise(ticket.mask, pipelines.check_stream(4, "rearrange"))
    for a, b in zip(rearranged.mask.layers, want.layers):
        assert np.array_equal(a, b)
    shuffled = apply_structural_check(rearranged, "shuffle-weights", 4)
    assert shuffled.provenance["checks"] == ["rearrange", "shuffle-weights"]
    assert shuffled.provenance["check_seed"] == 4
    with pytest.raises(DomainError, match="one check seed"):
        apply_structural_check(rearranged, "shuffle-weights", 9)
    with pytest.raises(DomainError):
        apply_structural_check(ticket, "random-labels")
    # an explicit seed is recorded, and later checks default to it
    nine = apply_structural_check(ticket, "rearrange", 9)
    assert nine.provenance["check_seed"] == 9
    assert apply_structural_check(nine, "shuffle-weights").provenance["check_seed"] == 9


def test_run_cell_reports_percent_accuracy_and_keep():
    cell = run_cell("random", {}, "none", SPLIT, SPECS, 0.5, 5, FAST)
    assert 0.0 <= cell.accuracy <= 100.0
    assert len(cell.keep) == len(SIZES)
    assert not cell.collapsed


def test_run_cell_structural_check_keeps_counts():
    plain = run_cell("snip", {}, "none", SPLIT, SPECS, 0.5, 6, FAST)
    attacked = run_cell("snip", {}, "rearrange", SPLIT, SPECS, 0.5, 6, FAST)
    assert attacked.ticket.mask.counts() == plain.ticket.mask.counts()
    assert any(
        not np.array_equal(a, b)
        for a, b in zip(attacked.ticket.mask.layers, plain.ticket.mask.layers)
    )


def test_run_cell_data_check_changes_the_scored_mask():
    plain = run_cell("snip", {}, "none", SPLIT, SPECS, 0.5, 7, FAST)
    corrupted = run_cell("snip", {}, "corrupt-both", SPLIT, SPECS, 0.5, 7, FAST)
    assert any(
        not np.array_equal(a, b)
        for a, b in zip(corrupted.ticket.mask.layers, plain.ticket.mask.layers)
    )


def test_run_cell_flags_a_collapsed_layer():
    wide = (
        LayerSpec("dense", 4, 40),
        LayerSpec("dense", 40, 40),
        LayerSpec("dense", 40, 3, is_output=True),
    )
    cell = run_cell("snip", {}, "none", SPLIT, wide, 0.97, 1, FAST)
    assert cell.collapsed == any(r == 0.0 for r in keep_ratios(cell.ticket.mask))


def test_run_cell_skips_the_data_check_for_data_free_kinds(monkeypatch):
    calls = []
    real_check = pipelines.apply_data_check
    monkeypatch.setattr(
        pipelines, "apply_data_check", lambda *a: calls.append(a[0]) or real_check(*a)
    )
    for kind in ("dense", "random"):
        plain = run_cell(kind, {}, "none", SPLIT, SPECS, 0.5, 8, FAST)
        checked = run_cell(kind, {}, "corrupt-both", SPLIT, SPECS, 0.5, 8, FAST)
        assert (checked.accuracy, checked.keep) == (plain.accuracy, plain.keep)
    assert calls == []
    run_cell("snip", {}, "corrupt-both", SPLIT, SPECS, 0.5, 8, FAST)
    assert calls == ["corrupt-both"]


PRETRAINED_KINDS = ("lt", "weight-rewind", "lr-rewind", "hybrid")
MEMO_CHECKS = ("none", "corrupt-both", "rearrange")


def walk(obj):
    """obj and everything reachable through containers and dataclass fields."""
    yield obj
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from walk(k)
            yield from walk(v)
    elif isinstance(obj, (tuple, list, set, frozenset)):
        for v in obj:
            yield from walk(v)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            yield from walk(getattr(obj, f.name))


def assert_holds_corrupted_sets(memo, names):
    """`memo` reaches no Dataset but the corrupted set under each name in `names`.

    Every array a held set has is read-only.  Of the split's arrays only the
    train samples, which random labels keep, are reachable, and the caller's
    own arrays under the split are not reached and stay writable.
    """
    reached = list(walk(memo))
    held = [memo[name]["data"] for name in names]
    assert {id(x) for x in reached if isinstance(x, Dataset)} == {id(d) for d in held}
    caller = (SPLIT.train, SPLIT.test, SPLIT.train.samples, SPLIT.train.labels,
              SPLIT.test.samples, SPLIT.test.labels, *CALLER_ARRAYS)
    shared = [SPLIT.train.samples] if any(n[0] == "random-labels" for n in names) else []
    assert {id(x) for x in reached if any(x is c for c in caller)} == {id(c) for c in shared}
    for d in held:
        for arr in (d.samples, d.labels):
            assert not arr.flags.writeable
    assert all(arr.flags.writeable for arr in CALLER_ARRAYS)


def test_a_shared_memo_gives_standalone_cells_with_one_pretraining_per_data(monkeypatch):
    seed = 17
    alone = {
        (kind, check): run_cell(kind, {}, check, SPLIT, SPECS, 0.5, seed, FAST)
        for kind in PRETRAINED_KINDS for check in MEMO_CHECKS
    }
    pretrain_seed = seeding.combine(seed, seeding.PRETRAIN)
    cfgs = []
    real_train = pipelines.train
    monkeypatch.setattr(
        pipelines, "train", lambda *a, **k: cfgs.append(a[3]) or real_train(*a, **k)
    )
    checked = []
    real_check = pipelines.apply_data_check
    monkeypatch.setattr(
        pipelines, "apply_data_check", lambda *a: checked.append(a[0]) or real_check(*a)
    )
    memo = {}
    for kind in PRETRAINED_KINDS:
        for check in MEMO_CHECKS:
            cell = run_cell(kind, {}, check, SPLIT, SPECS, 0.5, seed, FAST, memo=memo)
            want = alone[kind, check]
            assert (cell.accuracy, cell.keep) == (want.accuracy, want.keep)
            for a, b in zip(cell.ticket.mask.layers, want.ticket.mask.layers):
                assert np.array_equal(a, b)
    # (none, corrupt-both) pruning data x ({0, E}, {0, 1, E}) checkpoint sets
    assert sum(c.seed == pretrain_seed for c in cfgs) == 4
    assert len(cfgs) == 4 + len(PRETRAINED_KINDS) * len(MEMO_CHECKS)
    # Clean data is one pruning data under every check seed.
    assert memo.keys() == {("corrupt-both", seed), ("none", None)}
    # The first read of the corrupted data corrupts it; every later cell reads the held set.
    assert checked == ["corrupt-both"]

    assert_holds_corrupted_sets(memo, [("corrupt-both", seed)])
    reached = list(walk(memo))
    arrays = list({id(x): x for x in reached if isinstance(x, np.ndarray)}.values())
    # params plus 3 or 4 checkpoints each, the mask of the last group's clean
    # ticket, and the corrupted set's samples and labels
    assert len(arrays) == 2 * len(SIZES) * (3 + 4) + len(SIZES) + 2
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0] = 1.0


def held_entries(memo, what):
    """Every bucket's ("scores", seed) or ("imp", seed) entries, keyed (*pruning data, seed)."""
    return {(*name, key[1]): value for name, held in memo.items()
            for key, value in held["pipeline"][1].items() if key[0] == what}


def run_grid(kinds, checks, sparsities, seeds, memo):
    """run_cell over kinds x sparsities x checks x seeds in grid order, sharing `memo`."""
    return {
        (kind, p, check, seed): run_cell(kind, {}, check, SPLIT, SPECS, p, seed, FAST, memo=memo)
        for kind in kinds for p in sparsities for check in checks for seed in seeds
    }


def test_a_memo_shared_grid_equals_standalone_cells():
    cells = run_grid(TICKET_KINDS, CHECK_NAMES, (0.5, 0.8), (3, 4), {})
    assert len(cells) == len(TICKET_KINDS) * len(CHECK_NAMES) * 2 * 2
    for (kind, p, check, seed), cell in cells.items():
        want = run_cell(kind, {}, check, SPLIT, SPECS, p, seed, FAST)
        where = (kind, p, check, seed)
        assert (cell.accuracy, cell.keep, cell.collapsed) == (
            want.accuracy, want.keep, want.collapsed), where
        assert same_arrays(cell.ticket, want.ticket), where
        assert cell.ticket.provenance == want.ticket.provenance, where


def count_calls(monkeypatch, module, name):
    """Count the calls `module.name` gets from here on; returns the list of their args."""
    calls, real = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: calls.append(a) or real(*a, **k))
    return calls


def test_a_memo_builds_each_clean_ticket_and_each_score_once(monkeypatch):
    imp = count_calls(monkeypatch, pipelines, "_imp_ticket")
    snip = count_calls(monkeypatch, pipelines, "snip_scores")
    grasp = count_calls(monkeypatch, pipelines, "grasp_scores")
    corrupted = count_calls(monkeypatch, pipelines, "apply_data_check")
    clean_checks = ("none", "rearrange", "shuffle-weights")
    run_grid(("imp", "snip", "grasp"), clean_checks, (0.5, 0.8), (3, 4), {})
    # One clean ticket per (sparsity, seed); snip and grasp score once per seed.
    assert (len(imp), len(snip), len(grasp)) == (2 * 2, 2, 2)

    imp.clear(), snip.clear(), grasp.clear()
    run_grid(("snip", "grasp"), ("none", "corrupt-both", "rearrange"), (0.5, 0.8), (3, 4), {})
    # Scores once per (seed, pruning data) across sparsities; snip's first
    # cell per seed corrupts the set, and grasp reads the held one.
    assert (len(snip), len(grasp)) == (2 * 2, 2 * 2)
    assert [c[0] for c in corrupted] == ["corrupt-both"] * 2
    assert imp == []


def test_build_ticket_with_a_memo_builds_each_clean_imp_ticket_once(monkeypatch):
    checks = ("none", "rearrange", "shuffle-weights")
    # In grid order: sparsities, then checks, then seeds.
    alone = {(p, c, s): build_ticket("imp", SPECS, SPLIT, p, s, FAST, {}, [c])
             for p in (0.5, 0.8) for c in checks for s in (3, 4)}
    imp = count_calls(monkeypatch, pipelines, "_imp_ticket")
    memo = {}
    for (p, c, s), want in alone.items():
        ticket = build_ticket("imp", SPECS, SPLIT, p, s, FAST, {}, [c], memo=memo)
        assert same_arrays(ticket, want), (p, c, s)
        assert ticket.provenance == want.provenance, (p, c, s)
    # The structural checks attack the clean ticket of their (sparsity, seed).
    assert [(a[2], a[4]) for a in imp] == [(p, s) for p in (0.5, 0.8) for s in (3, 4)]


# At round_fraction 0.5, IMP_SPECS's 112 weights go 112 -> 56 -> 28 -> 14 -> 7 -> 4, and
# sparsities 0.5/0.8/0.9/0.95 keep 56/22/11/6: walked alone, 1 + 3 + 4 + 5 = 13 rounds.
IMP_SPECS = (LayerSpec("dense", 4, 16), LayerSpec("dense", 16, 3, is_output=True))
# Each order lists the rounds each sparsity trains per pruning data and seed:
# 5 in all when ascending, not 13.
IMP_PATH_ORDERS = {
    "ascending": ((0.5, 0.8, 0.9, 0.95), [[1], [2, 3], [4], [5]]),
    "descending": ((0.95, 0.9, 0.8, 0.5), [[1, 2, 3, 4, 5], [1, 2, 3, 4], [1, 2, 3], [1]]),
    # 0.5 keeps more than the held 14 survivors, so it walks from the init.
    "shuffled": ((0.8, 0.9, 0.5, 0.95), [[1, 2, 3], [4], [1], [5]]),
}


def imp_path_grid(mode, sparsities, memo):
    """run_cell over imp in `mode` x sparsities x MEMO_CHECKS x seeds 3 and 4, in grid order."""
    params = {"mode": mode, "round_fraction": 0.5}
    return {
        (p, check, seed): run_cell("imp", params, check, SPLIT, IMP_SPECS, p, seed, FAST,
                                   memo=memo)
        for p in sparsities for check in MEMO_CHECKS for seed in (3, 4)
    }


def imp_rounds(monkeypatch):
    """A function listing, from here on, each IMP round's training by sparsity, data and seed.

    It returns {(sparsity, data, seed): [round, ...]} for the pruning data
    "none" or "corrupt-both" and the cell seeds 3 and 4.
    """
    rounds = {seeding.combine(s, seeding.IMP_ROUND, r): (s, r) for s in (3, 4) for r in range(9)}
    sparsity, trained = [], []
    real_imp, real_train = pipelines._imp_ticket, pipelines.train

    def imp(*a, **k):
        sparsity.append(a[2])
        return real_imp(*a, **k)

    def train(*a, **k):
        if a[3].seed in rounds:
            seed, r = rounds[a[3].seed]
            data = "none" if a[2] is SPLIT.train else "corrupt-both"
            trained.append(((sparsity[-1], data, seed), r))
        return real_train(*a, **k)

    monkeypatch.setattr(pipelines, "_imp_ticket", imp)
    monkeypatch.setattr(pipelines, "train", train)

    def listed():
        out = {}
        for where, r in trained:
            out.setdefault(where, []).append(r)
        return out
    return listed


def assert_cells_stand_alone(cells, mode):
    """Each cell of an imp_path_grid equals its standalone cell, and its ticket replays."""
    params = {"mode": mode, "round_fraction": 0.5}
    for (p, check, seed), cell in cells.items():
        want = run_cell("imp", params, check, SPLIT, IMP_SPECS, p, seed, FAST)
        where = (mode, p, check, seed)
        assert (cell.accuracy, cell.keep, cell.collapsed) == (
            want.accuracy, want.keep, want.collapsed), where
        assert same_arrays(cell.ticket, want.ticket), where
        assert cell.ticket.provenance == want.ticket.provenance, where
        again = replay_ticket(cell.ticket.provenance, IMP_SPECS, SPLIT)
        assert same_arrays(again, cell.ticket), where


@pytest.mark.parametrize("order", IMP_PATH_ORDERS)
@pytest.mark.parametrize("mode", ["reset", "lr-rewind"])
def test_a_memo_grid_walks_each_imp_path_once(monkeypatch, mode, order):
    sparsities, walked = IMP_PATH_ORDERS[order]
    listed = imp_rounds(monkeypatch)
    memo = {}
    cells = imp_path_grid(mode, sparsities, memo)
    # Each sparsity trains the rounds no earlier one ran, once per pruning data and seed.
    assert listed() == {(p, data, seed): rounds for p, rounds in zip(sparsities, walked)
                        for data in ("none", "corrupt-both") for seed in (3, 4)}
    assert_cells_stand_alone(cells, mode)
    # Each pruning data's bucket holds the frontier per seed: read-only arrays, no Dataset.
    paths = held_entries(memo, "imp")
    assert {held["pipeline"][0] for held in memo.values()} == {
        ("imp", (("round_fraction", 0.5), ("mode", mode), ("family", "plain")), IMP_SPECS, FAST)}
    assert sorted(paths) == [("corrupt-both", s, s) for s in (3, 4)] + [
        ("none", None, s) for s in (3, 4)]
    assert all(isinstance(state, pipelines._ImpState) for state in paths.values())
    # The deepest unclamped state, with the training 0.95's clamped last round ran from it.
    assert {(state.rounds, state.survivors) for state in paths.values()} == {(4, 7)}
    assert all(state.trained is not None for state in paths.values())
    assert_holds_corrupted_sets(memo, [("corrupt-both", s) for s in (3, 4)])
    arrays = [x for x in walk(memo) if isinstance(x, np.ndarray)]
    assert arrays and not any(arr.flags.writeable for arr in arrays)


def test_hybrid_imp_in_a_memo_grid_walks_every_target_alone(monkeypatch):
    # At 0.9 IMP_SPECS keeps 11 weights, fewer than its smart schedule's output quota 14.4.
    sparsities = (0.5, 0.8, 0.85)
    listed = imp_rounds(monkeypatch)
    memo = {}
    cells = imp_path_grid("hybrid", sparsities, memo)
    # Hybrid interpolates toward each target's own schedule, so nothing is shared.
    assert listed() == {(p, data, seed): list(range(1, n + 1))
                        for p, n in zip(sparsities, (1, 3, 3))
                        for data in ("none", "corrupt-both") for seed in (3, 4)}
    assert held_entries(memo, "imp") == {}
    assert_cells_stand_alone(cells, "hybrid")


def test_an_imp_training_that_raises_holds_nothing(monkeypatch):
    def diverge(*a, **k):
        raise TrainingDivergedError("diverged", 0)

    monkeypatch.setattr(pipelines, "train", diverge)
    memo = {}
    with pytest.raises(TrainingDivergedError):
        build_ticket("imp", SPECS, SPLIT, 0.5, 3, FAST, {"round_fraction": 0.5}, memo=memo)
    assert memo.keys() == {("none", None)} and memo["none", None].keys() == {"pipeline"}
    assert memo["none", None]["pipeline"][1] == {}


def test_the_next_pipeline_on_a_pruning_data_drops_its_imp_frontier():
    def frontiers():
        return len({id(x) for x in walk(memo) if isinstance(x, pipelines._ImpState)})

    memo = {}
    for check in ("none", "corrupt-both"):
        build_ticket("imp", SPECS, SPLIT, 0.5, 3, FAST, {"round_fraction": 0.5}, [check],
                     memo=memo)
    assert frontiers() == 2
    # snip on clean data drops clean data's frontier; the corrupted set's stays.
    build_ticket("snip", SPECS, SPLIT, 0.5, 3, FAST, {}, ["none"], memo=memo)
    assert frontiers() == 1
    assert sorted(held_entries(memo, "imp")) == [("corrupt-both", 3, 3)]
    build_ticket("snip", SPECS, SPLIT, 0.5, 3, FAST, {}, ["corrupt-both"], memo=memo)
    assert frontiers() == 0
    assert sorted(held_entries(memo, "scores")) == [("corrupt-both", 3, 3), ("none", None, 3)]


def test_a_memo_grid_corrupts_each_train_set_once_per_data_check_and_seed(monkeypatch):
    kinds = ("snip", "grasp", "lt", "imp")
    alone = run_grid(kinds, DATA_CHECKS, (0.5, 0.8), (3, 4), None)
    corrupted = count_calls(monkeypatch, pipelines, "apply_data_check")
    streams = count_calls(monkeypatch, pipelines, "check_stream")
    memo = {}
    cells = run_grid(kinds, DATA_CHECKS, (0.5, 0.8), (3, 4), memo)
    # snip's cells at the first sparsity corrupt; every later cell reads the held set.
    assert [a[0] for a in corrupted] == [c for c in DATA_CHECKS for _ in (3, 4)]
    assert [a[::-1] for a in streams] == [(c, s) for c in DATA_CHECKS for s in (3, 4)]
    for where, cell in cells.items():
        want = alone[where]
        assert (cell.accuracy, cell.keep, cell.collapsed) == (
            want.accuracy, want.keep, want.collapsed), where
        assert same_arrays(cell.ticket, want.ticket), where
        assert cell.ticket.provenance == want.ticket.provenance, where
    assert_holds_corrupted_sets(memo, [(c, s) for c in DATA_CHECKS for s in (3, 4)])


def test_a_memo_grid_leaves_the_callers_train_set_as_it_was():
    before = [arr.copy() for arr in CALLER_ARRAYS[:2]]
    checks = ("random-labels", "corrupt-both")
    memo = {}
    run_grid(("snip", "lt", "imp"), checks, (0.5, 0.8), (3, 4), memo)
    # The caller's own train samples and labels, under SPLIT.train's read-only views.
    for arr, copy in zip(CALLER_ARRAYS[:2], before):
        assert arr.flags.writeable and np.array_equal(arr, copy)
    assert_holds_corrupted_sets(memo, [(c, s) for c in checks for s in (3, 4)])

    # A check that raises holds nothing, so every cell raises again.
    one = DataSplit(SPLIT.train.take([0]), SPLIT.test)
    memo = {}
    for kind, p in itertools.product(("snip", "grasp", "lt", "imp"), (0.5, 0.8)):
        with pytest.raises(DomainError, match="at least two samples"):
            run_cell(kind, {}, "half-data", one, SPECS, p, 3, FAST, memo=memo)
    assert not any(isinstance(x, Dataset) for x in walk(memo))


def test_clean_data_pretrains_once_under_every_check_seed(monkeypatch):
    # Two sparsities, so the second ticket is not the first one's held clean ticket.
    runs = {None: 0.5, 9: 0.8}
    alone = {s: build_ticket("lt", SPECS, SPLIT, p, 18, FAST, {}, ["rearrange"], check_seed=s)
             for s, p in runs.items()}
    trained = count_calls(monkeypatch, pipelines, "train")
    memo = {}
    for s, p in runs.items():
        ticket = build_ticket(
            "lt", SPECS, SPLIT, p, 18, FAST, {}, ["rearrange"], check_seed=s, memo=memo
        )
        assert same_arrays(ticket, alone[s]) and ticket.provenance == alone[s].provenance
    assert len(trained) == 1
    assert memo.keys() == {("none", None)}


def test_a_data_free_cell_under_a_data_check_returns_the_clean_cell(monkeypatch):
    trained = count_calls(monkeypatch, pipelines, "train")
    checks = ("corrupt-both", "none", "random-labels", "rearrange")
    cells = run_grid(("random", "dense"), checks, (0.5,), (3, 4), {})
    # The first of corrupt-both and none retrains; rearrange retrains its own ticket.
    assert len(trained) == 2 * 2 * 2
    for kind, seed in itertools.product(("random", "dense"), (3, 4)):
        clean = cells[kind, 0.5, "none", seed]
        assert cells[kind, 0.5, "corrupt-both", seed] is clean
        assert cells[kind, 0.5, "random-labels", seed] is clean
        assert cells[kind, 0.5, "rearrange", seed] is not clean


def test_a_memo_holds_one_group_of_read_only_clean_tickets():
    memo = {}
    checks = ("none", "corrupt-both", "shuffle-weights")
    run_grid(("snip",), checks, (0.5, 0.8), (3, 4), memo)
    # One score per pruning data and seed, kept until the next pipeline.
    assert {held["pipeline"][0] for held in memo.values()} == {("snip", (), SPECS, FAST)}
    scored = held_entries(memo, "scores")
    assert sorted(scored) == [("corrupt-both", s, s) for s in (3, 4)] + [
        ("none", None, s) for s in (3, 4)]
    arrays = [x for x in walk(scored) if isinstance(x, np.ndarray)]
    assert len(arrays) == 4 * (2 * len(SIZES) + 1)  # init, scores and batch index each
    assert not any(arr.flags.writeable for arr in arrays)
    cells = run_grid(("lt",), checks, (0.5, 0.8), (3, 4), memo)
    assert memo.keys() == {("none", None), ("corrupt-both", 3), ("corrupt-both", 4)}
    assert all(memo["corrupt-both", s]["pipeline"][1] == {} for s in (3, 4))
    group, held = memo["none", None]["pipeline"]
    assert group == ("lt", (("preserve_output_layer", False),), SPECS, FAST)
    # Every sparsity's clean ticket and clean cell, kept until the next pipeline.
    tickets = [(p, s) for p in (0.5, 0.8) for s in (3, 4)]
    assert sorted(k for k in held if k[0] != "cell") == tickets
    assert sorted(k[1:] for k in held if k[0] == "cell") == tickets
    for p, seed in itertools.product((0.5, 0.8), (3, 4)):
        assert held[p, seed] is cells["lt", p, "none", seed].ticket
        assert held["cell", p, seed] is cells["lt", p, "none", seed]
    assert_holds_corrupted_sets(memo, [("corrupt-both", s) for s in (3, 4)])
    # The last group's tickets, the pretraining runs and the corrupted sets.
    arrays = [x for x in walk(memo) if isinstance(x, np.ndarray)]
    assert arrays and not any(arr.flags.writeable for arr in arrays)
    # An attacked ticket is the cell's own, not the held one.
    attacked = cells["lt", 0.8, "shuffle-weights", 3].ticket
    assert attacked.provenance == {**held[0.8, 3].provenance, "checks": ["shuffle-weights"],
                                   "check_seed": 3}


def test_ticket_container_round_trips_bit_for_bit(tmp_path):
    ticket = build_ticket("lt", SPECS, SPLIT, 0.5, 16, FAST)
    path = tmp_path / "t.plab"
    save_ticket(ticket, str(path))
    loaded = load_ticket(str(path))
    for wa, wb in zip(ticket.weights.weights, loaded.weights.weights):
        assert np.array_equal(wa, wb)
    for ca, cb in zip(ticket.mask.layers, loaded.mask.layers):
        assert np.array_equal(ca, cb)
    assert loaded.provenance["kind"] == "lt"
    assert loaded.provenance["source_checkpoint_epochs"] == [0, FAST.epochs]
    assert loaded.weights.specs == SPECS

    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    bad = tmp_path / "bad.plab"
    bad.write_bytes(bytes(raw))
    with pytest.raises(DatasetError, match="magic"):
        load_ticket(str(bad))

    raw = bytearray(path.read_bytes())
    raw[8] = 99
    bad.write_bytes(bytes(raw))
    with pytest.raises(DatasetError, match="version"):
        load_ticket(str(bad))


def test_ticket_file_stores_one_header_then_the_arrays(tmp_path):
    shape = (1, 12, 12)
    specs = preset_specs("conv-5", shape, 4)
    split = synthetic_blobs(4, 144, 100, seed=3, sample_shape=shape)
    ticket = build_ticket("snip", specs, split, 0.9, 5, FAST, {}, ["rearrange"])
    path = tmp_path / "c5.plab"
    save_ticket(ticket, str(path))
    raw = path.read_bytes()
    version, header_bytes = struct.unpack_from("<IQ", raw, 8)
    header = json.loads(raw[20 : 20 + header_bytes])
    assert version == 3 and header["provenance"] == ticket.provenance
    assert len(header["arch"]) == len(specs)
    assert len(raw) == 20 + header_bytes + 16 * sum(layer_sizes(specs)) + 4
    loaded = load_ticket(str(path))
    assert same_arrays(ticket, loaded) and loaded.provenance == ticket.provenance
    assert loaded.weights.specs == specs


def test_a_version_2_ticket_file_is_refused_by_its_version(tmp_path):
    path = tmp_path / "t.plab"
    save_ticket(tiny_ticket(), str(path))
    raw = bytearray(path.read_bytes())
    raw[8:12] = struct.pack("<I", 2)
    path.write_bytes(bytes(raw))
    with pytest.raises(DatasetError, match="unsupported ticket version 2$"):
        load_ticket(str(path))


def tiny_ticket():
    specs = (LayerSpec("dense", 2, 3), LayerSpec("dense", 3, 2, is_output=True))
    mask = Mask((np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0]), np.ones(6)))
    return Ticket(mask, build_network(specs, seed=1), {"kind": "dense", "seed": 1})


def test_containers_reject_every_truncation_and_trailing_bytes(tmp_path):
    path = tmp_path / "whole"
    save_ticket(tiny_ticket(), str(path))
    raw = path.read_bytes()
    load_ticket(str(path))
    torn = tmp_path / "torn"
    for cut in range(len(raw)):
        torn.write_bytes(raw[:cut])
        with pytest.raises(DatasetError):
            load_ticket(str(torn))
    torn.write_bytes(raw + b"\0")
    with pytest.raises(DatasetError, match="trailing"):
        load_ticket(str(torn))


def test_ticket_container_rejects_every_single_flipped_byte(tmp_path):
    path = tmp_path / "whole"
    save_ticket(tiny_ticket(), str(path))
    raw = path.read_bytes()
    flipped = tmp_path / "flipped"
    for i in range(len(raw)):
        bad = bytearray(raw)
        bad[i] ^= 0x01
        flipped.write_bytes(bytes(bad))
        with pytest.raises(DatasetError):
            load_ticket(str(flipped))


def test_ticket_rejects_per_layer_size_mismatch():
    ticket = tiny_ticket()
    with pytest.raises(AlignmentError):
        Ticket(Mask((np.ones(5), np.ones(6))), ticket.weights, {})


def test_a_two_dimensional_sample_shape_is_one_channel():
    specs = preset_specs("conv-5", (12, 12), 4)
    cells = []
    for shape in ((12, 12), (1, 12, 12)):
        split = synthetic_blobs(4, 144, 100, seed=3, sample_shape=shape)
        assert split.train.sample_shape == split.test.sample_shape == (1, 12, 12)
        cells.append(run_cell("snip", {}, "none", split, specs, 0.9, 5, FAST))
    flat, shaped = cells
    assert (flat.accuracy, flat.keep) == (shaped.accuracy, shaped.keep)
    assert same_arrays(flat.ticket, shaped.ticket)


def test_build_ticket_refuses_an_unknown_check_and_a_second_data_check():
    with pytest.raises(DomainError, match=r"unknown check in \['none', 'mirror'\]"):
        build_ticket("snip", SPECS, SPLIT, 0.5, 1, FAST, checks=["none", "mirror"])
    with pytest.raises(DomainError, match="at most one data check"):
        build_ticket("snip", SPECS, SPLIT, 0.5, 1, FAST, checks=["random-labels", "half-data"])
    # a data-free kind reads no data, so it ignores data checks instead
    build_ticket("random", SPECS, SPLIT, 0.5, 1, FAST, checks=["random-labels", "half-data"])


def test_check_stream_refuses_an_unknown_check():
    with pytest.raises(DomainError, match="unknown check 'mirror'"):
        pipelines.check_stream(3, "mirror")


def test_pipeline_options_refuse_an_unknown_or_unhashable_kind():
    for kind in ("quantize", ["snip"], None):
        with pytest.raises(DomainError, match=re.escape(f"unknown pipeline kind {kind!r};")):
            pipelines.pipeline_options(kind, {})


def test_imp_refuses_a_sparsity_whose_kept_budget_rounds_to_zero():
    # round((1 - p) * 42) == 0 for p > 1 - 0.5 / 42
    with pytest.raises(InfeasibleSparsityError, match="empty the whole network"):
        build_ticket("imp", SPECS, SPLIT, 0.99, 1, FAST)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_train_refuses_weights_that_the_last_step_made_non_finite():
    # One step of one epoch: its loss is computed before the step, so it is
    # finite, and the step itself overflows the weights.
    cfg = TrainConfig(epochs=1, batch_size=SPLIT.train.n, initial_lr=1e308, weight_decay=1e10)
    with pytest.raises(TrainingDivergedError, match="layer 0 weights became non-finite") as err:
        train(build_network(SPECS, seed=8), full_mask(SIZES), SPLIT.train, cfg)
    assert err.value.epoch == 0


@pytest.mark.parametrize("provenance", [[1, 2], "dense", None])
def test_load_ticket_refuses_a_provenance_that_is_not_an_object(tmp_path, provenance):
    ticket = tiny_ticket()
    path = tmp_path / "t.plab"
    save_ticket(Ticket(ticket.mask, ticket.weights, provenance), str(path))
    with pytest.raises(DatasetError, match="provenance is not a JSON object"):
        load_ticket(str(path))


def test_records_are_shallow_copies_with_tuples_as_lists():
    cfg = TrainConfig(lr_drop_points=(0.25, 0.5))
    assert cfg.to_dict() == {**dataclasses.asdict(cfg), "lr_drop_points": [0.25, 0.5]}
    assert TrainConfig.from_dict(cfg.to_dict()) == cfg
    ticket = build_ticket("random", preset_specs("conv-5", (1, 8, 8)), None, 0.5, 1, FAST)
    assert ticket.provenance["arch"][0] == {
        "kind": "conv", "fan_in": 1, "fan_out": 4, "kernel": [3, 3], "is_output": False,
    }
    assert ticket.provenance["arch"][-1]["kernel"] is None
