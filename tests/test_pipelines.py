"""Training loop, ticket constructors, IMP, suite runner, binary containers."""

import numpy as np
import pytest

from prunelab import seeding
from prunelab.engine import backward, forward_loss
from prunelab.errors import (
    AlignmentError,
    DatasetError,
    DomainError,
    InfeasibleSparsityError,
    TrainingDivergedError,
)
from prunelab.models import LayerSpec, build_network, layer_sizes
from prunelab.pipelines import (
    IMP_MODES,
    TICKET_KINDS,
    Checkpoint,
    Ticket,
    TrainConfig,
    apply_structural_check,
    best_accuracy,
    build_ticket,
    iterative_magnitude_prune,
    learning_rate_at,
    load_checkpoint,
    load_ticket,
    make_initial_ticket,
    make_lt_ticket,
    make_random_ticket,
    make_weight_rewind_ticket,
    replay_ticket,
    rewind_weights,
    run_cell,
    run_sanity_suite,
    save_checkpoint,
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
from prunelab.data import synthetic_blobs

SPECS = (
    LayerSpec("dense", 4, 6),
    LayerSpec("dense", 6, 3, is_output=True),
)
SIZES = layer_sizes(SPECS)  # [24, 18]
SPLIT = synthetic_blobs(3, 4, 60, seed=9)
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


def test_train_matches_manual_sgd_loop_bit_for_bit():
    params = build_network(SPECS, seed=3)
    rng = np.random.default_rng(4)
    mask = Mask(tuple((rng.random(m) < 0.7).astype(float) for m in SIZES))
    cfg = TrainConfig(epochs=2, batch_size=16, seed=11)
    result = train(params, mask, SPLIT.train, cfg)

    shuffle = seeding.stream(cfg.seed, seeding.BATCH_SHUFFLE)
    w = [x.copy() for x in params.weights]
    vel = [np.zeros_like(x) for x in w]
    n = SPLIT.train.n
    for epoch in range(cfg.epochs):
        lr = learning_rate_at(cfg, epoch)
        order = shuffle.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            _, tape = forward_loss(
                params.with_weights(w), mask,
                SPLIT.train.samples[idx], SPLIT.train.labels[idx],
            )
            grads = backward(tape)
            for l, (g, c) in enumerate(zip(grads, mask.layers)):
                step = (g + cfg.weight_decay * w[l]) * c
                vel[l] = cfg.momentum * vel[l] + step
                w[l] = w[l] - lr * vel[l]

    for got, want in zip(result.params.weights, w):
        assert np.array_equal(got, want)


def test_train_never_moves_masked_weights():
    params = build_network(SPECS, seed=5)
    rng = np.random.default_rng(6)
    mask = Mask(tuple((rng.random(m) < 0.5).astype(float) for m in SIZES))
    result = train(params, mask, SPLIT.train, FAST)
    for w0, w1, c in zip(params.weights, result.params.weights, mask.layers):
        dead = c == 0.0
        assert np.array_equal(w0[dead], w1[dead])
        assert not np.array_equal(w0[~dead], w1[~dead])


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
    for w0, winit in zip(result.checkpoints[0].weights.weights, params.weights):
        assert np.array_equal(w0, winit)
    assert result.checkpoints[3].epoch == 3
    assert any(
        not np.array_equal(a, b)
        for a, b in zip(
            result.checkpoints[2].weights.weights, result.checkpoints[3].weights.weights
        )
    )
    with pytest.raises(DomainError):
        train(params, mask, SPLIT.train, FAST, checkpoint_epochs=(7,))


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


def test_best_accuracy_uses_history_or_fallback():
    params = build_network(SPECS, seed=12)
    mask = full_mask(SIZES)
    result = train(params, mask, SPLIT.train, FAST, eval_data=SPLIT.test)
    accs = [h.accuracy for h in result.history]
    assert best_accuracy(result) == max(accs)
    silent = train(params, mask, SPLIT.train, FAST)
    assert all(h.accuracy is None for h in silent.history)
    fallback = best_accuracy(silent, silent.params, mask, SPLIT.test)
    assert 0.0 <= fallback <= 1.0
    with pytest.raises(DomainError):
        best_accuracy(silent)


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
    ticket = make_initial_ticket(kind, SPECS, SPLIT.train, 0.5, seed=2)
    total = sum(SIZES)
    assert ticket.mask.total_kept == round_half_up(0.5 * total)
    for w, init in zip(ticket.weights.weights, build_network(SPECS, 2).weights):
        assert np.array_equal(w, init)
    assert ticket.provenance["kind"] == kind
    assert len(ticket.provenance["score_batch"]) == SPLIT.train.n
    with pytest.raises(DomainError):
        make_initial_ticket("magnitude", SPECS, SPLIT.train, 0.5, seed=2)


def test_lt_ticket_resets_kept_weights_to_init_bit_for_bit():
    ticket = make_lt_ticket(SPECS, SPLIT.train, 0.5, FAST, seed=3)
    init = build_network(SPECS, 3)
    for w, winit in zip(ticket.weights.weights, init.weights):
        assert np.array_equal(w, winit)
    assert ticket.mask.total_kept == round_half_up(0.5 * sum(SIZES))
    assert 0 in ticket.provenance["source_checkpoints"]


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


def test_weight_rewind_ticket_takes_the_checkpoint_weights():
    ticket = make_weight_rewind_ticket(SPECS, SPLIT.train, 0.5, FAST, 2, seed=5)
    assert ticket.provenance["rewound_to_epoch"] == 2
    assert ticket.provenance["schedule_offset"] == 2
    source = ticket.provenance["source_checkpoints"][2]
    for w, wc in zip(ticket.weights.weights, source.weights.weights):
        assert np.array_equal(w, wc)
    with pytest.raises(DomainError):
        make_weight_rewind_ticket(SPECS, SPLIT.train, 0.5, FAST, 9, seed=5)


def test_rewind_weights_swaps_checkpoint_and_offset():
    ticket = make_lt_ticket(SPECS, SPLIT.train, 0.5, FAST, seed=6)
    final = ticket.provenance["source_checkpoints"][FAST.epochs]
    rewound = rewind_weights(ticket, final)
    assert rewound.provenance["schedule_offset"] == FAST.epochs
    for w, wc in zip(rewound.weights.weights, final.weights.weights):
        assert np.array_equal(w, wc)
    assert rewound.mask is ticket.mask


def test_lr_rewind_ticket_keeps_trained_weights_and_fresh_schedule():
    ticket = build_ticket("lr-rewind", SPECS, SPLIT, 0.5, 7, FAST)
    assert ticket.provenance["schedule_offset"] == 0
    final = ticket.provenance["source_checkpoints"][FAST.epochs]
    for w, wc in zip(ticket.weights.weights, final.weights.weights):
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
        ticket = make_random_ticket(SPECS, 0.6, "plain", 9, schedule_kind=kind)
        assert ticket.mask.total_kept == round_half_up(0.4 * sum(SIZES))
        assert ticket.provenance["schedule"] == kind
    a = make_random_ticket(SPECS, 0.6, "plain", 10)
    b = make_random_ticket(SPECS, 0.6, "plain", 10)
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
    ticket = iterative_magnitude_prune(SPECS, SPLIT.train, 0.7, 0.2, cfg, mode, seed=11)
    total = sum(SIZES)
    budget = round_half_up(0.3 * total)
    seq = imp_survivor_sequence(total, budget, 0.2)
    assert ticket.mask.total_kept == budget
    assert ticket.provenance["rounds"] == len(seq)
    assert ticket.provenance["mode"] == mode


def test_imp_reset_mode_returns_initialization_weights():
    cfg = TrainConfig(epochs=1, batch_size=16, seed=0)
    ticket = iterative_magnitude_prune(SPECS, SPLIT.train, 0.7, 0.2, cfg, "reset", seed=12)
    init = build_network(SPECS, 12)
    for w, winit in zip(ticket.weights.weights, init.weights):
        assert np.array_equal(w, winit)


def test_imp_hybrid_mode_lands_on_schedule_quotas():
    cfg = TrainConfig(epochs=1, batch_size=16, seed=0)
    ticket = iterative_magnitude_prune(SPECS, SPLIT.train, 0.7, 0.3, cfg, "hybrid", seed=13)
    want = smart_ratio(SIZES, SPECS, 0.7).quotas
    assert tuple(ticket.mask.counts()) == want


def test_imp_validates_arguments():
    cfg = TrainConfig(epochs=1, batch_size=16, seed=0)
    with pytest.raises(DomainError):
        iterative_magnitude_prune(SPECS, SPLIT.train, 0.7, 0.0, cfg, "reset", 0)
    with pytest.raises(DomainError):
        iterative_magnitude_prune(SPECS, SPLIT.train, 1.2, 0.2, cfg, "reset", 0)
    with pytest.raises(DomainError):
        iterative_magnitude_prune(SPECS, SPLIT.train, 0.7, 0.2, cfg, "anneal", 0)


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


def test_replay_ticket_reproduces_mask_and_weights():
    for kind in ("random", "snip", "lt"):
        ticket = build_ticket(kind, SPECS, SPLIT, 0.5, 3, FAST)
        again = replay_ticket(ticket.provenance, SPECS, SPLIT)
        for ca, cb in zip(ticket.mask.layers, again.mask.layers):
            assert np.array_equal(ca, cb)
        for wa, wb in zip(ticket.weights.weights, again.weights.weights):
            assert np.array_equal(wa, wb)


def test_apply_structural_check_records_provenance():
    ticket = build_ticket("random", SPECS, SPLIT, 0.5, 4, FAST)
    rng = np.random.default_rng(0)
    rearranged = apply_structural_check(ticket, "rearrange", rng)
    assert rearranged.mask.counts() == ticket.mask.counts()
    assert rearranged.provenance["checks"] == ["rearrange"]
    shuffled = apply_structural_check(rearranged, "shuffle-weights", rng)
    assert shuffled.provenance["checks"] == ["rearrange", "shuffle-weights"]
    with pytest.raises(DomainError):
        apply_structural_check(ticket, "random-labels", rng)


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


def test_run_sanity_suite_covers_the_grid():
    report = run_sanity_suite(
        "random", ["rearrange"], SPLIT, SPECS,
        sparsities=[0.5], seeds=[0, 1], train_cfg=FAST,
    )
    assert len(report.details) == 4  # (none + rearrange) x 1 sparsity x 2 seeds
    assert len(report.summary) == 2
    for s in report.summary:
        rows = [d for d in report.details if d["check"] == s["check"]]
        accs = [d["accuracy"] for d in rows]
        assert s["mean"] == pytest.approx(np.mean(accs))
        assert s["std"] == pytest.approx(np.std(accs, ddof=1))
        assert s["n"] == 2


def test_checkpoint_container_round_trips_bit_for_bit(tmp_path):
    params = build_network(SPECS, seed=14)
    result = train(params, full_mask(SIZES), SPLIT.train, FAST, checkpoint_epochs=(2,))
    ckpt = result.checkpoints[2]
    path = tmp_path / "epoch2.ckpt"
    save_checkpoint(ckpt, str(path))
    loaded = load_checkpoint(str(path))
    assert loaded.epoch == 2
    for wa, wb in zip(ckpt.weights.weights, loaded.weights.weights):
        assert np.array_equal(wa, wb)
    assert loaded.weights.specs == SPECS

    # restored rng state continues the stream identically
    a = np.random.default_rng()
    a.bit_generator.state = ckpt.rng_state
    b = np.random.default_rng()
    b.bit_generator.state = loaded.rng_state
    assert np.array_equal(a.random(8), b.random(8))


def test_checkpoint_container_rejects_corruption(tmp_path):
    params = build_network(SPECS, seed=15)
    ckpt = Checkpoint(0, params, np.random.default_rng(0).bit_generator.state)
    path = tmp_path / "c.ckpt"
    save_checkpoint(ckpt, str(path))
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(raw))
    with pytest.raises(DatasetError, match="magic"):
        load_checkpoint(str(bad))

    raw = bytearray(path.read_bytes())
    raw[8] = 99
    versioned = tmp_path / "versioned.ckpt"
    versioned.write_bytes(bytes(raw))
    with pytest.raises(DatasetError, match="version"):
        load_checkpoint(str(versioned))


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


def tiny_ticket():
    specs = (LayerSpec("dense", 2, 3), LayerSpec("dense", 3, 2, is_output=True))
    mask = Mask((np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0]), np.ones(6)))
    return Ticket(mask, build_network(specs, seed=1), {"kind": "dense", "seed": 1})


def test_containers_reject_every_truncation_and_trailing_bytes(tmp_path):
    ticket = tiny_ticket()
    ckpt = Checkpoint(0, ticket.weights, np.random.default_rng(0).bit_generator.state)
    for save, load, obj in (
        (save_ticket, load_ticket, ticket),
        (save_checkpoint, load_checkpoint, ckpt),
    ):
        path = tmp_path / "whole"
        save(obj, str(path))
        raw = path.read_bytes()
        load(str(path))
        torn = tmp_path / "torn"
        for cut in range(len(raw)):
            torn.write_bytes(raw[:cut])
            with pytest.raises(DatasetError):
                load(str(torn))
        torn.write_bytes(raw + b"\0")
        with pytest.raises(DatasetError, match="trailing"):
            load(str(torn))


def test_ticket_rejects_per_layer_size_mismatch():
    ticket = tiny_ticket()
    with pytest.raises(AlignmentError):
        Ticket(Mask((np.ones(5), np.ones(6))), ticket.weights, {})
