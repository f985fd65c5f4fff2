"""Acceptance gate: twelve pinned behavioral criteria, one verdict line each.

Every test prints a single PASS/FAIL line with its measured numbers before
asserting, so a plain `pytest -s tests/test_acceptance.py` reads as a report.
Constants here are frozen; loosening a tolerance is a design change, not a fix.
"""

import csv
import time
from collections import Counter
from itertools import combinations

import numpy as np

from prunelab.checks import rearrange_mask_layerwise
from prunelab.data import synthetic_blobs
from prunelab.engine import (
    backward,
    forward_loss,
    hessian_vector_product,
)
from prunelab.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    config_hash,
    run_experiment,
)
from prunelab.models import (
    ArchFamily,
    LayerSpec,
    LayeredParams,
    build_network,
    layer_sizes,
    preset_specs,
)
from prunelab.pipelines import (
    TICKET_KINDS,
    TrainConfig,
    build_ticket,
    run_cell,
    train,
)
from prunelab.pruning import (
    Mask,
    ScoreMap,
    full_mask,
    mask_from_scores_global,
    round_half_up,
    sparsity,
)
from prunelab.schedules import (
    SCHEDULE_KINDS,
    schedule_by_name,
    smart_ratio,
    smart_raw_weights,
)

from oracles import finite_diff_gradient

GRAD_REL_TOL = 1e-4
GRAD_TIME_BUDGET = 10.0
HVP_ABS_TOL = 1e-6
HVP_TIME_BUDGET = 1.0
SCHEDULE_TIME_BUDGET = 1.0
WORKED_EXAMPLE_TOL = 1e-12
CHI2_CRIT_DF5_P01 = 15.086272469388987
TREND_TIME_BUDGET = 300.0
DENSE_GAP_MAX_PTS = 5.0
CHECK_GAP_MAX_PTS = 2.0

# shared benchmark: well-separated clusters, expanding dense stack, five seeds
BLOBS = synthetic_blobs(4, 16, 800, seed=7, noise=1.0)
BENCH_SPECS = preset_specs("mlp-4", (16,), 4)
BENCH_TRAIN = TrainConfig(epochs=40, batch_size=64, seed=0)
BENCH_SEEDS = (21, 22, 23, 24, 25)
BENCH_SPARSITY = 0.9

SMALL_SPECS = (
    LayerSpec("dense", 4, 6),
    LayerSpec("dense", 6, 3, is_output=True),
)
SMALL_SPLIT = synthetic_blobs(3, 4, 60, seed=9)
SMALL_TRAIN = TrainConfig(epochs=2, batch_size=16, seed=0)


def _verdict(num, ok, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_backward_matches_central_differences():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for i in range(50):
        depth = int(rng.integers(2, 4))
        if depth == 2:
            dims = [int(rng.integers(2, 9)), int(rng.integers(2, 9)), int(rng.integers(2, 5))]
        else:
            dims = [int(rng.integers(2, 7)) for _ in range(3)] + [int(rng.integers(2, 5))]
        specs = tuple(
            LayerSpec("dense", a, b, is_output=(j == depth - 1))
            for j, (a, b) in enumerate(zip(dims, dims[1:]))
        )
        assert sum(s.weight_count for s in specs) <= 200
        params = build_network(specs, seed=1000 + i)
        mask = Mask(tuple(
            (rng.random(s.weight_count) < 0.8).astype(float) for s in specs
        ))
        x = rng.normal(size=(6, dims[0]))
        y = rng.integers(0, dims[-1], 6)

        def loss_fn(ws, _p=params, _m=mask, _x=x, _y=y):
            return forward_loss(_p.with_weights(ws), _m, _x, _y)[0]

        oracle = finite_diff_gradient(loss_fn, params.weights, 1e-6)
        _, tape = forward_loss(params, mask, x, y)
        grads = backward(tape)
        scale = max(float(np.abs(g).max()) for g in oracle)
        err = max(
            float(np.abs(a - f).max()) for a, f in zip(grads, oracle)
        ) / max(scale, 1e-12)
        worst = max(worst, err)
    elapsed = time.perf_counter() - started
    ok = worst <= GRAD_REL_TOL and elapsed < GRAD_TIME_BUDGET
    _verdict(1, ok, f"50 nets, max relative gradient error {worst:.3e} "
                    f"(tol {GRAD_REL_TOL}), {elapsed:.2f}s (budget {GRAD_TIME_BUDGET}s)")


def test_criterion_02_hvp_matches_known_hessians():
    started = time.perf_counter()
    # frozen diagonal case: loss = w1^2 + 3 w2^2, so H v = (2, 6) at v = (1, 1)
    specs = (LayerSpec("dense", 2, 1, is_output=True),)
    params = LayeredParams(specs, (np.array([0.7, -0.4]),))
    x = np.array([[2.0, 0.0], [0.0, 2.0 * np.sqrt(3.0)]])
    y = np.array([0.0, 0.0])
    _, fp = forward_loss(params, full_mask([2]), x, y, head="squared-error")
    hv = hessian_vector_product(fp, [np.array([1.0, 1.0])])
    worst = float(np.abs(hv[0] - np.array([2.0, 6.0])).max())
    # random least-squares quadratics: exact Hessian is X^T X / n
    for k in range(20):
        rng = np.random.default_rng(200 + k)
        n, d = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        xk = rng.normal(size=(n, d))
        yk = rng.normal(size=n)
        pk = LayeredParams(
            (LayerSpec("dense", d, 1, is_output=True),), (rng.normal(size=d),)
        )
        v = rng.normal(size=d)
        _, fpk = forward_loss(pk, full_mask([d]), xk, yk, head="squared-error")
        hvk = hessian_vector_product(fpk, [v])
        exact = (xk.T @ xk / n) @ v
        worst = max(worst, float(np.abs(hvk[0] - exact).max()))
    elapsed = time.perf_counter() - started
    ok = worst <= HVP_ABS_TOL and elapsed < HVP_TIME_BUDGET
    _verdict(2, ok, f"21 quadratics, max Hessian-vector error {worst:.3e} "
                    f"(tol {HVP_ABS_TOL}), {elapsed:.2f}s (budget {HVP_TIME_BUDGET}s)")


def test_criterion_03_every_schedule_hits_the_budget_exactly():
    started = time.perf_counter()
    presets = [preset_specs("mlp-4", (16,), 4), preset_specs("conv-5", (1, 8, 8), 4)]
    cells = 0
    for specs in presets:
        sizes = layer_sizes(specs)
        total = sum(sizes)
        for kind in SCHEDULE_KINDS:
            for p in (0.5, 0.9, 0.95, 0.98):
                for family in ArchFamily:
                    schedule = schedule_by_name(kind, sizes, specs, p, family)
                    assert sum(schedule.quotas) == round_half_up((1.0 - p) * total)
                    assert all(q <= m for q, m in zip(schedule.quotas, sizes))
                    assert all(q >= 0 for q in schedule.quotas)
                    cells += 1
    elapsed = time.perf_counter() - started
    ok = cells == 80 and elapsed < SCHEDULE_TIME_BUDGET
    _verdict(3, ok, f"{cells} schedule cells exact to the weight "
                    f"(budget == half-up rounding), {elapsed:.3f}s "
                    f"(budget {SCHEDULE_TIME_BUDGET}s)")


def test_criterion_04_depth_weighted_worked_examples():
    a = smart_ratio([100, 100, 100, 100, 50], None, 1.0 - 83.0 / 450.0)
    want_a = (0.30, 0.20, 0.12, 0.06, 0.30)
    err_a = max(abs(r - w) for r, w in zip(a.ratios, want_a))
    ok_a = err_a <= WORKED_EXAMPLE_TOL and a.quotas == (30, 20, 12, 6, 15)

    b = smart_ratio([10, 100, 40], None, 1.0 - 112.0 / 150.0)
    err_b = max(abs(r - w) for r, w in zip(b.ratios, (1.0, 0.9, 0.3)))
    ok_b = b.quotas == (10, 90, 12) and err_b <= WORKED_EXAMPLE_TOL

    c = smart_raw_weights(4, ArchFamily.FAST_DECAY)
    err_c = max(abs(r - w) for r, w in zip(c, (20.0, 3.0, 2.0 / 3.0)))
    ok_c = err_c <= WORKED_EXAMPLE_TOL

    ok = ok_a and ok_b and ok_c
    _verdict(4, ok, f"three worked schedules reproduced, max errors "
                    f"{err_a:.1e}/{err_b:.1e}/{err_c:.1e} (tol {WORKED_EXAMPLE_TOL})")


def test_criterion_05_rearrange_preserves_counts_and_is_uniform():
    rng = np.random.default_rng(505)
    preserved = 0
    for _ in range(1000):
        depth = int(rng.integers(1, 5))
        sizes = [int(rng.integers(1, 31)) for _ in range(depth)]
        mask = Mask(tuple(rng.integers(0, 2, m).astype(float) for m in sizes))
        out = rearrange_mask_layerwise(mask, rng)
        if out.counts() == mask.counts():
            preserved += 1

    draw_rng = np.random.default_rng(0)
    base = Mask((np.array([1.0, 0.0, 1.0, 0.0]),))
    tallies = Counter()
    for _ in range(6000):
        layer = rearrange_mask_layerwise(base, draw_rng).layers[0]
        tallies[tuple(np.flatnonzero(layer).tolist())] += 1
    outcomes = list(combinations(range(4), 2))
    expected = 6000 / len(outcomes)
    chi2 = sum((tallies[o] - expected) ** 2 / expected for o in outcomes)

    ok = preserved == 1000 and len(tallies) == 6 and chi2 < CHI2_CRIT_DF5_P01
    _verdict(5, ok, f"counts preserved {preserved}/1000, placement chi-square "
                    f"{chi2:.3f} over 6000 draws (crit {CHI2_CRIT_DF5_P01:.3f} "
                    f"at the 1% level, df=5)")


def test_criterion_06_global_magnitude_matches_full_sort():
    rng = np.random.default_rng(606)
    agreed = 0
    trials = []
    for i in range(200):
        depth = int(rng.integers(1, 5))
        if i < 5:
            sizes = [2500] * 4  # exercise the 10^4-weight ceiling
        else:
            sizes = [int(rng.integers(10, 1000)) for _ in range(depth)]
        trials.append((sizes, float(rng.uniform(0.05, 0.9))))
    for sizes, p in trials:
        total = sum(sizes)
        assert total <= 10_000
        weights = [rng.normal(size=m) for m in sizes]
        scores = ScoreMap(tuple(np.abs(w) for w in weights))
        mask = mask_from_scores_global(scores, p)
        flat = np.concatenate([np.abs(w) for w in weights])
        ranked = sorted(((-flat[j], j) for j in range(total)))
        keep = round_half_up((1.0 - p) * total)
        brute = np.zeros(total)
        brute[[j for _, j in ranked[:keep]]] = 1.0
        if np.array_equal(np.concatenate(mask.layers), brute):
            agreed += 1
    ok = agreed == 200
    _verdict(6, ok, f"global magnitude selection identical to full-sort "
                    f"brute force on {agreed}/200 instances up to 10^4 weights")


def test_criterion_07_reset_tickets_and_masked_inertness():
    lt = build_ticket("lt", SMALL_SPECS, SMALL_SPLIT, 0.5, 11, SMALL_TRAIN)
    init = build_network(SMALL_SPECS, 11)
    reset_ok = all(
        np.array_equal(w[c == 1.0], wi[c == 1.0])
        for w, wi, c in zip(lt.weights.weights, init.weights, lt.mask.layers)
    )

    inert = []
    for kind in TICKET_KINDS:
        ticket = build_ticket(kind, SMALL_SPECS, SMALL_SPLIT, 0.5, 11, SMALL_TRAIN)
        result = train(ticket.weights, ticket.mask, SMALL_SPLIT.train, SMALL_TRAIN)
        inert.append(all(
            np.array_equal(w0[c == 0.0], w1[c == 0.0])
            for w0, w1, c in zip(
                ticket.weights.weights, result.params.weights, ticket.mask.layers
            )
        ))
    ok = reset_ok and all(inert)
    _verdict(7, ok, f"winning-ticket weights bit-equal to the start-of-training "
                    f"snapshot ({reset_ok}), pruned weights inert through "
                    f"retraining for all {len(TICKET_KINDS)} pipelines "
                    f"({sum(inert)}/{len(TICKET_KINDS)})")


def test_criterion_08_hybrid_fills_schedule_quotas_by_magnitude():
    cfg = TrainConfig(epochs=2, batch_size=64, seed=0)
    sizes = layer_sizes(BENCH_SPECS)
    results = []
    for p in (0.5, 0.9, 0.98):
        ticket = build_ticket("hybrid", BENCH_SPECS, BLOBS, p, 17, cfg)
        want = smart_ratio(sizes, BENCH_SPECS, p).quotas
        quota_ok = tuple(ticket.mask.counts()) == want
        no_empty = all(c >= 1 for c in ticket.mask.counts())
        dominance = True
        for w, c in zip(ticket.weights.weights, ticket.mask.layers):
            kept, dead = np.abs(w[c == 1.0]), np.abs(w[c == 0.0])
            if kept.size and dead.size and kept.min() < dead.max():
                dominance = False
        results.append(quota_ok and no_empty and dominance)
    ok = all(results)
    _verdict(8, ok, f"hybrid quotas equal the depth-weighted schedule with "
                    f"per-layer magnitude dominance and no emptied layer at "
                    f"p in (0.5, 0.9, 0.98): {sum(results)}/3")


def test_criterion_09_imp_compounds_rounds_and_nests_masks():
    specs = (
        LayerSpec("dense", 10, 22),
        LayerSpec("dense", 22, 30),
        LayerSpec("dense", 30, 4, is_output=True),
    )
    total = sum(layer_sizes(specs))
    assert total == 1000
    split = synthetic_blobs(4, 10, 200, seed=3)
    cfg = TrainConfig(epochs=2, batch_size=32, seed=0)
    q = 0.2
    imp = {"round_fraction": q, "mode": "reset"}
    shallow = build_ticket("imp", specs, split.train, 0.36, 5, cfg, imp)
    deep = build_ticket("imp", specs, split.train, 0.488, 5, cfg, imp)

    rounds_ok = shallow.provenance["rounds"] == 2 and deep.provenance["rounds"] == 3
    err2 = abs(sparsity(shallow.mask) - (1.0 - (1.0 - q) ** 2))
    err3 = abs(sparsity(deep.mask) - (1.0 - (1.0 - q) ** 3))
    compound_ok = err2 <= 1.0 / total and err3 <= 1.0 / total
    nested_ok = all(
        bool((d <= s).all()) for d, s in zip(deep.mask.layers, shallow.mask.layers)
    )
    ok = rounds_ok and compound_ok and nested_ok
    _verdict(9, ok, f"round compounding errors {err2:.2e}/{err3:.2e} "
                    f"(tol {1.0 / total:.0e}), rounds 2/3 as rounded, "
                    f"round-3 mask nested inside round-2 mask ({nested_ok})")


def _bench_mean(kind, params, check):
    accs = [
        run_cell(kind, params, check, BLOBS, BENCH_SPECS, BENCH_SPARSITY,
                 seed, BENCH_TRAIN).accuracy
        for seed in BENCH_SEEDS
    ]
    return float(np.mean(accs))


def test_criterion_10_depth_weighted_random_beats_flat_profiles():
    started = time.perf_counter()
    dense = _bench_mean("dense", {}, "none")
    smart = _bench_mean("random", {"schedule": "smart"}, "none")
    ascending = _bench_mean("random", {"schedule": "ascending"}, "none")
    balanced = _bench_mean("random", {"schedule": "balanced"}, "none")
    elapsed = time.perf_counter() - started
    ok = (
        dense - smart <= DENSE_GAP_MAX_PTS
        and smart >= ascending
        and smart >= balanced
        and elapsed < TREND_TIME_BUDGET
    )
    _verdict(10, ok, f"five-seed means at 90% sparsity: dense {dense:.2f}, "
                     f"depth-weighted {smart:.2f} (gap {dense - smart:.2f} ≤ "
                     f"{DENSE_GAP_MAX_PTS} pts), ascending {ascending:.2f}, "
                     f"balanced {balanced:.2f}; {elapsed:.0f}s "
                     f"(budget {TREND_TIME_BUDGET:.0f}s)")


def test_criterion_11_snip_shrugs_off_the_sanity_checks():
    started = time.perf_counter()
    clean = _bench_mean("snip", {}, "none")
    corrupted = _bench_mean("snip", {}, "corrupt-both")
    rearranged = _bench_mean("snip", {}, "rearrange")
    elapsed = time.perf_counter() - started
    gap_data = abs(clean - corrupted)
    gap_struct = abs(clean - rearranged)
    ok = (
        gap_data <= CHECK_GAP_MAX_PTS
        and gap_struct <= CHECK_GAP_MAX_PTS
        and elapsed < TREND_TIME_BUDGET
    )
    _verdict(11, ok, f"five-seed means at 90% sparsity: clean {clean:.2f}, "
                     f"corrupted-data gap {gap_data:.2f}, rearranged-mask gap "
                     f"{gap_struct:.2f} (both ≤ {CHECK_GAP_MAX_PTS} pts); "
                     f"{elapsed:.0f}s (budget {TREND_TIME_BUDGET:.0f}s)")


def test_criterion_12_identical_configs_write_identical_rows(tmp_path, monkeypatch):
    cfg = ExperimentConfig.from_dict({
        "arch": "mlp-4",
        "dataset": {"kind": "synthetic-blobs", "classes": 3, "dim": 4, "n": 60, "seed": 9},
        "pipelines": [{"kind": "random"}, {"kind": "snip"}],
        "sparsities": [0.5],
        "checks": ["none", "random-labels", "rearrange"],
        "seeds": [0, 1],
        "train": {"epochs": 2, "batch_size": 16, "seed": 0},
    })
    digest = config_hash(cfg)[:12]
    texts = []
    for name in ("rep-a", "rep-b"):
        monkeypatch.setenv("PRUNELAB_OUTPUT_DIR", str(tmp_path / name))
        run_experiment(cfg)
        path = tmp_path / name / f"rows-{digest}.csv"
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        drop = CSV_COLUMNS.index("seconds")
        texts.append("\n".join(",".join(r[:drop] + r[drop + 1:]) for r in rows))
    ok = texts[0] == texts[1] and texts[0].count("\n") == 12
    _verdict(12, ok, f"two runs of one config: {texts[0].count(chr(10))} data rows "
                     f"byte-identical once the timing column is dropped")
