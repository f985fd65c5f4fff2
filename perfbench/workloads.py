"""The benchmark's workloads: one prunelab experiment grid each.

A workload is a function of the workload seed only.  The seed picks the
dataset seed and the cell seed, so the same seed always yields the same
grid and therefore the same rows.  One grid run ("pass") happens in a fresh
process; a benchmark run repeats passes of the same grid until its time is
spent, so later passes add timing samples without changing the rows.  Passes
are kept short (one cell seed) so that every cell is sampled across the
whole run, not only in one stretch of it.

Every workload runs cells of all three groups, because every end-to-end
metric is reported for every workload.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Paper split between initial tickets, partially-trained tickets and IMP.
GROUPS = {
    "snip": "at_init",
    "grasp": "at_init",
    "random": "at_init",
    "lt": "pretrained",
    "weight-rewind": "pretrained",
    "lr-rewind": "pretrained",
    "hybrid": "pretrained",
    "imp": "iterative",
}
TAIL_GROUPS = ("at_init", "pretrained")

ALL_CHECKS = (
    "none", "random-labels", "random-pixels", "corrupt-both", "half-data",
    "rearrange", "shuffle-weights",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    arch: str
    dataset: dict  # synthetic-blobs keys except the seed
    pipelines: tuple
    sparsities: tuple
    checks: tuple
    epochs: int
    # Percentile reported as a group's tail.  Fixed per workload, so the
    # metric means the same on every commit: the highest percentile with at
    # least 10 calls of each tail group beyond it at the pass count most 30 s
    # runs made at the seed baseline (8 for mlp-grid, 6 for conv-grid, 13 for
    # score-sweep); the 35 s runs of BENCHMARK.json leave more beyond.
    tail_pct: int


def _kinds(*names, imp_fraction=0.5):
    out = []
    for n in names:
        out.append({"kind": "imp", "round_fraction": imp_fraction} if n == "imp" else {"kind": n})
    return tuple(out)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mlp-grid",
            why="mlp-4 grid of all eight ticket kinds: thousands of small SGD steps, "
            "so per-step engine and train overhead dominate; no conv",
            arch="mlp-4",
            dataset={"classes": 4, "dim": 16, "n": 800},
            pipelines=_kinds("snip", "grasp", "random", "lt", "weight-rewind",
                             "lr-rewind", "hybrid", "imp"),
            sparsities=(0.9,),
            checks=("none", "corrupt-both", "rearrange"),
            epochs=10,
            tail_pct=86,
        ),
        Workload(
            name="conv-grid",
            why="conv-5 on 1x12x12 blobs: the per-tap einsum conv forward and "
            "backward is nearly all of the run",
            arch="conv-5",
            dataset={"classes": 4, "dim": 144, "n": 400, "shape": [1, 12, 12]},
            pipelines=_kinds("snip", "grasp", "random", "lt", "lr-rewind", "hybrid", "imp",
                             imp_fraction=0.7),
            sparsities=(0.9,),
            checks=("none", "rearrange"),
            epochs=3,
            tail_pct=72,
        ),
        Workload(
            name="score-sweep",
            why="ticket construction without training on wide mlp-4 input under all "
            "seven checks: data checks, top-k, scoring and row writes dominate",
            arch="mlp-4",
            dataset={"classes": 10, "dim": 256, "n": 2000},
            pipelines=_kinds("snip", "grasp", "random", "lt", "lr-rewind", "hybrid", "imp"),
            sparsities=(0.5, 0.8, 0.9, 0.95),
            checks=ALL_CHECKS,
            epochs=0,
            tail_pct=99,
        ),
    )
}


def experiment_dict(workload, seed, output_dir, *, smoke=False):
    """The run_experiment config for one pass of `workload` under `seed`.

    `smoke` trains for at most one epoch, for the benchmark's own tests.
    """
    rng = random.Random(f"{workload.name}/{int(seed)}")
    dataset_seed = rng.randrange(2**31)
    cell_seed = rng.randrange(2**31)
    return {
        "arch": workload.arch,
        "dataset": {"kind": "synthetic-blobs", **workload.dataset, "seed": dataset_seed},
        "pipelines": [dict(p) for p in workload.pipelines],
        "sparsities": list(workload.sparsities),
        "checks": list(workload.checks),
        "seeds": [cell_seed],
        "train": {"epochs": min(workload.epochs, 1) if smoke else workload.epochs,
                  "batch_size": 64, "seed": 0},
        "output_dir": output_dir,
    }


def layer_sizes(workload):
    """Weight count of each layer of the workload's preset.

    Written out from the preset definitions rather than asked of prunelab,
    so the row checks do not trust the code they check.
    """
    d = workload.dataset
    classes = d["classes"]
    if workload.arch == "mlp-4":
        widths = [d["dim"], 24, 48, 96, classes]
        return [a * b for a, b in zip(widths, widths[1:])]
    c, h, w = d["shape"]
    return [c * 4 * 9, 4 * 6 * 9, 6 * 8 * 9, 8 * (h - 6) * (w - 6) * 16, 16 * classes]


def retained_budget(sizes, sparsity):
    """Kept-weight total every ticket must hit: round half up of (1 - s) * total."""
    return int(math.floor((1.0 - sparsity) * sum(sizes) + 0.5))
