"""One measurement in a fresh process; prints one JSON object as its last line.

    python3 perfbench/child.py <mode> <workload> <seed> <out_dir> <spawn_ns> [smoke]

Modes:
  setup   import prunelab and run the grid up to the start of its first cell
  pass    run the grid once, timing each run_cell call from outside; reports
          numpy, BLAS and thread facts too
  traced  run the grid once with every tracer target installed
  micro   the engine microbenchmark

`spawn_ns` is the parent's CLOCK_MONOTONIC reading when it started this
process, so set-up time covers interpreter start, imports and dataset load.
prunelab is imported only after that point.
"""

from __future__ import annotations

import csv
import glob
import json
import os
import resource
import sys
import time

import tracer as tracing
from micro import preset_micro
from workloads import WORKLOADS, experiment_dict


class FirstCell(Exception):
    pass


def monotonic_ns():
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def library_facts():
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get("blas", {}).get(k) for k in ("name", "version")}
    except (TypeError, AttributeError):  # numpy older than 1.25 has no dict mode
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def read_rows(out_dir):
    """The rows CSV the harness wrote, as a list of dicts."""
    paths = glob.glob(os.path.join(out_dir, "rows-*.csv"))
    if len(paths) != 1:
        raise RuntimeError(f"expected one rows CSV in {out_dir}, found {len(paths)}")
    with open(paths[0], newline="") as f:
        return list(csv.DictReader(f))


def main(argv):
    mode, workload, seed, out_dir, spawn_ns = argv[:5]
    smoke = argv[5:] == ["smoke"]
    spawn_ns = int(spawn_ns)
    clock_offset = monotonic_ns() - time.perf_counter_ns()

    import prunelab as pl

    if mode == "micro":
        metrics = {}
        for w in (WORKLOADS["mlp-grid"], WORKLOADS["conv-grid"]):
            shape = w.dataset.get("shape", (w.dataset["dim"],))
            metrics.update(preset_micro(
                pl, w.arch, shape, w.dataset["classes"], min_seconds=0.005 if smoke else 0.05))
        return {"micro": metrics}

    cfg = pl.ExperimentConfig.from_dict(
        experiment_dict(WORKLOADS[workload], int(seed), out_dir, smoke=smoke))

    if mode == "setup":
        def first_cell(*args, **kwargs):
            raise FirstCell(monotonic_ns())

        tracing.replace_everywhere(pl.run_cell, first_cell)
        try:
            pl.run_experiment(cfg, resume=False)
        except FirstCell as stop:
            return {"setup_s": (stop.args[0] - spawn_ns) / 1e9}
        raise RuntimeError("the grid finished without starting a cell")

    tracer = tracing.Tracer(tracing.TARGETS if mode == "traced" else (tracing.CELL,)).install()
    t0 = time.perf_counter_ns()
    pl.run_experiment(cfg, resume=False)
    wall_ns = time.perf_counter_ns() - t0
    cells = tracer.cells()
    result = {
        "wall_s": wall_ns / 1e9,
        "setup_s": (cells[0][1] + clock_offset - spawn_ns) / 1e9 if cells else None,
        "cells": [[kind, (end - start) / 1e6] for kind, start, end in cells],
        "rows": read_rows(out_dir),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "absent": tracer.absent,
        "facts": library_facts(),
    }
    if mode == "traced":
        result["trace"] = tracer.summary()
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
