"""prunelab benchmark: grid cells end to end, and layer by layer when traced.

    python3 perfbench/run.py --workload mlp-grid --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 1

Run from anywhere; the checkout is the parent of this directory, and
prunelab is imported from its `src/`.  Every measurement runs in a fresh
child process with BLAS pinned to one thread.

--trace 0 (end to end): five set-up probes (the first only warms bytecode
caches), then passes of the workload's grid until --seconds is spent.  Each
run_cell call is timed from outside.

--trace 1 (per layer): the engine microbenchmark, then pairs of one untraced
and one traced pass until --seconds is spent.  The traced pass wraps the
public functions listed in tracer.TARGETS.

Every pass's rows are checked: accuracy within [0, 100] or a failed: flag,
and kept weights summing exactly to the sparsity budget.  All passes of one
run, traced or not, must give the same rows digest (time column excluded).
The metrics printed are exactly those BENCHMARK.json declares for the mode,
and the last line of output is one JSON object with the result.

Exit status: 0 when every check passed; 1 when a check failed (the result
is still printed, with "correct": false); 2 when nothing could be measured,
for example without prunelab sources, and then no result is printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing
from workloads import GROUPS, TAIL_GROUPS, WORKLOADS, layer_sizes, retained_budget

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
DEADLINE_S = 170
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    """Starts child measurements for one workload and seed inside `run_dir`."""

    def __init__(self, workload, seed, smoke, run_dir, deadline):
        self.workload, self.seed, self.smoke = workload, seed, smoke
        self.run_dir, self.deadline = run_dir, deadline
        self.count = 0
        env = dict(os.environ)
        env.pop("PRUNELAB_OUTPUT_DIR", None)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
        self.env = env

    def spawn(self, mode):
        self.count += 1
        out_dir = self.run_dir / f"{self.workload.name}-{mode}-{self.count}"
        remaining = self.deadline - now()
        if remaining <= 1:
            raise BenchError("out of time before the measurement finished")
        argv = [sys.executable, str(HERE / "child.py"), mode, self.workload.name,
                str(self.seed), str(out_dir)]
        try:
            proc = subprocess.run(
                argv + [str(time.clock_gettime_ns(time.CLOCK_MONOTONIC))]
                + (["smoke"] if self.smoke else []),
                cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} measurement overran the time limit") from None
        if proc.returncode != 0:
            raise BenchError(f"{mode} measurement failed:\n{proc.stderr.strip()[-3000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------- row checks

def rows_digest(rows):
    """Hash of every row with the wall-clock column left out."""
    h = hashlib.sha256()
    for row in rows:
        h.update(("\t".join(f"{k}={v}" for k, v in row.items() if k != "seconds") + "\n").encode())
    return h.hexdigest()[:16]


def check_rows(workload, rows):
    """Problems found in one pass's rows; empty when every row is sound."""
    sizes = layer_sizes(workload)
    problems = []
    for row in rows:
        where = f"row {row['pipeline']}/{row['check']}/{row['sparsity']}/{row['seed']}"
        if row["flags"].startswith("failed:"):
            continue
        try:
            acc = float(row["accuracy"])
            keep = [float(k) for k in row["keep"].split("|")]
        except ValueError:
            problems.append(f"{where}: unreadable accuracy or keep ratios")
            continue
        if not 0.0 <= acc <= 100.0:
            problems.append(f"{where}: accuracy {acc} outside [0, 100]")
        kept = [k * m for k, m in zip(keep, sizes)]
        budget = retained_budget(sizes, float(row["sparsity"]))
        if (len(keep) != len(sizes) or any(abs(c - round(c)) > 1e-6 for c in kept)
                or sum(round(c) for c in kept) != budget):
            problems.append(f"{where}: kept weights do not sum to the budget {budget}")
    return problems


def check_passes(workload, passes):
    """Row problems of every pass, plus any pass whose digest differs from the first."""
    problems = []
    digests = [rows_digest(p["rows"]) for p in passes]
    for i, p in enumerate(passes):
        problems += check_rows(workload, p["rows"])
        if digests[i] != digests[0]:
            problems.append(f"pass {i + 1} rows digest {digests[i]} != pass 1 {digests[0]}")
    return digests[0], problems


# ------------------------------------------------------------------ metrics

def nearest_rank(sorted_values, pct):
    """The pct-th percentile by nearest rank, and how many samples lie beyond it."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def by_group(cells):
    """Sorted times per cell group from (ticket kind, ms) pairs."""
    groups = {g: sorted(ms for kind, ms in cells if GROUPS.get(kind) == g)
              for g in set(GROUPS.values())}
    for g, times in groups.items():
        if not times:
            raise BenchError(f"no {g} cells were timed")
    return groups


def end_to_end(workload, setups, passes, notes):
    """End-to-end metrics of the untraced passes.

    The machine this was tuned on alternates between fast and slow stretches
    that last tens of seconds, and a median over single calls jumps between
    the two.  So a group's p50 is the median over the grid's cells of each
    cell's mean time over the run's passes (which repeat the same cells),
    while its tail is taken over every single call.
    """
    calls = [c for p in passes for c in p["cells"]]
    per_cell = [(same[0][0], statistics.fmean(ms for _, ms in same))
                for same in zip(*(p["cells"] for p in passes))]
    ok_rows = [r for r in passes[0]["rows"] if not r["flags"].startswith("failed:")]
    if not ok_rows:
        raise BenchError("every cell failed")
    m = {
        "setup_s": statistics.median(setups),
        "cells_per_s": len(calls) / sum(p["wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    for g, times in by_group(per_cell).items():
        m[f"cell_ms.{g}.p50"] = statistics.median(times)
    every = by_group(calls)
    for g in TAIL_GROUPS:
        value, beyond = nearest_rank(every[g], workload.tail_pct)
        m[f"cell_ms.{g}.tail"] = value
        notes.append(f"cell_ms.{g}.tail is p{workload.tail_pct} of {len(every[g])} calls, "
                     f"{beyond} beyond it")
    # Deterministic for a seed and spread widely across seeds, so it is
    # reported beside the metrics; the rows digest carries the numerics.
    acc = statistics.fmean(float(r["accuracy"]) for r in ok_rows)
    notes.append(f"acc_mean_pct {acc:.4f} % over {len(ok_rows)} successful cells of a pass")
    notes.append(f"setup_s is the median of {len(setups)} set-ups; {len(passes)} passes "
                 f"timed {len(calls)} calls; each p50 is over {len(per_cell)} cells' mean times")
    return m


def layer_metrics(traced, problems):
    """Per-layer figures of one traced pass."""
    s = traced["trace"]
    m = {}
    for target in tracing.TARGETS:
        m[f"{target}.calls"] = s["calls"][target]
        m[f"{target}.self_s"] = s["self_s"][target]
    m["pipelines.train.steps"] = s["train_steps"]
    m["engine.forward_loss.samples"] = s["loss_samples"]
    m["harness.rows_written"] = len(traced["rows"])
    m["trace.pass_wall_s"] = traced["wall_s"]
    for stage in tracing.STAGES:
        m[f"stage.{stage}_share"] = s["stage_s"][stage] / s["cell_s"] if s["cell_s"] else 0.0
    if any(v < 0 for v in s["self_s"].values()):
        problems.append("a self time is negative")
    if sum(s["self_s"].values()) > traced["wall_s"]:
        problems.append("self times add up to more than the traced wall time")
    if sum(s["stage_s"].values()) > s["cell_s"]:
        problems.append("stage shares add up to more than 1")
    return m


def per_layer(micro, pairs, problems):
    per_pass = [layer_metrics(traced, problems) for _, traced in pairs]
    m = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    m.update(micro)
    m["trace.overhead_ratio"] = (sum(t["wall_s"] for _, t in pairs)
                                 / sum(u["wall_s"] for u, _ in pairs))
    return m


# ------------------------------------------------------------------ a run

def until_spent(seconds, start, step):
    """Call step() until one more call as long as the last would end past `seconds`."""
    results = []
    while True:
        began = now()
        results.append(step())
        t = now()
        if t - start + (t - began) > seconds:
            return results


def measure(runner, seconds, trace, notes):
    """Run one workload; returns (metrics, rows digest, passes, problems)."""
    if trace:
        start = now()
        micro = runner.spawn("micro")["micro"]
        pairs = until_spent(seconds, start,
                            lambda: (runner.spawn("pass"), runner.spawn("traced")))
        passes = [p for pair in pairs for p in pair]
    else:
        setups = [runner.spawn("setup")["setup_s"] for _ in range(SETUP_PROBES)][1:]
        passes = until_spent(seconds, now(), lambda: runner.spawn("pass"))
    digest, problems = check_passes(runner.workload, passes)
    if trace:
        metrics = per_layer(micro, pairs, problems)
        absent = pairs[0][1]["absent"]
        notes.append(f"{len(pairs)} untraced and {len(pairs)} traced passes; absent targets: "
                     f"{', '.join(absent) if absent else 'none'}")
    else:
        setups += [p["setup_s"] for p in passes]
        metrics = end_to_end(runner.workload, setups, passes, notes)
    return metrics, digest, passes, problems


def machine_facts():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha = "unknown (not a git checkout)"
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        if git.returncode == 0:
            sha = git.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "git": sha}


def declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def baseline_note(workload, seed, digest, smoke):
    path = HERE / "baseline.json"
    if smoke:
        return "smoke size, not compared with the seed baseline"
    if not path.exists():
        return "no seed baseline recorded"
    with open(path) as f:
        recorded = json.load(f).get("digests", {}).get(workload, {}).get(str(seed))
    if recorded is None:
        return f"no seed baseline recorded for seed {seed}"
    return ("rows bit-identical to the seed baseline" if recorded == digest
            else f"numerics moved: seed baseline digest was {recorded}")


def run_workload(workload, args, run_dir, deadline, declared):
    notes = []
    runner = Runner(workload, args.seed, args.smoke, run_dir, deadline)
    metrics, digest, passes, problems = measure(runner, args.seconds, args.trace, notes)
    attempted = sum(len(p["rows"]) for p in passes)
    failed = sum(r["flags"].startswith("failed:") for p in passes for r in p["rows"])
    out = {}
    for spec in declared:
        if spec["name"] not in metrics:
            raise BenchError(f"metric {spec['name']} was not measured")
        out[spec["name"]] = {"value": metrics[spec["name"]], "unit": spec["unit"]}
    print(f"== {workload.name} seed={args.seed} trace={args.trace}: {workload.why}")
    print("facts: " + json.dumps({**passes[0]["facts"], "workload_seed": args.seed}))
    print(f"rows digest {digest}: {baseline_note(workload.name, args.seed, digest, args.smoke)}; "
          f"{attempted} cells, {failed} failed")
    for note in notes:
        print("note: " + note)
    for name, m in out.items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    for problem in problems:
        print("CHECK FAILED: " + problem)
    return out, attempted, failed, not problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one cell seed and at most one epoch, for the benchmark's tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "prunelab" / "__init__.py").is_file():
        print(f"perfbench: no prunelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    print("machine: " + json.dumps(machine_facts()))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    declared = declared_metrics(args.trace)
    deadline = now() + DEADLINE_S * len(names)
    run_dir = ROOT / ".perfbench_out" / f"{os.getpid()}"
    results = {}
    try:
        for name in names:
            results[name] = run_workload(WORKLOADS[name], args, run_dir, deadline, declared)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    if len(names) == 1:
        metrics = results[names[0]][0]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r[0].items()}
    correct = all(r[3] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r[1] for r in results.values()),
        "failed": sum(r[2] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
