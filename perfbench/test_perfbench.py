"""The benchmark's own tests, at smoke size.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import check_rows, nearest_rank  # noqa: E402
from workloads import WORKLOADS, experiment_dict, layer_sizes, retained_budget  # noqa: E402


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def smoke():
    """Last-line results of an untraced and a traced smoke run of mlp-grid."""
    out = {}
    for trace in ("0", "1"):
        proc = bench("--workload", "mlp-grid", "--seed", "3", "--seconds", "1",
                     "--trace", trace, "--smoke")
        assert proc.returncode == 0, proc.stderr
        assert "CHECK FAILED" not in proc.stdout
        out[trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


def declared(kind):
    with open(ROOT / "BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(smoke, trace, kind):
    result = smoke[trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared(kind)
    for m in result["metrics"].values():
        assert set(m) == {"value", "unit"} and isinstance(m["value"], (int, float))


def test_end_to_end_metrics_are_positive(smoke):
    for name, m in smoke["0"]["metrics"].items():
        assert m["value"] > 0, name


def test_stage_shares_sum_to_at_most_one(smoke):
    shares = [m["value"] for name, m in smoke["1"]["metrics"].items()
              if name.startswith("stage.")]
    assert len(shares) == 6
    assert all(s >= 0 for s in shares)
    assert sum(shares) <= 1.0


def test_self_times_are_non_negative_and_within_the_traced_wall(smoke):
    metrics = smoke["1"]["metrics"]
    self_s = [m["value"] for name, m in metrics.items() if name.endswith(".self_s")]
    assert len(self_s) == 23
    assert all(s >= 0 for s in self_s)
    # One traced pass at smoke size, so the median is that pass's own figure.
    assert sum(self_s) <= metrics["trace.pass_wall_s"]["value"]


def test_tracer_wraps_every_import_and_reports_absent_targets():
    script = textwrap.dedent("""
        import prunelab
        from prunelab import engine, harness, pipelines
        import tracer
        original = engine.forward_loss
        t = tracer.Tracer(["engine.forward_loss", "pipelines.run_cell",
                           "engine.no_such_function", "no_such_module.f"]).install()
        assert engine.forward_loss is not original
        assert engine.forward_loss.__wrapped__ is original
        assert pipelines.forward_loss is engine.forward_loss
        assert prunelab.forward_loss is engine.forward_loss
        assert harness.run_cell is pipelines.run_cell
        assert harness.run_cell.__wrapped__ is not None
        print(t.absent)
    """)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(HERE)])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['engine.no_such_function', 'no_such_module.f']"


def _row(**over):
    row = {"pipeline": "snip", "check": "none", "sparsity": "0.9", "seed": "1",
           "accuracy": "50.0", "keep": "", "seconds": "0.1", "flags": ""}
    row.update(over)
    return row


def test_row_checks_hold_the_exact_budget():
    w = WORKLOADS["mlp-grid"]
    sizes = layer_sizes(w)
    budget = retained_budget(sizes, 0.9)
    counts = [budget - 3 * 96 - 20, 20, 3 * 96, 0]
    assert sum(counts) == budget
    keep = "|".join(repr(c / m) for c, m in zip(counts, sizes))
    assert check_rows(w, [_row(keep=keep)]) == []
    short = "|".join(repr(c / m) for c, m in zip([counts[0] - 1, *counts[1:]], sizes))
    assert len(check_rows(w, [_row(keep=short)])) == 1
    assert len(check_rows(w, [_row(keep=keep, accuracy="100.5")])) == 1
    assert check_rows(w, [_row(accuracy="", flags="failed:DomainError")]) == []


def test_nearest_rank_leaves_the_stated_count_beyond():
    values = list(range(1, 37))
    assert nearest_rank(values, 72) == (26, 10)
    assert nearest_rank(values, 50) == (18, 18)


def test_workload_inputs_follow_the_seed():
    w = WORKLOADS["conv-grid"]
    assert experiment_dict(w, 4, "out") == experiment_dict(w, 4, "out")
    assert experiment_dict(w, 4, "out")["dataset"] != experiment_dict(w, 5, "out")["dataset"]


def test_refuses_to_run_without_prunelab_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "mlp-grid", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
