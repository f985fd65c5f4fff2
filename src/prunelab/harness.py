"""Experiment harness: declarative configs, resumable grids, reports.

A config crosses pipelines x sparsities x checks x seeds into a deterministic
grid.  Cells run grouped by the data they prune on, so a grid holds one
corrupted train set at a time.  Detail rows stream to a CSV named by the
config hash as soon as each cell finishes, so an interrupted run resumes by
skipping completed cells; a finished run leaves them in grid order.
Wall-clock columns are the only non-deterministic output.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .data import _at_least, _finite, _is_number, field_keys, load_dataset, read_keys
from .engine import NUMERICS_VERSION
from .errors import ConfigError, DomainError, PrunelabError
from .models import PRESET_NAMES, preset_specs, record
from .pipelines import (
    CHECK_LIST,
    TrainConfig,
    pipeline_options,
    pruning_data_name,
    run_cell,
)


@dataclass(frozen=True)
class ExperimentConfig:
    """One grid; every field passes `CONFIG_KEYS` through `data.read_keys`."""

    arch: str
    dataset: dict
    pipelines: tuple[dict, ...]
    sparsities: tuple[float, ...]
    seeds: tuple[int, ...]
    checks: tuple[str, ...] = ("none",)
    train: TrainConfig = field(default_factory=TrainConfig)
    output_dir: str = "results"

    def __post_init__(self):
        read_keys("config", "takes no key", CONFIG_KEYS, vars(self), ConfigError)
        object.__setattr__(self, "dataset", dict(self.dataset))
        object.__setattr__(self, "pipelines", tuple(dict(p) for p in self.pipelines))
        object.__setattr__(self, "sparsities", tuple(float(s) for s in self.sparsities))
        object.__setattr__(self, "checks", tuple(self.checks))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        for p in self.pipelines:
            try:
                pipeline_options(p.get("kind"), _pipeline_params(p))
            except DomainError as exc:
                raise ConfigError(f"{exc} in pipeline {p}") from None
        # A repeated value would run the same cells again, and a report would
        # count them as more seeds.
        for name in ("sparsities", "checks", "seeds"):
            values = getattr(self, name)
            for i, v in enumerate(values):
                if v in values[:i]:
                    raise ConfigError(f"{name} lists {v!r} more than once")

    def to_dict(self):
        return {**record(self), "train": self.train.to_dict()}

    @classmethod
    def from_dict(cls, d):
        """The config `to_dict` gave `d`; a mapping the gate refuses raises ConfigError."""
        if isinstance(d, dict) and "train" in d:
            try:
                d = {**d, "train": TrainConfig.from_dict(d["train"])}
            except DomainError as exc:
                raise ConfigError(str(exc)) from None
        return cls(**read_keys("config", "takes no key", CONFIG_KEYS, d, ConfigError))


def _list_of(test):
    """The test passed by a non-empty list whose items all pass `test`."""
    return lambda v: isinstance(v, (list, tuple)) and len(v) > 0 and all(map(test, v))


def _is_pipeline(p):
    """Whether `p` is a mapping whose "name", if it has one, is a non-empty string."""
    return isinstance(p, dict) and isinstance(p.get("name", "-"), str) and p.get("name") != ""


# Each config field: the values it takes and a test for them.  A pipeline's
# kind and options pass `pipeline_options`, and a dataset's keys `load_dataset`.
CONFIG_KEYS = field_keys(ExperimentConfig, {
    "arch": (f"one of {PRESET_NAMES}", lambda v: v in PRESET_NAMES),
    "dataset": ("a mapping", lambda v: isinstance(v, dict)),
    "pipelines": ("a non-empty list of mappings, each 'name' a non-empty string",
                  _list_of(_is_pipeline)),
    "sparsities": ("a non-empty list of numbers in [0, 1)",
                   _list_of(lambda s: _is_number(s) and 0.0 <= s < 1.0)),
    "seeds": ("a non-empty list of integers >= 0", _list_of(_at_least(0))),
    "checks": CHECK_LIST,
    "train": ("a train config", lambda v: isinstance(v, TrainConfig)),
    "output_dir": ("a string", lambda v: isinstance(v, str)),
})


def _pipeline_params(p):
    """A config's pipeline entry without the keys that name it: the options it passes."""
    return {k: v for k, v in p.items() if k not in ("kind", "name")}


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    return ExperimentConfig.from_dict(raw)


def config_hash(cfg) -> str:
    """Stable hash of what determines the rows.

    Key order never matters, and neither does where the rows are written
    or `train.seed`.  The engine's NUMERICS_VERSION is part of the hash, so
    rows computed under different numerics never share a rows file.
    """
    content = cfg.to_dict()
    del content["output_dir"]
    # Every training run swaps train.seed for a seed derived from its cell
    # (run_cell, _pretrain, _imp_ticket), so it moves no row.
    del content["train"]["seed"]
    content["numerics_version"] = NUMERICS_VERSION
    canon = json.dumps(content, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def pipeline_label(p) -> str:
    """Short unique-ish grid label for one pipeline entry."""
    if "name" in p:
        return p["name"]
    label = p["kind"]
    for key in ("schedule", "mode"):
        if key in p:
            label += f"-{p[key]}"
    return label


@dataclass(frozen=True)
class ResultRow:
    pipeline: str
    check: str
    sparsity: float
    seed: int
    accuracy: float | None  # percent, after the last retraining epoch; None for failed cells
    keep: tuple[float, ...]
    seconds: float
    flags: str = ""

    def key(self):
        return (self.pipeline, self.check, repr(self.sparsity), self.seed)


CSV_COLUMNS = ("pipeline", "check", "sparsity", "seed", "accuracy", "keep", "seconds", "flags")


def grid_cells(cfg):
    """Deterministic cell order: pipelines, then sparsities, checks, seeds."""
    cells = []
    labels = [pipeline_label(p) for p in cfg.pipelines]
    if len(set(labels)) != len(labels):
        raise ConfigError(f"pipeline labels collide: {labels}; add 'name' fields")
    for p, label in zip(cfg.pipelines, labels):
        for s in cfg.sparsities:
            for check in cfg.checks or ("none",):
                for seed in cfg.seeds:
                    cells.append((p, label, check, s, seed))
    return cells


def _run_order(cells):
    """The grid indices of `cells` in the order a run takes them, with each
    cell's pruning data name (see `pipelines.pruning_data_name`).

    Cells run grouped by pruning data, groups in order of first appearance.
    Inside a group they run by pipeline, then by ascending sparsity, so every
    sparsity of an IMP pipeline stops on one walked path; ties keep grid order.
    """
    names = [pruning_data_name(p["kind"], check, seed) for p, _, check, _, seed in cells]
    group = {name: i for i, name in enumerate(dict.fromkeys(names))}
    pipeline = {label: i for i, label in enumerate(dict.fromkeys(c[1] for c in cells))}
    order = sorted(range(len(cells)),
                   key=lambda i: (group[names[i]], pipeline[cells[i][1]], cells[i][3]))
    return order, names


def _row_to_record(row):
    return {
        "pipeline": row.pipeline,
        "check": row.check,
        "sparsity": repr(row.sparsity),
        "seed": str(row.seed),
        "accuracy": "" if row.accuracy is None else repr(row.accuracy),
        "keep": "|".join(repr(r) for r in row.keep),
        "seconds": repr(row.seconds),
        "flags": row.flags,
    }


def _record_to_row(rec):
    return ResultRow(
        pipeline=rec["pipeline"],
        check=rec["check"],
        sparsity=_finite(rec["sparsity"]),
        seed=int(rec["seed"]),
        accuracy=None if rec["accuracy"] == "" else _finite(rec["accuracy"]),
        keep=tuple(_finite(x) for x in rec["keep"].split("|")) if rec["keep"] else (),
        seconds=_finite(rec["seconds"]),
        flags=rec["flags"],
    )


def emit_rows(rows, path):
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.DictWriter(f, CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(_row_to_record(row))


def parse_rows(path):
    """The rows of a rows CSV; a malformed file raises ConfigError naming its line."""
    with open(path, "rb") as f:
        return _parse_rows(f.read(), path)


def _parse_rows(raw, path):
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path}: line {line}: bytes that are not UTF-8") from None
    reader = csv.DictReader(io.StringIO(text, newline=""))
    try:
        if reader.fieldnames is None or tuple(reader.fieldnames) != CSV_COLUMNS:
            raise ConfigError(f"{path}: expected columns {CSV_COLUMNS}")
        rows = []
        for rec in reader:
            # DictReader keys surplus fields under None and fills missing ones with None.
            if None in rec or None in rec.values():
                raise ValueError(f"expected {len(CSV_COLUMNS)} fields")
            rows.append(_record_to_row(rec))
        return rows
    except (ValueError, csv.Error) as exc:
        raise ConfigError(f"{path}: line {reader.line_num}: {exc}") from None


def _resume_rows(path):
    """The finished rows of an earlier run, after cutting a last line that has no newline.

    Rows are written whole and flushed one at a time, so such a line is a
    row an interrupted run did not finish.  Its cell runs again on resume.
    A malformed finished row raises ConfigError before the file is touched.
    """
    with open(path, "rb") as f:
        raw = f.read()
    kept = raw.rfind(b"\n") + 1
    rows = _parse_rows(raw[:kept], path) if kept else []
    if kept < len(raw):
        with open(path, "rb+") as f:
            f.truncate(kept)
    return rows


def run_experiment(cfg, *, resume=True, progress=None) -> list[ResultRow]:
    """Execute the whole grid, streaming rows; returns every row in grid order.

    Rows are appended as their cells finish, in run order (see `_run_order`),
    and the finished file is rewritten in grid order.  `progress(done, total,
    row)` follows each cell that runs.
    """
    # Validate everything first, so a bad config leaves no output directory.
    split = load_dataset(cfg.dataset)
    specs = preset_specs(cfg.arch, split.train.sample_shape, split.train.class_count)
    cells = grid_cells(cfg)
    order, names = _run_order(cells)
    last = {names[i]: i for i in order}  # each pruning data's last cell

    out_dir = os.environ.get("PRUNELAB_OUTPUT_DIR", cfg.output_dir)
    os.makedirs(out_dir, exist_ok=True)
    digest = config_hash(cfg)
    rows_path = os.path.join(out_dir, f"rows-{digest[:12]}.csv")

    done = {}
    if resume and os.path.exists(rows_path):
        done = {row.key(): row for row in _resume_rows(rows_path)}

    by_cell = {}
    # Deterministic ticket work shared by the cells of this grid; the
    # docstring of pipelines.build_ticket lists what it keeps.  What a
    # pruning data holds is dropped after its last cell.
    memo = {}
    fresh = not done
    with open(rows_path, "w" if fresh else "a", newline="", encoding="utf-8") as f:
        writer = csv.DictWriter(f, CSV_COLUMNS)
        if fresh:
            writer.writeheader()
        for n, i in enumerate(order, 1):
            p, label, check, target, seed = cells[i]
            key = (label, check, repr(float(target)), seed)
            if key in done:
                by_cell[i] = done[key]
            else:
                by_cell[i] = _run_row(p, label, check, target, seed, split, specs, cfg.train, memo)
                writer.writerow(_row_to_record(by_cell[i]))
                f.flush()
                if progress:
                    progress(n, len(cells), by_cell[i])
            if last[names[i]] == i:
                memo.pop(names[i], None)

    rows = [by_cell[i] for i in range(len(cells))]
    partial = rows_path + ".part"
    emit_rows(rows, partial)
    os.replace(partial, rows_path)
    emit_report(rows, "markdown-table", os.path.join(out_dir, f"report-{digest[:12]}.md"))
    return rows


def _run_row(p, label, check, target, seed, split, specs, train_cfg, memo):
    """The row of one grid cell; a PrunelabError becomes a failed row."""
    started = time.perf_counter()
    try:
        cell = run_cell(
            p["kind"], _pipeline_params(p), check, split, specs, target, seed, train_cfg,
            memo=memo,
        )
        flags = "collapse-warning" if cell.collapsed else ""
        return ResultRow(
            label, check, float(target), seed, cell.accuracy, cell.keep,
            time.perf_counter() - started, flags,
        )
    except PrunelabError as exc:
        return ResultRow(
            label, check, float(target), seed, None, (),
            time.perf_counter() - started, f"failed:{type(exc).__name__}",
        )


@dataclass(frozen=True)
class SummaryRow:
    pipeline: str
    check: str
    sparsity: float
    mean: float | None
    std: float | None
    n: int


def summarize(rows) -> list[SummaryRow]:
    """Mean and sample standard deviation over seeds, in first-seen order."""
    groups = {}
    for row in rows:
        accs = groups.setdefault((row.pipeline, row.check, row.sparsity), [])
        if row.accuracy is not None:
            accs.append(row.accuracy)
    out = []
    for key, accs in groups.items():
        if accs:
            mean = float(np.mean(accs))
            std = float(np.std(accs, ddof=1)) if len(accs) > 1 else 0.0
        else:
            mean = std = None
        out.append(SummaryRow(*key, mean, std, len(accs)))
    return out


def _markdown_cell(s):
    return "failed" if s is None or s.mean is None else f"{s.mean:.2f}±{s.std:.2f}"


def format_markdown(rows) -> str:
    """Per-pipeline tables: checks down the side, sparsities across."""
    summary = summarize(rows)
    lines = []
    for pipe in dict.fromkeys(s.pipeline for s in summary):
        rows_here = [s for s in summary if s.pipeline == pipe]
        sparsities = sorted({s.sparsity for s in rows_here})
        by_key = {(s.check, s.sparsity): s for s in rows_here}
        lines += [
            f"## {pipe}",
            "",
            "| check | " + " | ".join(repr(sp) for sp in sparsities) + " |",
            "|" + " --- |" * (len(sparsities) + 1),
        ]
        for check in dict.fromkeys(s.check for s in rows_here):
            cells = [_markdown_cell(by_key.get((check, sp))) for sp in sparsities]
            lines.append(f"| {check} | " + " | ".join(cells) + " |")
        lines.append("")
    return "\n".join(lines)


def emit_report(rows, fmt, path) -> str:
    """Write rows as 'csv' (detail) or 'markdown-table' (summary); returns path."""
    if fmt == "csv":
        emit_rows(rows, path)
    elif fmt == "markdown-table":
        with open(path, "w", encoding="utf-8") as f:
            f.write(format_markdown(rows))
    else:
        raise ConfigError(f"unknown report format {fmt!r}")
    return path
