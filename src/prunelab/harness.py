"""Experiment harness: declarative configs, resumable grids, reports.

A config crosses pipelines x sparsities x checks x seeds into a deterministic
grid.  Detail rows stream to a CSV named by the config hash as soon as each
cell finishes, so an interrupted run resumes by skipping completed cells.
Wall-clock columns are the only non-deterministic output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .checks import CHECK_NAMES
from .data import load_dataset
from .engine import NUMERICS_VERSION
from .errors import ConfigError, DomainError, PrunelabError
from .models import PRESET_NAMES, preset_specs
from .pipelines import PIPELINE_OPTIONS, TICKET_KINDS, TrainConfig, pipeline_options, run_cell
from .pipelines import _is_int, _is_number


@dataclass(frozen=True)
class ExperimentConfig:
    arch: str
    dataset: dict
    pipelines: tuple[dict, ...]
    sparsities: tuple[float, ...]
    checks: tuple[str, ...]
    seeds: tuple[int, ...]
    train: TrainConfig = field(default_factory=TrainConfig)
    output_dir: str = "results"

    def __post_init__(self):
        for p in self.pipelines:
            if not isinstance(p, dict):
                raise ConfigError(f"pipeline entry {p!r} is not a mapping")
        for s in self.sparsities:
            if not (_is_number(s) and 0.0 <= s < 1.0):
                raise ConfigError(f"sparsity {s!r} outside [0, 1)")
        for s in self.seeds:
            if not _is_int(s):
                raise ConfigError(f"seed {s!r} is not an integer")
        object.__setattr__(self, "pipelines", tuple(dict(p) for p in self.pipelines))
        object.__setattr__(self, "sparsities", tuple(float(s) for s in self.sparsities))
        object.__setattr__(self, "checks", tuple(self.checks))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if self.arch not in PRESET_NAMES:
            raise ConfigError(f"unknown arch {self.arch!r}; choose from {PRESET_NAMES}")
        if not self.pipelines or not self.seeds or not self.sparsities:
            raise ConfigError("pipelines, sparsities, and seeds must be non-empty")
        for p in self.pipelines:
            if p.get("kind") not in TICKET_KINDS:
                raise ConfigError(f"pipeline entry needs a kind from {TICKET_KINDS}: {p}")
            allowed = ("kind", "name") + PIPELINE_OPTIONS[p["kind"]]
            unknown = sorted(set(p) - set(allowed))
            if unknown:
                raise ConfigError(
                    f"pipeline {p['kind']!r} takes no option {unknown}; allowed: {allowed}"
                )
            try:
                pipeline_options(p["kind"], p)
            except DomainError as exc:
                raise ConfigError(f"{exc} in pipeline {p}") from None
        for c in self.checks:
            if c not in CHECK_NAMES:
                raise ConfigError(f"unknown check {c!r}; choose from {CHECK_NAMES}")

    def to_dict(self):
        return {
            "arch": self.arch,
            "dataset": dict(self.dataset),
            "pipelines": [dict(p) for p in self.pipelines],
            "sparsities": list(self.sparsities),
            "checks": list(self.checks),
            "seeds": list(self.seeds),
            "train": self.train.to_dict(),
            "output_dir": self.output_dir,
        }

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ConfigError("config must be a mapping")
        unknown = set(d) - {
            "arch", "dataset", "pipelines", "sparsities", "checks", "seeds",
            "train", "output_dir",
        }
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(
                arch=d["arch"],
                dataset=dict(d["dataset"]),
                pipelines=tuple(d["pipelines"]),
                sparsities=tuple(d["sparsities"]),
                checks=tuple(d.get("checks", ["none"])),
                seeds=tuple(d["seeds"]),
                train=TrainConfig.from_dict(d.get("train", {})),
                output_dir=d.get("output_dir", "results"),
            )
        except KeyError as exc:
            raise ConfigError(f"config is missing required key {exc}") from None
        except (TypeError, ValueError, DomainError) as exc:
            raise ConfigError(str(exc)) from None


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as f:
            raw = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    return ExperimentConfig.from_dict(raw)


def config_hash(cfg) -> str:
    """Stable hash of what determines the rows.

    Key order never matters, and neither does where the rows are written.
    The engine's NUMERICS_VERSION is part of the hash, so rows computed under
    different numerics never share a rows file.
    """
    content = cfg.to_dict()
    del content["output_dir"]
    content["numerics_version"] = NUMERICS_VERSION
    canon = json.dumps(content, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def pipeline_label(p) -> str:
    """Short unique-ish grid label for one pipeline entry."""
    if "name" in p:
        return str(p["name"])
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
    accuracy: float | None  # percent, best epoch; None for failed cells
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
        sparsity=float(rec["sparsity"]),
        seed=int(rec["seed"]),
        accuracy=None if rec["accuracy"] == "" else float(rec["accuracy"]),
        keep=tuple(float(x) for x in rec["keep"].split("|")) if rec["keep"] else (),
        seconds=float(rec["seconds"]),
        flags=rec["flags"],
    )


def emit_rows(rows, path):
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(_row_to_record(row))


def parse_rows(path):
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames is None or tuple(reader.fieldnames) != CSV_COLUMNS:
            raise ConfigError(f"{path}: expected columns {CSV_COLUMNS}")
        return [_record_to_row(rec) for rec in reader]


def _drop_torn_tail(path):
    """Cut a last line that has no newline; returns the bytes kept.

    Rows are written whole and flushed one at a time, so such a line is a
    row an interrupted run did not finish.  Its cell runs again on resume.
    """
    with open(path, "rb+") as f:
        data = f.read()
        kept = data.rfind(b"\n") + 1
        if kept < len(data):
            f.truncate(kept)
    return kept


def run_experiment(cfg, *, resume=True, progress=None) -> list[ResultRow]:
    """Execute the whole grid, streaming rows; returns every row in grid order."""
    # Validate everything first, so a bad config leaves no output directory.
    split = load_dataset(cfg.dataset)
    specs = preset_specs(cfg.arch, split.train.sample_shape, split.train.class_count)
    cells = grid_cells(cfg)

    out_dir = os.environ.get("PRUNELAB_OUTPUT_DIR", cfg.output_dir)
    os.makedirs(out_dir, exist_ok=True)
    digest = config_hash(cfg)
    rows_path = os.path.join(out_dir, f"rows-{digest[:12]}.csv")

    done = {}
    if resume and os.path.exists(rows_path) and _drop_torn_tail(rows_path):
        for row in parse_rows(rows_path):
            done[row.key()] = row

    rows = []
    memo = {}  # pretraining runs shared by cells that prune on the same data
    fresh = not done
    with open(rows_path, "w" if fresh else "a", newline="") as f:
        writer = csv.DictWriter(f, CSV_COLUMNS)
        if fresh:
            writer.writeheader()
        for i, (p, label, check, target, seed) in enumerate(cells):
            key = (label, check, repr(float(target)), seed)
            if key in done:
                rows.append(done[key])
                continue
            params = {k: v for k, v in p.items() if k not in ("kind", "name")}
            started = time.perf_counter()
            try:
                cell = run_cell(
                    p["kind"], params, check, split, specs, target, seed, cfg.train, memo=memo
                )
                flags = "collapse-warning" if cell.collapsed else ""
                row = ResultRow(
                    label, check, float(target), seed, cell.accuracy, cell.keep,
                    time.perf_counter() - started, flags,
                )
            except PrunelabError as exc:
                row = ResultRow(
                    label, check, float(target), seed, None, (),
                    time.perf_counter() - started, f"failed:{type(exc).__name__}",
                )
            rows.append(row)
            writer.writerow(_row_to_record(row))
            f.flush()
            if progress:
                progress(i + 1, len(cells), row)

    emit_report(rows, "csv", os.path.join(out_dir, f"report-{digest[:12]}.csv"))
    emit_report(rows, "markdown-table", os.path.join(out_dir, f"report-{digest[:12]}.md"))
    return rows


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
    order = []
    for row in rows:
        key = (row.pipeline, row.check, row.sparsity)
        if key not in groups:
            groups[key] = []
            order.append(key)
        if row.accuracy is not None:
            groups[key].append(row.accuracy)
    out = []
    for key in order:
        accs = groups[key]
        if accs:
            mean = float(np.mean(accs))
            std = float(np.std(accs, ddof=1)) if len(accs) > 1 else 0.0
        else:
            mean = std = None
        out.append(SummaryRow(key[0], key[1], key[2], mean, std, len(accs)))
    return out


def format_markdown(rows) -> str:
    """Per-pipeline tables: checks down the side, sparsities across."""
    summary = summarize(rows)
    pipelines = []
    for s in summary:
        if s.pipeline not in pipelines:
            pipelines.append(s.pipeline)
    lines = []
    for pipe in pipelines:
        rows_here = [s for s in summary if s.pipeline == pipe]
        sparsities = sorted({s.sparsity for s in rows_here})
        checks = []
        for s in rows_here:
            if s.check not in checks:
                checks.append(s.check)
        lines.append(f"## {pipe}")
        lines.append("")
        lines.append("| check | " + " | ".join(repr(sp) for sp in sparsities) + " |")
        lines.append("|" + " --- |" * (len(sparsities) + 1))
        by_key = {(s.check, s.sparsity): s for s in rows_here}
        for check in checks:
            cells = []
            for sp in sparsities:
                s = by_key.get((check, sp))
                if s is None or s.mean is None:
                    cells.append("failed")
                else:
                    cells.append(f"{s.mean:.2f}±{s.std:.2f}")
            lines.append(f"| {check} | " + " | ".join(cells) + " |")
        lines.append("")
    return "\n".join(lines)


def emit_report(rows, fmt, path) -> str:
    """Write rows as 'csv' (detail) or 'markdown-table' (summary); returns path."""
    if fmt == "csv":
        emit_rows(rows, path)
    elif fmt == "markdown-table":
        with open(path, "w") as f:
            f.write(format_markdown(rows))
    else:
        raise ConfigError(f"unknown report format {fmt!r}")
    return path
