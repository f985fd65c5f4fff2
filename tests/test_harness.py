"""Experiment grid runner: config parsing, resume, reports, determinism."""

import csv
import dataclasses
import json
import re

import numpy as np
import pytest

from prunelab import harness, pipelines, seeding
from prunelab.checks import CHECK_NAMES, DATA_CHECKS
from prunelab.cli import main
from prunelab.errors import ConfigError, DatasetError, DomainError
from prunelab.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    ResultRow,
    config_hash,
    emit_report,
    emit_rows,
    format_markdown,
    grid_cells,
    load_config,
    parse_rows,
    pipeline_label,
    run_experiment,
    summarize,
)
from prunelab.data import load_dataset, synthetic_blobs
from prunelab.models import preset_specs
from prunelab.pipelines import TrainConfig, build_ticket, pruning_data_name, run_cell

TINY = {
    "arch": "mlp-4",
    "dataset": {"kind": "synthetic-blobs", "classes": 3, "dim": 4, "n": 60, "seed": 9},
    "pipelines": [{"kind": "random"}, {"kind": "snip"}],
    "sparsities": [0.5],
    "checks": ["none", "rearrange"],
    "seeds": [0, 1],
    "train": {"epochs": 2, "batch_size": 16, "seed": 0},
}


def tiny_config(**overrides):
    d = {**TINY, **overrides}
    return ExperimentConfig.from_dict(d)


def test_config_round_trips_through_dict():
    cfg = tiny_config()
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert cfg.train == TrainConfig(epochs=2, batch_size=16, seed=0)


def test_config_rejects_bad_shapes():
    with pytest.raises(ConfigError, match=r"^config takes no key \['sparsity'\]; allowed: "):
        ExperimentConfig.from_dict({**TINY, "sparsity": [0.5]})
    with pytest.raises(ConfigError, match="^config needs 'arch', which must be one of"):
        ExperimentConfig.from_dict({k: v for k, v in TINY.items() if k != "arch"})
    with pytest.raises(ConfigError, match="^config arch must be one of .*, not 'resnet'$"):
        tiny_config(arch="resnet")
    with pytest.raises(ConfigError, match="unknown pipeline kind None; choose from"):
        tiny_config(pipelines=[{"schedule": "smart"}])
    with pytest.raises(ConfigError, match="'random' schedule must be one of .*, not 'spiral'"):
        tiny_config(pipelines=[{"kind": "random", "schedule": "spiral"}])
    with pytest.raises(ConfigError, match="'random' schedule must be one of .*, not 'extracted'"):
        tiny_config(pipelines=[{"kind": "random", "schedule": "extracted"}])
    for entry, key in [
        ({"kind": "weight-rewind", "rewind_epoch": "x"}, "rewind_epoch"),
        ({"kind": "weight-rewind", "rewind_epoch": 1.7}, "rewind_epoch"),
        ({"kind": "weight-rewind", "rewind_epoch": -1}, "rewind_epoch"),
        ({"kind": "hybrid", "family": "plian"}, "family"),
        ({"kind": "imp", "round_fraction": "abc"}, "round_fraction"),
        ({"kind": "imp", "round_fraction": 1.0}, "round_fraction"),
        ({"kind": "imp", "mode": "anneal"}, "mode"),
        ({"kind": "lt", "preserve_output_layer": "no"}, "preserve_output_layer"),
    ]:
        kind, value = entry["kind"], re.escape(repr(entry[key]))
        with pytest.raises(ConfigError, match=f"'{kind}' {key} must be .*, not {value} in"):
            tiny_config(pipelines=[entry])
    with pytest.raises(ConfigError, match=r"^config pipelines must be .*, not \['lt'\]$"):
        tiny_config(pipelines=["lt"])
    with pytest.raises(ConfigError, match=r"^config checks must be .*, not \['mirror'\]$"):
        tiny_config(checks=["mirror"])
    with pytest.raises(ConfigError, match=r"^config sparsities must be .*, not \[1.0\]$"):
        tiny_config(sparsities=[1.0])
    with pytest.raises(ConfigError, match=r"^config sparsities must be .*, not \['x'\]$"):
        tiny_config(sparsities=["x"])
    with pytest.raises(ConfigError, match=r"^config seeds must be .*, not \['x'\]$"):
        tiny_config(seeds=["x"])
    with pytest.raises(ConfigError, match="^train config epochs must be an integer >= 0, not 2.5$"):
        tiny_config(train={**TINY["train"], "epochs": 2.5})
    with pytest.raises(ConfigError, match=r"^train config lr_drop_points must be .*, not 0.5$"):
        tiny_config(train={**TINY["train"], "lr_drop_points": 0.5})
    with pytest.raises(ConfigError):
        tiny_config(seeds=[])


@pytest.mark.parametrize("field, values, repeated", [
    ("seeds", [3, 3], "3"),
    ("sparsities", [0.5, 0.8, 0.5], "0.5"),
    ("seeds", [1, 2, 1], "1"),
    ("checks", ["none", "none"], "'none'"),
])
def test_config_refuses_a_grid_axis_that_repeats_a_value(field, values, repeated):
    # Each would run the same cells twice, and the report would count them as seeds.
    with pytest.raises(ConfigError, match=f"^{field} lists {repeated} more than once$"):
        tiny_config(**{field: values})


# Pipeline entries with options their kind does not read, and `prunelab ticket`
# flags that give the same kind an option it does not read.
UNREAD_OPTIONS = [
    # a typo, and an option lt never reads
    ({"kind": "lt", "schedul": "smart", "rewind_epoch": 3}, ["--schedule", "smart"]),
    ({"kind": "lt", "rewind_epoch": 3}, ["--rewind-epoch", "3"]),
    ({"kind": "snip", "family": "plain"}, ["--family", "plain"]),
    ({"kind": "hybrid", "schedule": "smart"}, ["--schedule", "smart"]),
    ({"kind": "random", "mode": "reset"}, ["--mode", "reset"]),
    # no flag sets preserve_output_layer
    ({"kind": "imp", "preserve_output_layer": True}, ["--rewind-epoch", "1"]),
    ({"kind": "random", "mode": "hybrid"}, ["--mode", "hybrid"]),
]


@pytest.mark.parametrize("entry", [entry for entry, _ in UNREAD_OPTIONS])
def test_config_rejects_options_a_pipeline_kind_does_not_read(entry):
    with pytest.raises(ConfigError, match="takes no option"):
        tiny_config(pipelines=[entry])


@pytest.mark.parametrize("entry, flags", UNREAD_OPTIONS)
def test_api_and_cli_refuse_options_a_pipeline_kind_does_not_read(tmp_path, capsys, entry, flags):
    kind = entry["kind"]
    split = synthetic_blobs(3, 4, 60, seed=9)
    specs = preset_specs("mlp-4", (4,), 3)
    params = {k: v for k, v in entry.items() if k != "kind"}
    with pytest.raises(DomainError, match="takes no option"):
        build_ticket(kind, specs, split, 0.5, 0, TrainConfig(epochs=1), params)
    out = tmp_path / "t.plab"
    data = "synthetic-blobs:classes=3,dim=4,n=60,seed=9"
    assert main(["ticket", kind, *flags, "--data", data, "--epochs", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: DomainError:")
    assert "takes no option" in err[0]
    assert not out.exists()


def test_config_accepts_every_option_a_pipeline_kind_reads():
    cfg = tiny_config(pipelines=[
        {"kind": "dense", "name": "d"},
        {"kind": "random", "family": "fast-decay", "schedule": "balanced"},
        {"kind": "lt", "preserve_output_layer": True},
        {"kind": "weight-rewind", "rewind_epoch": 1, "preserve_output_layer": False},
        {"kind": "lr-rewind", "preserve_output_layer": True},
        {"kind": "hybrid", "family": "plain"},
        {"kind": "imp", "round_fraction": 0.5, "mode": "hybrid", "family": "plain"},
    ])
    assert len(cfg.pipelines) == 7


def test_config_hash_ignores_key_order_but_not_content():
    cfg = tiny_config()
    digest = config_hash(cfg)
    assert len(digest) == 64
    reordered = ExperimentConfig.from_dict(dict(reversed(list(TINY.items()))))
    assert config_hash(reordered) == digest
    assert config_hash(tiny_config(seeds=[0, 2])) != digest


def test_config_hash_is_pinned():
    # A change to the config's dict form must not orphan existing rows files;
    # a NUMERICS_VERSION bump changes this digest on purpose (version 4 also
    # left train.seed out of the hash).
    digest = "5c28e6fa866d7486323b32f4722d78d3bc555099dfa7d2e3d3899c59a4671afa"
    assert config_hash(tiny_config()) == digest


def test_config_hash_ignores_output_dir_but_not_the_numerics_version(monkeypatch):
    digest = config_hash(tiny_config(output_dir="results"))
    assert config_hash(tiny_config(output_dir="elsewhere/out")) == digest
    monkeypatch.setattr(harness, "NUMERICS_VERSION", harness.NUMERICS_VERSION + 1)
    assert config_hash(tiny_config(output_dir="results")) != digest


def test_train_seed_moves_no_row_and_leaves_the_config_hash(tmp_path, monkeypatch):
    # run_cell, pretraining and every IMP round each swap train.seed for a
    # seed derived from the cell, so two seeds give one set of rows.
    monkeypatch.delenv("PRUNELAB_OUTPUT_DIR", raising=False)
    pipes = [{"kind": "random"}, {"kind": "lt"}, {"kind": "imp", "round_fraction": 0.5}]
    cfg, rows = run_tiny(tmp_path, "zero", pipelines=pipes)
    other, again = run_tiny(tmp_path, "five", pipelines=pipes, train={**TINY["train"], "seed": 5})
    assert other.train.seed == 5
    assert config_hash(other) == config_hash(cfg)
    untimed = [[dataclasses.replace(r, seconds=0.0) for r in rs] for rs in (rows, again)]
    assert untimed[0] == untimed[1]
    assert config_hash(tiny_config(train={**TINY["train"], "epochs": 3})) != config_hash(cfg)


def test_pipeline_labels_and_grid_order():
    assert pipeline_label({"kind": "random", "schedule": "balanced"}) == "random-balanced"
    assert pipeline_label({"kind": "imp", "mode": "reset"}) == "imp-reset"
    assert pipeline_label({"kind": "snip", "name": "baseline"}) == "baseline"
    cfg = tiny_config()
    cells = grid_cells(cfg)
    assert [(label, check, seed) for _, label, check, _, seed in cells] == [
        ("random", "none", 0), ("random", "none", 1),
        ("random", "rearrange", 0), ("random", "rearrange", 1),
        ("snip", "none", 0), ("snip", "none", 1),
        ("snip", "rearrange", 0), ("snip", "rearrange", 1),
    ]
    with pytest.raises(ConfigError, match="collide"):
        grid_cells(tiny_config(pipelines=[{"kind": "random"}, {"kind": "random"}]))


def test_rows_round_trip_through_csv(tmp_path):
    rows = [
        ResultRow("snip", "none", 0.5, 0, 91.25, (0.625, 0.3), 1.5, ""),
        ResultRow("snip", "rearrange", 0.5, 1, None, (), 0.25, "failed:DomainError"),
    ]
    path = tmp_path / "rows.csv"
    emit_rows(rows, str(path))
    assert parse_rows(str(path)) == rows
    (tmp_path / "mangled.csv").write_text("a,b\n1,2\n")
    with pytest.raises(ConfigError, match="expected columns"):
        parse_rows(str(tmp_path / "mangled.csv"))


@pytest.mark.parametrize("field", ["sparsity", "accuracy", "keep", "seconds"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_parse_rows_refuses_a_non_finite_number_by_line(tmp_path, field, value):
    path = tmp_path / "rows.csv"
    emit_rows([ResultRow("snip", "none", 0.5, s, 91.25, (0.625, 0.3), 1.5) for s in (0, 1)],
              str(path))
    with open(path, newline="", encoding="utf-8") as f:
        records = list(csv.DictReader(f))
    records[1][field] = f"0.625|{value}" if field == "keep" else value
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.DictWriter(f, CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(records)
    with pytest.raises(ConfigError, match=f"line 3: '{value}' is not a finite number"):
        parse_rows(str(path))


def test_load_config_reads_json(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(TINY))
    assert load_config(str(path)) == tiny_config()
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(str(bad))


def test_summarize_means_and_sample_std():
    rows = [
        ResultRow("a", "none", 0.5, s, acc, (), 0.0)
        for s, acc in [(0, 90.0), (1, 92.0), (2, 94.0)]
    ]
    rows.append(ResultRow("a", "none", 0.9, 0, None, (), 0.0, "failed:DomainError"))
    summary = summarize(rows)
    assert summary[0].mean == pytest.approx(92.0)
    assert summary[0].std == pytest.approx(2.0)
    assert summary[0].n == 3
    assert summary[1].mean is None and summary[1].n == 0


def test_markdown_table_layout():
    rows = [
        ResultRow("a", "none", 0.5, 0, 90.0, (), 0.0),
        ResultRow("a", "none", 0.5, 1, 94.0, (), 0.0),
        ResultRow("a", "rearrange", 0.5, 0, None, (), 0.0, "failed:DomainError"),
    ]
    text = format_markdown(rows)
    lines = text.splitlines()
    assert lines[0] == "## a"
    assert "| check | 0.5 |" in lines
    assert "| none | 92.00±2.83 |" in lines
    assert "| rearrange | failed |" in lines


def test_emit_report_formats(tmp_path):
    rows = [ResultRow("a", "none", 0.5, 0, 90.0, (0.5,), 0.1)]
    csv_path = emit_report(rows, "csv", str(tmp_path / "r.csv"))
    assert parse_rows(csv_path) == rows
    md_path = emit_report(rows, "markdown-table", str(tmp_path / "r.md"))
    assert "## a" in open(md_path).read()
    with pytest.raises(ConfigError, match="unknown report format"):
        emit_report(rows, "yaml", str(tmp_path / "r.yaml"))


def run_tiny(tmp_path, name, **overrides):
    cfg = tiny_config(output_dir=str(tmp_path / name), **overrides)
    return cfg, run_experiment(cfg)


def test_run_experiment_covers_the_grid(tmp_path, monkeypatch):
    monkeypatch.delenv("PRUNELAB_OUTPUT_DIR", raising=False)
    cfg, rows = run_tiny(tmp_path, "grid")
    assert len(rows) == 8
    assert all(r.accuracy is not None for r in rows)
    assert all(0.0 <= r.accuracy <= 100.0 for r in rows)
    digest = config_hash(cfg)[:12]
    out = tmp_path / "grid"
    assert (out / f"rows-{digest}.csv").exists()
    assert not (out / f"report-{digest}.csv").exists()  # it would copy the rows file
    assert (out / f"report-{digest}.md").exists()
    assert parse_rows(str(out / f"rows-{digest}.csv")) == rows


def test_run_experiment_resumes_finished_cells(tmp_path, monkeypatch):
    monkeypatch.delenv("PRUNELAB_OUTPUT_DIR", raising=False)
    cfg, first = run_tiny(tmp_path, "resume")
    digest = config_hash(cfg)[:12]
    rows_path = tmp_path / "resume" / f"rows-{digest}.csv"
    head = parse_rows(str(rows_path))[:5]
    emit_rows(head, str(rows_path))
    second = run_experiment(cfg)
    assert second[:5] == first[:5]  # resumed rows keep their original timing

    def sans_seconds(rows):
        return [dataclasses.replace(r, seconds=0.0) for r in rows]

    assert sans_seconds(second) == sans_seconds(first)
    redone = parse_rows(str(rows_path))
    assert len(redone) == 8
    assert redone[:5] == head


@pytest.mark.parametrize("column", ["accuracy", "seconds"])
def test_resume_reruns_the_cell_of_a_torn_last_row(tmp_path, monkeypatch, column):
    monkeypatch.delenv("PRUNELAB_OUTPUT_DIR", raising=False)
    cfg, first = run_tiny(tmp_path, "torn")
    rows_path = tmp_path / "torn" / f"rows-{config_hash(cfg)[:12]}.csv"
    text = rows_path.read_bytes()
    assert text.endswith(b"\n")
    last = text.rstrip(b"\r\n").rfind(b"\n") + 1
    commas = [i for i in range(last, len(text)) if text[i : i + 1] == b","]
    # keep the first character of the column, as if the write stopped there
    rows_path.write_bytes(text[: commas[CSV_COLUMNS.index(column) - 1] + 2])

    second = run_experiment(cfg)
    assert second[:-1] == first[:-1]  # resumed rows keep their original timing
    assert [dataclasses.replace(r, seconds=0.0) for r in second] == [
        dataclasses.replace(r, seconds=0.0) for r in first
    ]
    again = rows_path.read_bytes()
    assert again.startswith(text[:last])
    assert again.endswith(b"\n")
    assert parse_rows(str(rows_path)) == second


def test_run_out_resumes_rows_written_under_the_env_override(tmp_path, monkeypatch, capsys):
    out = tmp_path / "shared"
    monkeypatch.setenv("PRUNELAB_OUTPUT_DIR", str(out))
    cfg = tiny_config()
    first = run_experiment(cfg)
    monkeypatch.delenv("PRUNELAB_OUTPUT_DIR")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    assert main(["run", str(cfg_path), "--out", str(out), "--quiet"]) == 0
    (rows_path,) = out.glob("rows-*.csv")
    assert parse_rows(str(rows_path)) == first


def test_run_experiment_output_dir_env_override(tmp_path, monkeypatch):
    target = tmp_path / "env-home"
    monkeypatch.setenv("PRUNELAB_OUTPUT_DIR", str(target))
    cfg = tiny_config(output_dir=str(tmp_path / "ignored"))
    run_experiment(cfg)
    assert target.exists()
    assert not (tmp_path / "ignored").exists()


@pytest.mark.parametrize("overrides", [
    {"dataset": {**TINY["dataset"], "clases": 4}},  # a dataset key typo
    {"pipelines": [{"kind": "random"}, {"kind": "random"}]},  # colliding labels
])
def test_a_bad_config_leaves_no_output_directory(tmp_path, monkeypatch, overrides):
    monkeypatch.delenv("PRUNELAB_OUTPUT_DIR", raising=False)
    cfg = tiny_config(output_dir=str(tmp_path / "out"), **overrides)
    with pytest.raises((ConfigError, DatasetError)):
        run_experiment(cfg)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("negative", [
    {"seeds": [0, -1]},
    {"train": {**TINY["train"], "seed": -1}},
    {"dataset": {**TINY["dataset"], "seed": -3}},
])
def test_negative_seeds_exit_one_before_any_output(tmp_path, capsys, negative):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({**TINY, **negative}))
    out = tmp_path / "results"
    assert main(["run", str(cfg_path), "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(("error: ConfigError:", "error: DomainError:")) and "seed" in err
    assert err.count("\n") == 1
    assert not out.exists()


def strip_seconds(path):
    with open(path, newline="") as f:
        recs = list(csv.DictReader(f))
    for r in recs:
        r.pop("seconds")
    return recs


def test_identical_configs_reproduce_every_cell(tmp_path, monkeypatch):
    cfg = tiny_config()
    digest = config_hash(cfg)[:12]
    monkeypatch.setenv("PRUNELAB_OUTPUT_DIR", str(tmp_path / "rep-a"))
    run_experiment(cfg)
    monkeypatch.setenv("PRUNELAB_OUTPUT_DIR", str(tmp_path / "rep-b"))
    run_experiment(cfg)
    a = strip_seconds(str(tmp_path / "rep-a" / f"rows-{digest}.csv"))
    b = strip_seconds(str(tmp_path / "rep-b" / f"rows-{digest}.csv"))
    assert a == b


def test_run_experiment_records_failures_as_rows(tmp_path, monkeypatch):
    monkeypatch.delenv("PRUNELAB_OUTPUT_DIR", raising=False)
    # budget below the pinned output quota cannot be scheduled
    cfg, rows = run_tiny(
        tmp_path, "fail",
        pipelines=[{"kind": "random"}], sparsities=[0.999], checks=["none"],
    )
    assert all(r.accuracy is None for r in rows)
    assert all(r.flags.startswith("failed:") for r in rows)
    summary = summarize(rows)
    assert summary[0].mean is None


# A grid on which run order and grid order differ: snip and IMP prune on
# each data check's corrupted set, random reads no data.
DATA_GRID = {
    **TINY,
    "pipelines": [{"kind": "random"}, {"kind": "snip"}, {"kind": "imp", "round_fraction": 0.5}],
    "sparsities": [0.8, 0.5],
    "checks": list(CHECK_NAMES),
    "train": {"epochs": 1, "batch_size": 16, "seed": 0},
}


def watch_memo(monkeypatch):
    """Wrap harness.run_cell; returns a list of (kind, check, seed, memo names
    before the cell, memo) per cell, where the names are the memo's keys:
    the pruning data it holds buckets for."""
    seen, real = [], harness.run_cell

    def cell(kind, params, check, split, specs, p, seed, train_cfg, *, memo):
        seen.append((kind, check, seed, set(memo), memo))
        return real(kind, params, check, split, specs, p, seed, train_cfg, memo=memo)

    monkeypatch.setattr(harness, "run_cell", cell)
    return seen


def test_a_grid_holds_at_most_one_corrupted_train_set(tmp_path, monkeypatch):
    monkeypatch.delenv("PRUNELAB_OUTPUT_DIR", raising=False)
    seen = watch_memo(monkeypatch)
    run_experiment(ExperimentConfig.from_dict({**DATA_GRID, "output_dir": str(tmp_path)}))
    assert len(seen) == 3 * 2 * len(CHECK_NAMES) * 2
    for kind, check, seed, names, _ in seen:
        assert len({n for n in names if n[0] != "none"}) <= 1, (kind, check, seed)
    memo = seen[0][-1]  # the grid's one memo, after its last cell: empty
    assert memo == {}


def test_a_grid_drops_a_pruning_data_after_its_last_cell(tmp_path, monkeypatch):
    monkeypatch.delenv("PRUNELAB_OUTPUT_DIR", raising=False)
    seen = watch_memo(monkeypatch)
    run_experiment(ExperimentConfig.from_dict({**DATA_GRID, "output_dir": str(tmp_path)}))
    data = [pruning_data_name(kind, check, seed) for kind, check, seed, *_ in seen]
    last = {name: i for i, name in enumerate(data)}
    # Each pruning data's cells run together, clean data first.
    assert list(dict.fromkeys(data)) == [("none", None)] + [
        (c, s) for c in CHECK_NAMES if c in DATA_CHECKS for s in (0, 1)]
    assert sorted(data, key=list(dict.fromkeys(data)).index) == data
    for i, (kind, check, seed, names, _) in enumerate(seen):
        assert not {name for name in names if last[name] < i}, (kind, check, seed)
        assert data[i] in names or i == data.index(data[i]), (kind, check, seed)


@pytest.mark.parametrize("mode", ["reset", "lr-rewind"])
def test_a_descending_sparsity_list_shares_each_imp_path(tmp_path, monkeypatch, mode):
    monkeypatch.delenv("PRUNELAB_OUTPUT_DIR", raising=False)
    pipeline = {"kind": "imp", "mode": mode, "round_fraction": 0.5}
    cfg = ExperimentConfig.from_dict({
        **TINY, "pipelines": [pipeline], "sparsities": [0.95, 0.9, 0.8, 0.5],
        "checks": ["none", "corrupt-both", "rearrange"], "seeds": [3, 4],
        "train": {"epochs": 1, "batch_size": 16, "seed": 0}, "output_dir": str(tmp_path),
    })
    split = load_dataset(cfg.dataset)
    rounds = {seeding.combine(s, seeding.IMP_ROUND, r): (s, r) for s in (3, 4) for r in range(9)}
    trained, real_train = [], pipelines.train

    def train(params, mask, data, run_cfg, *a, **k):
        if run_cfg.seed in rounds:
            clean = np.array_equal(data.samples, split.train.samples)
            trained.append((clean, *rounds[run_cfg.seed]))
        return real_train(params, mask, data, run_cfg, *a, **k)

    monkeypatch.setattr(pipelines, "train", train)
    rows = run_experiment(cfg)
    # mlp-4 keeps 6144 weights here: 3072, 1536, 768, 384, ... at round_fraction
    # 0.5, so 0.95 keeps 307 after 5 rounds.  Walked alone, the four
    # sparsities would train 5 + 4 + 3 + 1 = 13 rounds per pruning data and seed.
    assert sorted(trained) == sorted(
        (clean, s, r) for clean in (True, False) for s in (3, 4) for r in range(1, 6))
    monkeypatch.setattr(pipelines, "train", real_train)
    specs = preset_specs(cfg.arch, split.train.sample_shape, split.train.class_count)
    cells = grid_cells(cfg)
    assert [r.key() for r in rows] == [
        (label, check, repr(p), seed) for _, label, check, p, seed in cells]
    for row, (p, _, check, target, seed) in zip(rows, cells):
        want = run_cell("imp", {k: v for k, v in p.items() if k != "kind"}, check, split,
                        specs, target, seed, cfg.train)
        assert (row.accuracy, row.keep) == (want.accuracy, want.keep), row.key()


def test_an_interrupted_grid_resumes_to_the_rows_file_of_a_whole_run(tmp_path, monkeypatch):
    monkeypatch.delenv("PRUNELAB_OUTPUT_DIR", raising=False)
    whole = ExperimentConfig.from_dict({**DATA_GRID, "output_dir": str(tmp_path / "whole")})
    run_experiment(whole)
    cfg = dataclasses.replace(whole, output_dir=str(tmp_path / "cut"))
    # Clean data's group: random's cells, and snip's and imp's under the other checks.
    clean = [c for c in CHECK_NAMES if c not in DATA_CHECKS]
    k = 2 * 2 * len(CHECK_NAMES) + 2 * 2 * len(clean) * 2

    class Cut(Exception):
        pass

    def progress(done, total, row):
        if done == k:
            raise Cut

    with pytest.raises(Cut):
        run_experiment(cfg, progress=progress)
    rows_path = tmp_path / "cut" / f"rows-{config_hash(cfg)[:12]}.csv"
    raw = rows_path.read_bytes()
    assert raw.endswith(b"\n")
    cut = parse_rows(str(rows_path))
    # Whole rows of the cells run so far: clean data's group.
    assert len(cut) == k
    assert all(r.pipeline == "random" or r.check in clean for r in cut)

    rows = run_experiment(cfg)
    assert rows[: len(cut)] != cut  # rows come back in grid order, not run order
    assert [r.key() for r in rows] == [
        (label, check, repr(p), seed) for _, label, check, p, seed in grid_cells(cfg)]
    assert {r.key(): r for r in cut}.items() <= {r.key(): r for r in rows}.items()
    assert parse_rows(str(rows_path)) == rows
    assert strip_seconds(str(rows_path)) == strip_seconds(
        str(tmp_path / "whole" / rows_path.name))


@pytest.mark.parametrize("raw", [[TINY], "mlp-4", None, 5])
def test_config_from_a_non_mapping_fails_typed(raw):
    refusal = f"^config must be a mapping, not {re.escape(repr(raw))}$"
    with pytest.raises(ConfigError, match=refusal):
        ExperimentConfig.from_dict(raw)


def test_config_to_dict_writes_tuples_as_lists():
    cfg = tiny_config()
    d = cfg.to_dict()
    assert d["pipelines"] == [dict(p) for p in cfg.pipelines] and d["seeds"] == list(cfg.seeds)
    assert d["train"] == cfg.train.to_dict()
    assert ExperimentConfig.from_dict(d) == cfg
