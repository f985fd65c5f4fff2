"""Command-line interface: every subcommand end to end via main()."""

import codecs
import json
import os
import struct
import subprocess
import sys
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

from prunelab.cli import main
from prunelab.errors import DatasetError
from prunelab.harness import CSV_COLUMNS, ResultRow, emit_rows
from prunelab.models import LayerSpec, build_network, layer_sizes, preset_specs
from prunelab.pipelines import (
    TICKET_MAGIC,
    Ticket,
    TrainConfig,
    build_ticket,
    load_ticket,
    replay_ticket,
    save_ticket,
)
from prunelab.pruning import full_mask, round_half_up
from test_data import idx_quartet

TINY = {
    "arch": "mlp-4",
    "dataset": {"kind": "synthetic-blobs", "classes": 3, "dim": 4, "n": 60, "seed": 9},
    "pipelines": [{"kind": "random"}],
    "sparsities": [0.5],
    "checks": ["none"],
    "seeds": [0, 1],
    "train": {"epochs": 2, "batch_size": 16, "seed": 0},
}


def test_version_banner(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip() == "prunelab 0.1.0"


def test_usage_errors_exit_two(capsys):
    assert main([]) == 2
    assert main(["conjure"]) == 2
    assert main(["ratios", "mlp-4", "0.9", "plain", "--kind", "spiral"]) == 2
    assert main(["ticket", "random", "--input-shape", "4xq"]) == 2
    assert main(["ratios", "mlp-4", "0.9", "plain", "--input-shape", "x"]) == 2


def test_run_executes_a_config(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("PRUNELAB_OUTPUT_DIR", raising=False)
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(TINY))
    out_dir = tmp_path / "results"
    assert main(["run", str(cfg_path), "--out", str(out_dir), "--quiet"]) == 0
    assert "done: 2/2 cells succeeded" in capsys.readouterr().out
    assert list(out_dir.glob("rows-*.csv"))
    assert list(out_dir.glob("report-*.md"))


@pytest.mark.parametrize("typo", [
    {"pipelines": [{"kind": "lt", "schedul": "smart"}]},
    {"dataset": {**TINY["dataset"], "clases": 4}},
    # malformed values: each once ended in a traceback, or ran wrongly
    {"pipelines": [{"kind": "weight-rewind", "rewind_epoch": "x"}]},
    {"pipelines": [{"kind": "weight-rewind", "rewind_epoch": 1.7}]},
    {"pipelines": [{"kind": "hybrid", "family": "plian"}]},
    {"pipelines": [{"kind": "imp", "round_fraction": "abc"}]},
    {"pipelines": [{"kind": "imp", "mode": "anneal"}]},
    {"pipelines": [{"kind": "lt", "preserve_output_layer": "no"}]},
    {"pipelines": ["lt"]},
    {"seeds": ["x"]},
    {"sparsities": ["x"]},
    {"train": {**TINY["train"], "epochs": 2.5}},
    {"dataset": {**TINY["dataset"], "classes": "x"}},
    {"dataset": {**TINY["dataset"], "noise": [1]}},
    {"dataset": {"kind": "csv", "path": 5}},
    {"train": {**TINY["train"], "epochs": True}},
    {"train": {**TINY["train"], "batch_size": True}},
    {"train": {**TINY["train"], "seed": 1.5}},
])
def test_run_config_typo_exits_one_with_one_line(tmp_path, capsys, typo):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({**TINY, **typo}))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "results"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(("error: ConfigError:", "error: DatasetError:"))
    assert err.count("\n") == 1
    assert not list((tmp_path / "results").glob("rows-*.csv"))


@pytest.mark.parametrize("field, value, expected", [
    ("output_dir", 5, "a string"),
    ("output_dir", None, "a string"),
    ("output_dir", ["out"], "a string"),
    # a bare string where a list belongs was read one character at a time
    ("checks", "none", "a list"),
    ("seeds", "01", "a list"),
    ("sparsities", "0.5", "a list"),
    ("pipelines", {"kind": "random"}, "a list"),
])
def test_run_refuses_a_mistyped_config_field_with_one_line(
    tmp_path, capsys, monkeypatch, field, value, expected
):
    monkeypatch.delenv("PRUNELAB_OUTPUT_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({**TINY, field: value}))
    assert main(["run", str(cfg_path), "--quiet"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: ConfigError: {field} must be {expected}, not {value!r}"]
    assert list(tmp_path.iterdir()) == [cfg_path]


def test_run_and_report_write_utf8_under_an_ascii_locale(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    env.pop("PRUNELAB_OUTPUT_DIR", None)

    def python(*argv):
        done = subprocess.run([sys.executable, *argv], env=env, cwd=tmp_path,
                              capture_output=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, b""), argv
        return done.stdout

    # The locale's encoding is ASCII, so a file opened without one cannot hold "α".
    encoding = python("-c", "import locale; print(locale.getpreferredencoding(False))")
    assert codecs.lookup(encoding.decode().strip()).name == "ascii"
    cfg = {**TINY, "pipelines": [{"kind": "random", "name": "random-α"}], "output_dir": "out"}
    (tmp_path / "exp.json").write_text(json.dumps(cfg, ensure_ascii=False), encoding="utf-8")
    python("-m", "prunelab.cli", "run", "exp.json", "--quiet")
    (rows,) = (tmp_path / "out").glob("rows-*.csv")
    (report,) = (tmp_path / "out").glob("report-*.md")
    assert report.read_text(encoding="utf-8").startswith("## random-α\n")
    python("-m", "prunelab.cli", "report", str(rows), "--format", "markdown-table", "--out", "r.md")
    assert (tmp_path / "r.md").read_bytes() == report.read_bytes()


def test_run_missing_config_reports_one_line(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("source", ["csv-two-rows", "idx-no-test-images"])
def test_run_on_an_empty_split_exits_one_with_one_line(tmp_path, capsys, source):
    if source == "csv-two-rows":  # round(0.8 * 2) rows train, none test
        (tmp_path / "d.csv").write_text("1.0,2.0,0\n3.0,4.0,1\n")
        dataset = {"kind": "csv", "path": str(tmp_path / "d.csv")}
    else:
        dataset = {"kind": "idx-files", **idx_quartet(tmp_path, n_test=0)}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({**TINY, "dataset": dataset}))
    out = tmp_path / "results"
    assert main(["run", str(cfg_path), "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: DatasetError:")
    assert err[0].endswith("the test split is empty")
    assert not out.exists()


# Each dataset spec with a non-finite or boolean number, and the error it gets.
BAD_NUMBERS = {
    "noise-nan": ({"noise": float("nan")}, "synthetic-blobs noise must be a finite number"),
    "noise-true": ({"noise": True}, "synthetic-blobs noise must be a finite number"),
    "shape-bool": ({"shape": [True, 4]}, "synthetic-blobs shape must list positive integers"),
    "shape-fraction": ({"shape": [2.5, 1.6]}, "synthetic-blobs shape must list positive integers"),
    "csv-nan": ("1.0,2.0,0\n3.0,nan,1\n" * 5, "line 2: 'nan' is not a finite number"),
}


@pytest.mark.parametrize("case", BAD_NUMBERS)
def test_run_refuses_non_finite_or_boolean_dataset_numbers_with_one_line(tmp_path, capsys, case):
    bad, message = BAD_NUMBERS[case]
    if isinstance(bad, str):
        (tmp_path / "d.csv").write_text(bad)
        dataset = {"kind": "csv", "path": str(tmp_path / "d.csv")}
    else:
        dataset = {**TINY["dataset"], **bad}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({**TINY, "dataset": dataset}))
    out = tmp_path / "results"
    assert main(["run", str(cfg_path), "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: DatasetError:") and message in err[0]
    assert not out.exists()


@pytest.mark.parametrize("kind, spec", [
    ("random", "noise=Infinity"), ("snip", "noise=NaN"), ("random", "noise=true"),
])
def test_ticket_refuses_a_non_finite_or_boolean_noise_with_one_line(tmp_path, capsys, kind, spec):
    out = tmp_path / "t.plab"
    code = main([
        "ticket", kind, "--epochs", "1", "--data", f"synthetic-blobs:n=60,{spec}",
        "--out", str(out),
    ])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: DatasetError: synthetic-blobs noise must be a finite number")
    assert not out.exists()


def test_ticket_random_is_data_free(tmp_path, capsys):
    out = tmp_path / "r.plab"
    code = main([
        "ticket", "random", "--sparsity", "0.9",
        "--input-shape", "16", "--classes", "3", "--seed", "4", "--out", str(out),
    ])
    assert code == 0
    assert "kind=random" in capsys.readouterr().out
    ticket = load_ticket(str(out))
    sizes = layer_sizes(preset_specs("mlp-4", (16,), 3))
    assert ticket.mask.total_kept == round_half_up(0.1 * sum(sizes))


def test_ticket_scored_kind_needs_data(tmp_path, capsys):
    assert main(["ticket", "snip", "--out", str(tmp_path / "s.plab")]) == 1
    assert capsys.readouterr().err.startswith("error: DomainError:")


def test_ticket_snip_from_synthetic_data(tmp_path, capsys):
    out = tmp_path / "s.plab"
    code = main([
        "ticket", "snip", "--sparsity", "0.5", "--seed", "3",
        "--data", "synthetic-blobs:classes=3,dim=4,n=60,seed=9",
        "--epochs", "2", "--out", str(out),
    ])
    assert code == 0
    ticket = load_ticket(str(out))
    sizes = layer_sizes(preset_specs("mlp-4", (4,), 3))
    assert ticket.mask.total_kept == round_half_up(0.5 * sum(sizes))


def test_ticket_builds_a_conv_ticket_from_shaped_blobs(tmp_path, capsys):
    out = tmp_path / "c.plab"
    code = main([
        "ticket", "snip", "--arch", "conv-5", "--epochs", "1",
        "--data", "synthetic-blobs:classes=4,dim=144,n=400,shape=1x12x12", "--out", str(out),
    ])
    assert code == 0
    sizes = [c.size for c in load_ticket(str(out)).mask.layers]
    assert sizes == layer_sizes(preset_specs("conv-5", (1, 12, 12), 4))


def test_ticket_reads_a_two_dimensional_data_shape_as_one_channel(tmp_path, capsys):
    written = []
    for shape in ("12x12", "1x12x12"):
        out = tmp_path / f"{shape}.plab"
        code = main([
            "ticket", "snip", "--arch", "conv-5", "--epochs", "1",
            "--data", f"synthetic-blobs:classes=4,dim=144,n=400,shape={shape}", "--out", str(out),
        ])
        assert code == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]


@pytest.mark.parametrize("shape", ["[1", "1x12xq", "1x0x144", "", "1x-12x12"])
def test_ticket_malformed_data_shape_exits_one_with_one_line(tmp_path, capsys, shape):
    out = tmp_path / "c.plab"
    code = main([
        "ticket", "snip", "--arch", "conv-5", "--epochs", "1",
        "--data", f"synthetic-blobs:dim=144,n=60,shape={shape}", "--out", str(out),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: DomainError:") and "AxBxC" in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("flag", [["--input-shape", "4"], ["--classes", "7"]])
def test_ticket_refuses_shape_flags_that_the_data_fixes(tmp_path, capsys, flag):
    out = tmp_path / "s.plab"
    code = main([
        "ticket", "snip", "--data", "synthetic-blobs:classes=3,dim=4,n=60,seed=9",
        "--epochs", "1", *flag, "--out", str(out),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: DomainError:") and flag[0] in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_ticket_random_defaults_to_sixteen_inputs_and_three_classes(tmp_path, capsys):
    out = tmp_path / "r.plab"
    assert main(["ticket", "random", "--out", str(out)]) == 0
    sizes = [c.size for c in load_ticket(str(out)).mask.layers]
    assert sizes == layer_sizes(preset_specs("mlp-4", (16,), 3))


def test_check_rewrites_a_ticket(tmp_path, capsys):
    original = tmp_path / "t.plab"
    main([
        "ticket", "random", "--sparsity", "0.8",
        "--input-shape", "16", "--classes", "3", "--out", str(original),
    ])
    attacked_path = tmp_path / "t-re.plab"
    assert main(["check", str(original), "rearrange", "--out", str(attacked_path)]) == 0
    assert "applied rearrange" in capsys.readouterr().out
    before = load_ticket(str(original))
    after = load_ticket(str(attacked_path))
    assert after.mask.counts() == before.mask.counts()
    assert after.provenance["checks"] == ["rearrange"]
    # the check drew from the stream of a grid cell with the ticket's seed
    specs = preset_specs("mlp-4", (16,), 3)
    cell = build_ticket("random", specs, None, 0.8, 0, TrainConfig(), {}, ["rearrange"])
    for a, b in zip(after.mask.layers, cell.mask.layers):
        assert np.array_equal(a, b)


def test_check_under_another_seed_replays_from_its_file(tmp_path, capsys):
    original, checked = tmp_path / "t.plab", tmp_path / "t-re.plab"
    main([
        "ticket", "random", "--sparsity", "0.8", "--seed", "4",
        "--input-shape", "16", "--classes", "3", "--out", str(original),
    ])
    assert main(["check", str(original), "rearrange", "--seed", "9", "--out", str(checked)]) == 0
    after = load_ticket(str(checked))
    assert after.provenance["check_seed"] == 9
    again = replay_ticket(after.provenance, preset_specs("mlp-4", (16,), 3), None)
    for a, b in zip(after.mask.layers, again.mask.layers):
        assert np.array_equal(a, b)
    # a second check under a third seed could not be replayed
    capsys.readouterr()
    assert main(["check", str(checked), "shuffle-weights", "--seed", "5",
                 "--out", str(tmp_path / "t-re-sh.plab")]) == 1
    assert capsys.readouterr().err.startswith("error: DomainError:")


def test_negative_seeds_exit_one_before_any_output(tmp_path, capsys):
    original = tmp_path / "t.plab"
    assert main(["ticket", "random", "--out", str(original)]) == 0
    out = tmp_path / "out.plab"
    for argv in (["ticket", "random", "--seed", "-1"],
                 ["check", str(original), "rearrange", "--seed", "-2"]):
        capsys.readouterr()
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: DomainError: seed -")
        assert not out.exists()


def tiny_ticket(**provenance):
    specs = (LayerSpec("dense", 2, 3), LayerSpec("dense", 3, 2, is_output=True))
    prov = {"kind": "dense", "seed": 1, **provenance}
    return Ticket(full_mask([6, 6]), build_network(specs, seed=1), prov)


@pytest.mark.parametrize("bad", [
    {"checks": 5}, {"checks": "ab"}, {"checks": ["mirror"]}, {"check_seed": -1},
    {"check_seed": True}, {"check_seed": 2.0}, {"seed": "4"}, {"seed": -1},
])
def test_check_refuses_a_bad_provenance_record_with_one_line(tmp_path, capsys, bad):
    path, out = tmp_path / "t.plab", tmp_path / "out.plab"
    save_ticket(tiny_ticket(**bad), str(path))
    assert main(["check", str(path), "rearrange", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: DatasetError: {path}: provenance")
    assert not out.exists()


TINY_ARCH = [
    {"kind": "dense", "fan_in": 2, "fan_out": 3, "kernel": None, "is_output": False},
    {"kind": "dense", "fan_in": 3, "fan_out": 2, "kernel": None, "is_output": True},
]


@pytest.mark.parametrize("header, error", [
    ([TINY_ARCH, {}], "bad header"),  # not an object
    ({"arch": TINY_ARCH[0], "provenance": {}}, "bad header"),  # arch not a list
    ({"arch": TINY_ARCH}, "bad header"),  # no provenance
    ({"arch": [[2, 3], TINY_ARCH[1]], "provenance": {}}, "bad header"),  # layer not an object
    ({"arch": [{**TINY_ARCH[0], "bias": 1}, TINY_ARCH[1]], "provenance": {}}, "bad header"),
    ({"arch": [{"fan_in": 2, "fan_out": 3}, TINY_ARCH[1]], "provenance": {}}, "bad header"),
    ({"arch": [{**TINY_ARCH[0], "fan_in": 10**12}, TINY_ARCH[1]], "provenance": {}},
     "truncated"),
], ids=["header-not-object", "arch-not-list", "no-provenance", "layer-not-object",
        "unknown-layer-key", "no-layer-kind", "huge-fan-in"])
def test_a_crafted_ticket_file_with_a_valid_checksum_fails_typed(tmp_path, capsys, header, error):
    # A header the arrays do not fit fails before any array is allocated.
    path, out = tmp_path / "t.plab", tmp_path / "out.plab"
    head = json.dumps(header).encode("utf-8")
    # Room for TINY_ARCH's 12 weights and 12 mask entries.
    body = TICKET_MAGIC + struct.pack("<IQ", 3, len(head)) + head + bytes(16 * 12)
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    tracemalloc.start()
    try:
        with pytest.raises(DatasetError, match=error):
            load_ticket(str(path))
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()
    assert main(["check", str(path), "rearrange", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: DatasetError: {path}: {error}")
    assert not out.exists()


def test_check_missing_ticket_exits_one(tmp_path, capsys):
    assert main(["check", str(tmp_path / "ghost.plab"), "rearrange"]) == 1
    assert capsys.readouterr().err.startswith("error: FileNotFound:")


def test_check_torn_ticket_exits_one_with_one_line(tmp_path, capsys):
    whole = tmp_path / "t.plab"
    save_ticket(tiny_ticket(), str(whole))
    raw = whole.read_bytes()
    torn, out = tmp_path / "torn.plab", tmp_path / "out.plab"
    for cut in range(len(raw)):
        torn.write_bytes(raw[:cut])
        assert main(["check", str(torn), "rearrange", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: DatasetError:")
    assert not out.exists()


def test_ratios_prints_the_schedule_table(capsys):
    assert main(["ratios", "mlp-4", "0.9", "plain"]) == 0
    out = capsys.readouterr().out
    sizes = layer_sizes(preset_specs("mlp-4", (16,), 3))
    kept = round_half_up(0.1 * sum(sizes))
    assert f"total retained {kept} of {sum(sizes)}" in out
    assert len(out.strip().splitlines()) == 1 + len(sizes) + 1  # header, rows, total


def test_ratios_infeasible_budget_exits_one(capsys):
    assert main(["ratios", "mlp-4", "0.999", "plain"]) == 1
    assert capsys.readouterr().err.startswith("error: InfeasibleSparsityError:")


def test_report_reformats_rows(tmp_path, capsys):
    rows_path = tmp_path / "rows.csv"
    emit_rows(
        [
            ResultRow("a", "none", 0.5, 0, 90.0, (0.5,), 0.1),
            ResultRow("a", "none", 0.5, 1, 94.0, (0.5,), 0.1),
        ],
        str(rows_path),
    )
    out = tmp_path / "summary.md"
    code = main(["report", str(rows_path), "--format", "markdown-table", "--out", str(out)])
    assert code == 0
    assert "2 detail rows" in capsys.readouterr().out
    text = out.read_text()
    assert "## a" in text
    assert "92.00±2.83" in text


@pytest.mark.parametrize("fmt, name", [("csv", "rows.out.csv"), ("markdown-table", "rows.md")])
def test_report_writes_beside_its_rows_in_a_dotted_directory(tmp_path, capsys, fmt, name):
    rows_dir = tmp_path / "my.dir"
    rows_dir.mkdir()
    emit_rows([ResultRow("a", "none", 0.5, 0, 90.0, (0.5,), 0.1)], str(rows_dir / "rows"))
    assert main(["report", str(rows_dir / "rows"), "--format", fmt]) == 0
    assert f"wrote {rows_dir / name} (1 detail rows)" in capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["my.dir"]
    assert sorted(p.name for p in rows_dir.iterdir()) == sorted(["rows", name])


# Each turns two good rows into a malformed rows file.
MALFORMED_ROWS = {
    "bad-value": lambda raw: raw.replace(b",94.0,", b",abc,"),
    "short-row": lambda raw: raw + b"a,none,0.5\r\n",
    "not-utf8": lambda raw: raw.replace(b"a,none,0.5,1", b"\xff,none,0.5,1"),
    "nan-accuracy": lambda raw: raw.replace(b",94.0,", b",nan,"),
    "inf-sparsity": lambda raw: raw.replace(b"a,none,0.5,1", b"a,none,inf,1"),
}


@pytest.mark.parametrize("case", [*MALFORMED_ROWS, "resume"])
def test_malformed_rows_exit_one_with_one_line(tmp_path, capsys, monkeypatch, case):
    if case == "resume":
        monkeypatch.delenv("PRUNELAB_OUTPUT_DIR", raising=False)
        cfg_path, out = tmp_path / "exp.json", tmp_path / "results"
        cfg_path.write_text(json.dumps(TINY))
        argv = ["run", str(cfg_path), "--out", str(out), "--quiet"]
        assert main(argv) == 0
        (rows_path,) = out.glob("rows-*.csv")
        head, _, rest = rows_path.read_bytes().partition(b"\n")
        fields = rest.split(b",")
        fields[CSV_COLUMNS.index("accuracy")] = b"abc"
        # and a torn last row, which a resume over a well-formed file would cut
        rows_path.write_bytes(head + b"\n" + b",".join(fields) + b"random,no")
    else:
        rows_path = tmp_path / "rows.csv"
        emit_rows(
            [
                ResultRow("a", "none", 0.5, 0, 90.0, (0.5,), 0.1),
                ResultRow("a", "none", 0.5, 1, 94.0, (0.5,), 0.1),
            ],
            str(rows_path),
        )
        rows_path.write_bytes(MALFORMED_ROWS[case](rows_path.read_bytes()))
        argv = ["report", str(rows_path), "--out", str(tmp_path / "out.csv")]
    before = rows_path.read_bytes()
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: ConfigError: {rows_path}: line ")
    assert rows_path.read_bytes() == before  # resume neither drops the row nor rewrites


def test_report_missing_rows_exits_one(tmp_path, capsys):
    assert main(["report", str(tmp_path / "none.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: FileNotFound:")


@pytest.mark.parametrize("argv", [
    ["report", "{dir}"],
    ["run", "{dir}"],
    ["check", "{dir}", "rearrange"],
    ["ticket", "random", "--out", "{dir}"],
])
def test_a_directory_where_a_file_belongs_exits_one_with_one_line(tmp_path, capsys, argv):
    assert main([a.format(dir=tmp_path) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: IsADirectoryError:") and err.count("\n") == 1


def test_run_refuses_a_config_that_is_not_utf8_with_one_line(tmp_path, capsys):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_bytes(b"\xff\xfe" + json.dumps(TINY).encode("utf-16-le"))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "results")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ConfigError: {cfg_path}: not UTF-8 text:")
    assert err.count("\n") == 1


def test_ticket_refuses_a_data_csv_that_is_not_utf8_with_one_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"1.0,2.0,0\n3.0,\xff,1\n" * 5)
    assert main(["ticket", "snip", "--data", f"csv:{bad}", "--out", str(tmp_path / "t.plab")]) == 1
    assert capsys.readouterr().err == f"error: DatasetError: {bad}: not UTF-8 text\n"
