"""Command-line interface: every subcommand end to end via main()."""

import json

from prunelab.cli import main
from prunelab.harness import ResultRow, emit_rows
from prunelab.models import LayerSpec, build_network, layer_sizes, preset_specs
from prunelab.pipelines import Ticket, load_ticket, save_ticket
from prunelab.pruning import full_mask, round_half_up

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


def test_run_executes_a_config(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("PRUNELAB_OUTPUT_DIR", raising=False)
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(TINY))
    out_dir = tmp_path / "results"
    assert main(["run", str(cfg_path), "--out", str(out_dir), "--quiet"]) == 0
    assert "done: 2/2 cells succeeded" in capsys.readouterr().out
    assert list(out_dir.glob("rows-*.csv"))
    assert list(out_dir.glob("report-*.md"))


def test_run_missing_config_reports_one_line(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError:")
    assert err.count("\n") == 1


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


def test_check_missing_ticket_exits_one(tmp_path, capsys):
    assert main(["check", str(tmp_path / "ghost.plab"), "rearrange"]) == 1
    assert capsys.readouterr().err.startswith("error: FileNotFound:")


def test_check_torn_ticket_exits_one_with_one_line(tmp_path, capsys):
    specs = (LayerSpec("dense", 2, 3), LayerSpec("dense", 3, 2, is_output=True))
    ticket = Ticket(full_mask([6, 6]), build_network(specs, seed=1), {"kind": "dense", "seed": 1})
    whole = tmp_path / "t.plab"
    save_ticket(ticket, str(whole))
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


def test_report_missing_rows_exits_one(tmp_path, capsys):
    assert main(["report", str(tmp_path / "none.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: FileNotFound:")
