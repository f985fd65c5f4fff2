"""Command-line entry point.

Subcommands: run (execute a config), ticket (build and save one ticket),
check (structurally attack a saved ticket), ratios (print a schedule),
report (reformat a rows file).  Exit codes: 0 success, 1 runtime failure
with a one-line error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .checks import STRUCTURAL_CHECKS
from .data import load_dataset
from .errors import DomainError, PrunelabError
from .harness import emit_report, load_config, parse_rows, run_experiment
from .models import PRESET_NAMES, preset_specs
from .pipelines import (
    FAMILIES,
    IMP_MODES,
    OPTIONS,
    TICKET_KINDS,
    TrainConfig,
    apply_structural_check,
    build_ticket,
    load_ticket,
    save_ticket,
)
from .pruning import keep_ratios, sparsity
from .schedules import SCHEDULE_KINDS, schedule_by_name


def _parse_dataset_arg(text):
    """Compact dataset syntax: kind:key=value,key=value; shape=AxBxC as in --input-shape."""
    if ":" not in text:
        return {"kind": text}
    kind, _, rest = text.partition(":")
    source = {"kind": kind}
    if kind == "csv" and "=" not in rest:
        source["path"] = rest
        return source
    for item in rest.split(","):
        if not item:
            continue
        if "=" not in item:
            raise DomainError(f"dataset option {item!r} is not key=value")
        key, _, value = item.partition("=")
        if key == "shape":
            try:
                source[key] = _shape_arg(value)
            except argparse.ArgumentTypeError as exc:
                raise DomainError(f"dataset shape: {exc}") from None
            continue
        try:
            source[key] = json.loads(value)
        except json.JSONDecodeError:
            source[key] = value
    return source


def _shape_arg(text):
    """argparse type of --input-shape (and --data's shape): AxBxC, positive integers."""
    dims = text.split("x")
    if not all(d.isdecimal() and int(d) > 0 for d in dims):
        raise argparse.ArgumentTypeError(f"{text!r} is not an AxBxC shape of positive integers")
    return tuple(int(d) for d in dims)


def _cmd_run(args):
    cfg = load_config(args.config)
    if args.out:
        import dataclasses

        cfg = dataclasses.replace(cfg, output_dir=args.out)

    def progress(i, total, row):
        acc = "failed" if row.accuracy is None else f"{row.accuracy:.2f}%"
        print(f"[{i}/{total}] {row.pipeline} {row.check} p={row.sparsity} "
              f"seed={row.seed}: {acc}")

    rows = run_experiment(cfg, progress=progress if not args.quiet else None)
    ok = sum(1 for r in rows if r.accuracy is not None)
    print(f"done: {ok}/{len(rows)} cells succeeded")
    return 0


def _cmd_ticket(args):
    split = None
    if args.data:
        for flag, value in (("--input-shape", args.input_shape), ("--classes", args.classes)):
            if value is not None:
                raise DomainError(f"{flag} conflicts with --data, which fixes it")
        split = load_dataset(_parse_dataset_arg(args.data))
        shape, classes = split.train.sample_shape, split.train.class_count
    elif args.kind != "random":
        raise DomainError(f"pipeline {args.kind!r} needs --data")
    else:
        shape = (16,) if args.input_shape is None else args.input_shape
        classes = 3 if args.classes is None else args.classes
    specs = preset_specs(args.arch, shape, classes)
    cfg = TrainConfig(epochs=args.epochs, seed=args.seed)
    # Only the options given; build_ticket fills in the rest.
    params = {k: getattr(args, k) for k in OPTIONS if getattr(args, k, None) is not None}
    ticket = build_ticket(args.kind, specs, split, args.sparsity, args.seed, cfg, params)
    save_ticket(ticket, args.out)
    ratios = ", ".join(f"{r:.4f}" for r in keep_ratios(ticket.mask))
    print(f"wrote {args.out}: kind={args.kind} sparsity={sparsity(ticket.mask):.6f} "
          f"keep=[{ratios}]")
    return 0


def _cmd_check(args):
    attacked = apply_structural_check(load_ticket(args.ticket), args.check, args.seed)
    save_ticket(attacked, args.out)
    print(f"wrote {args.out}: applied {args.check} to {args.ticket}")
    return 0


def _cmd_ratios(args):
    shape = args.input_shape or ((16,) if args.preset == "mlp-4" else (1, 8, 8))
    specs = preset_specs(args.preset, shape, args.classes)
    sizes = [s.weight_count for s in specs]
    schedule = schedule_by_name(args.kind, sizes, specs, args.sparsity, args.family)
    print(f"{'layer':>5}  {'kind':<6} {'size':>8} {'quota':>8} {'ratio':>10}")
    for i, (spec, m, q, r) in enumerate(
        zip(specs, sizes, schedule.quotas, schedule.ratios), start=1
    ):
        print(f"{i:>5}  {spec.kind:<6} {m:>8} {q:>8} {r:>10.6f}")
    total = sum(sizes)
    kept = schedule.total_kept
    print(f"total retained {kept} of {total} "
          f"(target sparsity {args.sparsity}, achieved {1 - kept / total:.6f})")
    return 0


def _cmd_report(args):
    rows = parse_rows(args.rows)
    out = args.out or (os.path.splitext(args.rows)[0] +
                       (".md" if args.format == "markdown-table" else ".out.csv"))
    emit_report(rows, args.format, out)
    print(f"wrote {out} ({len(rows)} detail rows)")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="prunelab",
        description="Desk-scale pruning laboratory: schedules, tickets, sanity checks.",
    )
    parser.add_argument("--version", action="version", version=f"prunelab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", help="path to a JSON experiment config")
    p_run.add_argument("--out", help="override the config's output directory")
    p_run.add_argument("--quiet", action="store_true", help="suppress per-cell progress")
    p_run.set_defaults(fn=_cmd_run)

    p_ticket = sub.add_parser("ticket", help="build one ticket and save it")
    p_ticket.add_argument("kind", choices=[k for k in TICKET_KINDS if k != "dense"])
    p_ticket.add_argument("--arch", default="mlp-4", choices=PRESET_NAMES)
    p_ticket.add_argument("--sparsity", type=float, default=0.9)
    p_ticket.add_argument("--seed", type=int, default=0)
    p_ticket.add_argument("--data", help="dataset, e.g. synthetic-blobs:classes=3,dim=16,n=600,"
                                         "seed=7 (an image shape: dim=144,shape=1x12x12)")
    p_ticket.add_argument("--input-shape", type=_shape_arg,
                          help="AxBxC input shape without --data (default 16)")
    p_ticket.add_argument("--classes", type=int,
                          help="class count without --data (default 3)")
    p_ticket.add_argument("--family", choices=FAMILIES)
    p_ticket.add_argument("--schedule", choices=SCHEDULE_KINDS)
    p_ticket.add_argument("--mode", choices=IMP_MODES)
    p_ticket.add_argument("--round-fraction", type=float)
    p_ticket.add_argument("--rewind-epoch", type=int)
    p_ticket.add_argument("--epochs", type=int, default=40)
    p_ticket.add_argument("--out", default="ticket.plab")
    p_ticket.set_defaults(fn=_cmd_ticket)

    p_check = sub.add_parser("check", help="apply a structural sanity check to a ticket")
    p_check.add_argument("ticket", help="path to a saved ticket")
    p_check.add_argument("check", choices=STRUCTURAL_CHECKS)
    p_check.add_argument("--seed", type=int, default=None,
                         help="seed of the grid cell whose check stream to draw from "
                              "(default: the seed it was checked under, else its own)")
    p_check.add_argument("--out", default="ticket-checked.plab")
    p_check.set_defaults(fn=_cmd_check)

    p_ratios = sub.add_parser("ratios", help="print a keep-ratio schedule")
    p_ratios.add_argument("preset", choices=PRESET_NAMES)
    p_ratios.add_argument("sparsity", type=float)
    p_ratios.add_argument("family", choices=FAMILIES)
    p_ratios.add_argument("--kind", default=OPTIONS["schedule"][0], choices=SCHEDULE_KINDS)
    p_ratios.add_argument("--input-shape", type=_shape_arg,
                          help="AxBxC input shape (defaults per preset)")
    p_ratios.add_argument("--classes", type=int, default=3)
    p_ratios.set_defaults(fn=_cmd_ratios)

    p_report = sub.add_parser("report", help="reformat a rows CSV")
    p_report.add_argument("rows", help="path to a rows CSV")
    p_report.add_argument("--format", default="csv", choices=("csv", "markdown-table"))
    p_report.add_argument("--out")
    p_report.set_defaults(fn=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.fn(args)
    except (PrunelabError, OSError) as exc:
        name = "FileNotFound" if isinstance(exc, FileNotFoundError) else type(exc).__name__
        print(f"error: {name}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
