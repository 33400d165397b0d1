"""Command line front end.

Three subcommands share one configuration pipeline: profile defaults,
then the YAML config file, then explicit flags, parsed fail-closed.
`compare` also prints the table it writes to table1_analog.csv.

Exit codes: 0 on success, 1 on any configuration problem, 2 when a seed
aborted on a non-finite loss or gradient.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

import yaml

from .envs import ENV_NAMES
from .runner import (
    METHODS,
    PROFILES,
    ConfigError,
    TrainConfig,
    compare_methods,
    config_from_dict,
    emit_scatter,
    read_metrics_csv,
    train,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moprompt",
        description="Train and compare multi-objective prompt optimization methods.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="YAML config file with nested sections")
        p.add_argument("--env", choices=ENV_NAMES, help="builtin environment name")
        p.add_argument("--seed", help="comma-separated training seeds, e.g. 0,1,2")
        p.add_argument("--steps", type=int, help="training steps per seed")
        p.add_argument("--out-dir", help="directory for metrics.csv and checkpoints")
        p.add_argument(
            "--profile",
            choices=sorted(PROFILES),
            default="desk",
            help="scale preset for steps, rollouts, and learning rate",
        )

    p_train = sub.add_parser("train", help="train one method")
    p_train.add_argument("--method", choices=METHODS, help="update rule to train")
    add_run_flags(p_train)

    p_compare = sub.add_parser("compare", help="train all four methods and tabulate")
    p_compare.add_argument("--method", help=argparse.SUPPRESS)
    add_run_flags(p_compare)

    p_scatter = sub.add_parser("scatter", help="emit objective-pair scatter files")
    p_scatter.add_argument("--out-dir", required=True, help="run directory holding metrics.csv")
    return parser


def _load_yaml(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    return data


def _build_config(args: argparse.Namespace) -> TrainConfig:
    data = _load_yaml(args.config) if args.config else {}
    if getattr(args, "method", None):
        data["method"] = args.method
    if args.env:
        data.setdefault("env", {})["name"] = args.env
    run_section = data.setdefault("run", {})
    if args.seed:
        try:
            run_section["seeds"] = [int(s) for s in args.seed.split(",")]
        except ValueError as exc:
            raise ConfigError(f"invalid --seed value {args.seed!r}") from exc
    if args.steps is not None:
        run_section["steps"] = args.steps
    if args.out_dir:
        run_section["out_dir"] = args.out_dir
    return config_from_dict(data, profile=args.profile)


def _print_table(path: str) -> None:
    """Print a CSV table with numbers to two decimals in aligned columns."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows:
        for i, cell in enumerate(row):
            try:
                row[i] = f"{float(cell):.2f}"
            except ValueError:
                pass
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "scatter":
        metrics_path = os.path.join(args.out_dir, "metrics.csv")
        try:
            records = read_metrics_csv(metrics_path)
            paths = emit_scatter(records, args.out_dir)
        except (OSError, ValueError, KeyError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {len(paths)} scatter file(s) to {args.out_dir}")
        return 0

    try:
        cfg = _build_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    if args.command == "train":
        result = train(cfg)
    else:
        result = compare_methods(cfg)

    for abort in result.aborts:
        print(
            f"seed {abort['seed']} aborted at step {abort['step']} "
            f"({abort['method']}): {abort['reason']}",
            file=sys.stderr,
        )
    if cfg.out_dir is not None:
        print(f"wrote {len(result.records)} evaluation record(s) to {cfg.out_dir}")
        if args.command == "compare":
            print()
            _print_table(os.path.join(cfg.out_dir, "table1_analog.csv"))
    return 2 if result.aborts else 0


if __name__ == "__main__":
    sys.exit(main())
