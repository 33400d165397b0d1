"""Command line front end.

`train` and `compare` share one configuration pipeline: profile defaults,
then the YAML config file, then explicit flags, which `config_from_dict`
merges and checks, failing closed.
`compare` also prints the comparison table, which it writes to
table1_analog.csv when an output directory is given. `scatter` and
`inspect` read the metrics.csv of an existing run directory.

Exit codes: 0 on success, 1 on any configuration problem (an unusable
run directory included), 2 when a seed aborted on a non-finite loss or
gradient.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np
import yaml

from .envs import ENV_NAMES
from .runner import (
    METHODS,
    PROFILES,
    ConfigError,
    TrainConfig,
    compare_methods,
    comparison_table,
    config_from_dict,
    emit_scatter,
    read_metrics_csv,
    runs,
    train,
)

__all__ = ["main", "build_parser"]

# Evaluations averaged per (method, seed) by `inspect`.
_TAIL = 5


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moprompt",
        description="Train and compare multi-objective prompt optimization methods.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p: argparse.ArgumentParser, out_dir_help: str) -> None:
        p.add_argument("--config", help="YAML config file with nested sections")
        p.add_argument("--env", choices=ENV_NAMES, help="builtin environment name")
        p.add_argument("--seed", help="comma-separated training seeds, e.g. 0,1,2")
        p.add_argument("--steps", type=int, help="training steps per seed")
        p.add_argument("--out-dir", help=out_dir_help)
        p.add_argument(
            "--profile",
            choices=sorted(PROFILES),
            default="desk",
            help="scale preset for steps, rollouts, and learning rate",
        )

    p_train = sub.add_parser("train", help="train one method")
    p_train.add_argument("--method", choices=METHODS, help="update rule to train")
    add_run_flags(p_train, "directory for metrics.csv and one checkpoint_<seed>.txt per seed")

    p_compare = sub.add_parser("compare", help="train all four methods and tabulate")
    # The four methods' checkpoint_<seed>.txt would collide, so none are written.
    add_run_flags(p_compare, "directory for metrics.csv and table1_analog.csv (no checkpoints)")

    p_scatter = sub.add_parser("scatter", help="emit objective-pair scatter files")
    p_scatter.add_argument("--out-dir", required=True, help="run directory holding metrics.csv")

    p_inspect = sub.add_parser("inspect", help="tail-averaged metrics per method and seed")
    p_inspect.add_argument("out_dir", metavar="RUN_DIR", help="run directory holding metrics.csv")
    return parser


def _load_yaml(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc


def _build_config(args: argparse.Namespace) -> TrainConfig:
    """The config file, if any, under the flags given, in the same nested format."""
    data = _load_yaml(args.config) if args.config else None
    run: dict = {}
    if args.seed:
        try:
            run["seeds"] = [int(s) for s in args.seed.split(",")]
        except ValueError as exc:
            raise ConfigError(f"invalid --seed value {args.seed!r}") from exc
    if args.steps is not None:
        run["steps"] = args.steps
    if args.out_dir:
        run["out_dir"] = args.out_dir
    flags = {"env": {"name": args.env} if args.env else None, "run": run}
    if getattr(args, "method", None):
        flags["method"] = args.method
    return config_from_dict(data, profile=args.profile, overrides=flags)


def _print_table(rows: list) -> None:
    """Print table rows in aligned columns, integers as they are and other
    numbers to two decimals."""

    def show(cell: str) -> str:
        if cell.lstrip("-").isdigit():
            return cell
        try:
            return f"{float(cell):.2f}"
        except ValueError:
            return cell

    rows = [[show(cell) for cell in row] for row in rows]
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def _tail_summary(records: list) -> list:
    """Rows of strings: a header, then per (method, seed) its number of
    evaluations and its last `_TAIL` evaluations' mean metrics, times 100."""
    if not records:
        raise ValueError("no evaluation records to inspect")
    rows = [["method", "seed", "evals", "min_objective", "product", "average", "hvi"]]
    for (method, seed), run in runs(records).items():
        tail = run[-_TAIL:]
        values = [(min(r.per_objective_means), r.expected_product, r.mean_of_means, r.hvi) for r in tail]
        means = np.mean(values, axis=0) * 100.0
        rows.append([method, str(seed), str(len(run))] + [repr(float(x)) for x in means])
    return rows


def _config_error(exc: Exception) -> int:
    print(f"config error: {exc}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command in ("scatter", "inspect"):
        try:
            records = read_metrics_csv(os.path.join(args.out_dir, "metrics.csv"))
            if args.command == "inspect":
                _print_table(_tail_summary(records))
                return 0
            paths = emit_scatter(records, args.out_dir)
        except (OSError, ValueError) as exc:
            return _config_error(exc)
        print(f"wrote {len(paths)} scatter file(s) to {args.out_dir}")
        return 0

    try:
        cfg = _build_config(args)
        result = train(cfg) if args.command == "train" else compare_methods(cfg)
    except (ConfigError, OSError) as exc:
        return _config_error(exc)

    for abort in result.aborts:
        print(
            f"seed {abort['seed']} aborted at step {abort['step']} "
            f"({abort['method']}): {abort['reason']}",
            file=sys.stderr,
        )
    if cfg.out_dir is not None:
        print(f"wrote {len(result.records)} evaluation record(s) to {cfg.out_dir}")
    if args.command == "compare":
        if cfg.out_dir is not None:
            print()
        _print_table(comparison_table(result.records))
    return 2 if result.aborts else 0


if __name__ == "__main__":
    sys.exit(main())
