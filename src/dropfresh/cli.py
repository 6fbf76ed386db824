"""Command-line front end: train, cost, compare, export-features."""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import scheduler
from .config import (ConfigError, DataConfig, apply_preset, build_experiment_config,
                     read_config_file, PRESET_NAMES)
from .datasets import Dataset, DatasetError
from .harness import (HarnessError, _atomic_write, compare, export_features, load_dataset,
                      load_params, run_experiment_with_params, training_population,
                      write_run_outputs)


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as an exception, so ``main`` prints it as its one JSON line."""

    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message}")


def _add_config_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="key=value config file")
    parser.add_argument("--preset", choices=PRESET_NAMES,
                        help="overlay a named drop/refresh schedule")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE", default=[],
                        help="override one config key (repeatable)")


def _resolve_config(args: argparse.Namespace):
    """The file, the preset over it, then --set/--seed/--out; the preset fits their epochs."""
    values, overrides = read_config_file(args.config), {}
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    if getattr(args, "seed", None) is not None:
        overrides["run.seed"] = str(args.seed)
    if getattr(args, "out", None) is not None:
        overrides["run.out_dir"] = args.out
    values.update(overrides)
    if args.preset:
        values = {**apply_preset(values, args.preset), **overrides}
    return build_experiment_config(values)


def _fmt(value) -> str:
    return "n/a" if value is None else repr(value)


def _cmd_train(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    if cfg.out_dir is not None:  # a path that cannot be a directory fails before the run
        Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
    report, params = run_experiment_with_params(cfg)
    wrote = "-"
    if cfg.out_dir is not None:
        wrote = str(write_run_outputs(cfg.out_dir, report, params)["metrics"].parent)
    print(f"policy={cfg.policy} epochs={cfg.total_epochs} seed={cfg.run_seed} "
          f"realized_cost={report.realized_cost_ratio!r} "
          f"final_val_acc={_fmt(report.final_validation_accuracy)} out={wrote}")
    return 0


def _cmd_cost(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    population = training_population(cfg)
    rows = scheduler.trace(cfg.dar, population)
    print(*scheduler.trace_csv_lines(rows), sep="\n")
    print(repr(scheduler.cost_ratio(rows, population)))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    paths = [p for p in args.configs.split(",") if p]
    cfgs = [build_experiment_config(read_config_file(p)) for p in paths]
    out = None if args.out is None else Path(args.out)
    if out is not None and (out.is_dir() or not out.absolute().parent.is_dir()):
        raise ConfigError(f"--out {args.out}: is a directory, or its directory does not exist")
    rows = compare(cfgs)
    print("label,cost_ratio,final_accuracy,delta_accuracy")
    for row in rows:
        delta = "n/a" if row.delta_accuracy is None else f"{row.delta_accuracy:+.6f}"
        acc = "n/a" if row.final_accuracy is None else f"{row.final_accuracy:.6f}"
        print(f"{row.label},{row.cost_ratio!r},{acc},{delta}")
    if out is not None:
        _atomic_write(out, json.dumps([asdict(r) for r in rows], sort_keys=True, indent=2) + "\n")
    return 0


def _dataset_from_spec(spec: str) -> Dataset:
    """The training set of a config file's data, or all of a CSV file or IDX pair."""
    kind, _, rest = spec.partition(":")
    paths = tuple(rest.split(",", 1)) if kind == "idx" else (rest,)
    if kind == "idx" and not (len(paths) == 2 and all(paths)):
        raise ConfigError("idx data spec is idx:<image-file>,<label-file>")
    if kind == "config" and rest:
        cfg = build_experiment_config(read_config_file(rest))
        return load_dataset(cfg.data, cfg.run_seed)[0]
    if kind in ("csv", "idx") and all(paths):
        return load_dataset(DataConfig(paths=paths), 0)[0]
    raise ConfigError(
        f"--data must be csv:<file>, idx:<images>,<labels>, or config:<file>; got {spec!r}")


def _cmd_export_features(args: argparse.Namespace) -> int:
    params = load_params(args.model)
    dataset = _dataset_from_spec(args.data)
    try:
        export_features(params, dataset, args.out)
    except FloatingPointError as exc:
        raise HarnessError(f"{args.model} on {args.data}: {exc}") from exc
    print(args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dropfresh",
        description="Train small classifiers under drop-and-refresh sampling schedules.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one experiment")
    _add_config_options(p_train)
    p_train.add_argument("--seed", type=int, help="override run.seed")
    p_train.add_argument("--out", help="override run.out_dir")
    p_train.set_defaults(func=_cmd_train)

    p_cost = sub.add_parser("cost", help="print the planned schedule and its cost ratio")
    _add_config_options(p_cost)
    p_cost.set_defaults(func=_cmd_cost)

    p_cmp = sub.add_parser("compare", help="run several configs and tabulate results")
    p_cmp.add_argument("--configs", required=True,
                       help="comma-separated config files (first is the reference)")
    p_cmp.add_argument("--out", help="also write the table as JSON")
    p_cmp.set_defaults(func=_cmd_compare)

    p_exp = sub.add_parser("export-features",
                           help="write per-example embeddings from a saved model")
    p_exp.add_argument("--model", required=True, help="saved model .bin file")
    p_exp.add_argument("--data", required=True,
                       help="csv:<file> | idx:<images>,<labels> | config:<file>")
    p_exp.add_argument("--out", required=True, help="output CSV path")
    p_exp.set_defaults(func=_cmd_export_features)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, DatasetError, HarnessError, ValueError, OSError, MemoryError,
            OverflowError) as exc:
        kind = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        message = str(exc) or ("out of memory" if kind == "MemoryError" else kind)
        line = json.dumps({"error": kind, "message": message})
        print(line, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
