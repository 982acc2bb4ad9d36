"""Command-line entry points.

Subcommands: ``generate`` (write a benchmark dataset), ``run`` (train the
selected methods and emit metrics, prediction and alpha-sweep artifacts),
``toy`` (the three-sample feature-space demo), ``report`` (print a metrics
table).  Exit codes: 0 on success, 2 when some methods failed but the run
completed, 1 on configuration errors.
"""

import argparse
import json
import sys
from pathlib import Path

from .benchmarks import default_benchmark, sample_benchmark
from .data import write_splits_csv
from .experiment import (
    ExperimentConfig,
    config_from_dict,
    render_metrics_table,
    run_experiment,
    toy_feature_demo,
)


class ConfigError(Exception):
    pass


def _load_config(args) -> ExperimentConfig:
    raw = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            raw = json.loads(path.read_text())
        except json.JSONDecodeError as err:
            raise ConfigError(f"config is not valid JSON: {err}") from err
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.out is not None:
        raw["out_dir"] = args.out
    if getattr(args, "methods", None):
        raw["methods"] = tuple(args.methods.split(","))
    try:
        return config_from_dict(raw)
    except (TypeError, ValueError) as err:
        raise ConfigError(str(err)) from err


def _cmd_generate(args) -> int:
    config = _load_config(args)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    splits = sample_benchmark(default_benchmark(), config.seed)
    write_splits_csv(out_dir / "dataset.csv", splits)
    print(f"wrote {out_dir / 'dataset.csv'}")
    return 0


def _cmd_run(args) -> int:
    config = _load_config(args)
    try:
        metrics, code = run_experiment(config)
    except (FileNotFoundError, ValueError) as err:
        raise ConfigError(str(err)) from err
    print(render_metrics_table(metrics))
    return code


def _cmd_toy(args) -> int:
    config = _load_config(args)
    summary = toy_feature_demo(config.seed, config.out_dir)
    print(json.dumps({k: v for k, v in summary.items() if k != "files"}, indent=2))
    print("files:", ", ".join(summary["files"]))
    return 0


def _cmd_report(args) -> int:
    path = Path(args.out or "out") / "metrics.json"
    if args.config:
        path = Path(args.config)
    if not path.exists():
        raise ConfigError(f"metrics file not found: {path}")
    metrics = json.loads(path.read_text())
    print(render_metrics_table(metrics))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lastlayer",
        description="Bayesian last layer training, calibration and benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, help_text in [
        ("generate", _cmd_generate, "write the benchmark dataset CSV"),
        ("run", _cmd_run, "train methods and emit metrics and predictions"),
        ("toy", _cmd_toy, "three-sample feature-space demo bundle"),
        ("report", _cmd_report, "print the metrics table for a finished run"),
    ]:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="JSON experiment config")
        cmd.add_argument("--seed", type=int, help="seed override")
        cmd.add_argument("--out", help="output directory override")
        if name == "run":
            cmd.add_argument("--methods", help="comma-separated subset of bll,blr,vi")
        cmd.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
