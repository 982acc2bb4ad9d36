"""Command-line entry points.

Subcommands: ``generate`` (write a benchmark dataset), ``run`` (train the
selected methods and emit metrics, prediction and alpha-sweep artifacts),
``toy`` (the three-sample feature-space demo), ``report`` (print a metrics
table).  Only ``run`` reads a config file.  Exit codes: 0 on success, 2 when
some methods failed but the run completed, 1 on a configuration or
file-system error, which ``main`` prints as one ``error:`` line.
"""

import argparse
import json
import sys
from pathlib import Path

from .experiment import (
    ExperimentConfig,
    config_from_dict,
    prepare_dataset,
    run_experiment,
    toy_feature_demo,
)


class ConfigError(Exception):
    pass


def _read_json(path: Path, what: str) -> dict:
    """The JSON object in ``path``; a missing, unreadable or malformed file is a ConfigError."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read {what} {path}: {err}") from err
    try:
        value = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{what} is not valid JSON: {err}") from err
    if not isinstance(value, dict):
        raise ConfigError(f"{what} is not a JSON object: {path}")
    return value


def _load_config(args) -> ExperimentConfig:
    raw = {}
    if getattr(args, "config", None) is not None:
        raw = _read_json(Path(args.config), "config file")
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.out is not None:
        raw["out_dir"] = args.out
    if getattr(args, "methods", None) is not None:
        raw["methods"] = tuple(args.methods.split(","))
    try:
        return config_from_dict(raw)
    except (TypeError, ValueError) as err:
        raise ConfigError(str(err)) from err


def _cmd_generate(args) -> int:
    _, _, out_dir = prepare_dataset(_load_config(args))
    print(f"wrote {out_dir / 'dataset.csv'}")
    return 0


def _cmd_run(args) -> int:
    config = _load_config(args)
    try:
        metrics, code = run_experiment(config)
    except ValueError as err:
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
    out = ExperimentConfig.out_dir if args.out is None else args.out  # "" is the working directory
    path = Path(out) / "metrics.json"
    metrics = _read_json(path, "metrics file")
    print(render_metrics_table(metrics))
    return 0


def render_metrics_table(metrics: dict) -> str:
    """Human-readable summary of a metrics dict; a missing or non-numeric value prints ``-``."""

    def number(key, spec):
        value = metrics.get(key)
        numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
        return format(value, spec) if numeric else "-"

    groups = sorted(
        {k.split(".")[0] for k in metrics if "." in k and not k.startswith(("provenance", "errors"))}
    )
    columns = ("train_lpd", "val_lpd", "test_lpd", "test_mse")
    lines = [f"{'method':<18}" + "".join(f"{c:>12}" for c in columns)]
    for name in groups:
        if f"{name}.test_lpd" not in metrics:
            continue  # hyperparameter-only groups have their own line below
        cells = (f"{number(f'{name}.{c}', '.3f'):>12}" for c in columns)
        lines.append(f"{name:<18}" + "".join(cells))
    for name in groups:
        if f"{name}.alpha_star" in metrics:
            sigma_keys = (k for k in sorted(metrics) if k.startswith(f"{name}.sigma_e_"))
            sigmas = ", ".join(number(k, ".3f") for k in sigma_keys)
            lines.append(
                f"{name}: alpha*={number(f'{name}.alpha_star', '.3g')} "
                f"alpha_max={number(f'{name}.alpha_max', '.3g')} sigma_e=({sigmas})"
            )
    for key in sorted(metrics):
        if key.startswith("errors."):
            lines.append(f"{key}: {metrics[key]}")
    return "\n".join(lines)


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
        if name == "run":  # generate and toy read only the seed and the output directory
            cmd.add_argument("--config", help="JSON experiment config")
            cmd.add_argument("--methods", help="comma-separated subset of bll,blr,vi")
        if name != "report":  # report reads only <out>/metrics.json
            cmd.add_argument("--seed", type=int, help="seed override")
        cmd.add_argument("--out", help="output directory override")
        cmd.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
