"""Ten-seed reproduction report: the default run on seeds 0-9, written as JSON.

Runs ``run_experiment`` at the default configuration for each seed.  For
each seed and method the report holds every variant's LPD and MSE on each
split, the noise scales, alpha* and alpha_max, whether alpha_max sits at its
search bound, the best test LPD on the alpha-sweep grid, and the sha256 of
every artifact file.  A summary gives the per-variant medians of the test
LPD over the seeds.  Nothing in it depends on the wall clock, so two
checkouts that train the same floats write the same report.

Each seed runs a second time with every initial weight moved one ulp up
(``np.nextafter``).  The entry's ``nudge_spread`` holds how far that moved
each judged figure: every variant's test LPD, the noise scales, and log
alpha* and log alpha_max.  ``band`` holds each figure's largest spread over
the seeds, the float-order noise a float-moving change's per-seed drift is
read against.

Given the report of a parent commit, it also prints each judged figure's
drift (this report minus the parent's) per seed as a Markdown table, with
the largest absolute drift and both reports' bands.

Usage, from the repository root:

    PYTHONPATH=src python tests/seed_report.py SEEDS.json [--parent PARENT.json]

pytest does not collect this file.
"""

import argparse
import contextlib
import csv
import hashlib
import json
import math
import statistics
import sys
import tempfile
from pathlib import Path

import numpy as np

from lastlayer import mlp
from lastlayer.data import SPLITS
from lastlayer.experiment import ExperimentConfig, run_experiment

SEEDS = range(10)


def _scores(metrics: dict, variant: str) -> dict:
    return {
        f"{split}_{kind}": metrics[f"{variant}.{split}_{kind}"]
        for split in SPLITS
        for kind in ("lpd", "mse")
    }


def _sigma_e(metrics: dict, method: str) -> list[float]:
    sigmas, j = [], 0
    while f"{method}.sigma_e_{j}" in metrics:
        sigmas.append(metrics[f"{method}.sigma_e_{j}"])
        j += 1
    return sigmas


def _best_sweep_lpd_test(path: Path) -> float:
    with open(path, newline="") as fh:
        return max(float(row["lpd_test"]) for row in csv.DictReader(fh))


def seed_entry(seed: int, out_dir: Path) -> dict:
    """One default run and what the report keeps of it."""
    metrics, _ = run_experiment(ExperimentConfig(seed=seed, out_dir=str(out_dir)))
    entry = {}
    for method in ("bll", "blr"):
        if f"{method}.alpha_star" not in metrics:
            continue
        entry[method] = {
            "variants": {
                tag: _scores(metrics, f"{method}_{tag}") for tag in ("alpha_star", "alpha_max")
            },
            "sigma_e": _sigma_e(metrics, method),
            "alpha_star": metrics[f"{method}.alpha_star"],
            "alpha_max": metrics[f"{method}.alpha_max"],
            "alpha_max_at_bound": metrics[f"{method}.alpha_max_at_bound"] == 1.0,
            "best_sweep_lpd_test": _best_sweep_lpd_test(out_dir / f"alpha_sweep_{method}.csv"),
        }
    if "vi.test_lpd" in metrics:
        entry["vi"] = {
            "variants": {"vi": _scores(metrics, "vi")},
            "sigma_e": _sigma_e(metrics, "vi"),
        }
    entry["errors"] = {k: v for k, v in metrics.items() if k.startswith("errors.")}
    entry["artifacts"] = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
    }
    return entry


def judged_figures(entry: dict) -> dict:
    """The figures a float-moving change's drift is judged on, flat; alphas as their logs."""
    figures = {}
    for method in ("bll", "blr", "vi"):
        if method not in entry:
            continue
        for tag, scores in entry[method]["variants"].items():
            name = tag if method == "vi" else f"{method}_{tag}"
            figures[f"{name}.test_lpd"] = scores["test_lpd"]
        for j, sigma in enumerate(entry[method]["sigma_e"]):
            figures[f"{method}.sigma_e_{j}"] = sigma
        for tag in ("alpha_star", "alpha_max"):
            if tag in entry[method]:
                figures[f"{method}.log_{tag}"] = math.log(entry[method][tag])
    return figures


@contextlib.contextmanager
def nudged_init():
    """Every ``lastlayer`` module that binds ``mlp.init_params`` gets weights one ulp up."""
    original = mlp.init_params

    def init_params(spec, rng):
        params = original(spec, rng)
        return mlp.MlpParams(tuple(np.nextafter(w, np.inf) for w in params.weights))

    modules = [
        module
        for name, module in sys.modules.items()
        if name.startswith("lastlayer") and getattr(module, "init_params", None) is original
    ]
    for module in modules:
        module.init_params = init_params
    try:
        yield
    finally:
        for module in modules:
            module.init_params = original


def summary(seeds: dict) -> dict:
    """Medians over the seeds of the figures acceptance criterion 5 reports on seeds 0-2.

    Those are each variant's test LPD, bll's test-LPD gain from alpha* to
    alpha_max and bll's noise scales.
    """
    columns = {}
    for entry in seeds.values():
        for method in ("bll", "blr", "vi"):
            for tag, scores in entry.get(method, {}).get("variants", {}).items():
                name = tag if method == "vi" else f"{method}_{tag}"
                columns.setdefault(f"{name}.test_lpd", []).append(scores["test_lpd"])
        if "bll" in entry:
            bll = entry["bll"]
            lpds = {tag: scores["test_lpd"] for tag, scores in bll["variants"].items()}
            gain = lpds["alpha_max"] - lpds["alpha_star"]
            columns.setdefault("bll.gain", []).append(gain)
            for j, sigma in enumerate(bll["sigma_e"]):
                columns.setdefault(f"bll.sigma_e_{j}", []).append(sigma)
    return {f"{name}_median": statistics.median(v) for name, v in columns.items()}


def _figure_label(name: str) -> str:
    """``bll_alpha_max.test_lpd`` -> ``bll test LPD, α_max``, and so on."""
    head, _, figure = name.partition(".")
    method, _, tag = head.partition("_")
    tags = {"alpha_star": "α*", "alpha_max": "α_max"}
    if figure == "test_lpd":
        return f"{method} test LPD" + (f", {tags[tag]}" if tag else "")
    if figure.startswith("sigma_e_"):
        return f"{method} σ_e,{figure.removeprefix('sigma_e_')}"
    if figure.startswith("log_"):
        return f"{method} ln {tags[figure.removeprefix('log_')]}"
    return name


def _signed(value: float) -> str:
    """A drift at three decimals, in exponent form when it rounds to zero; 0 only when exact."""
    if value == 0.0:
        return "0"
    size = abs(value)
    return ("−" if value < 0 else "+") + (f"{size:.3f}" if size >= 5e-4 else f"{size:.1e}")


def drift_table(parent: dict, change: dict) -> str:
    """The per-seed drift (change − parent) of every judged figure as a Markdown table."""
    seeds = [s for s in change["seeds"] if s in parent["seeds"]]
    drifts = {}
    for seed in seeds:
        old = judged_figures(parent["seeds"][seed])
        for name, value in judged_figures(change["seeds"][seed]).items():
            if name in old:
                drifts.setdefault(name, {})[seed] = value - old[name]

    def rank(name):
        """Test LPDs, then noise scales, then alphas; bll, blr, vi; alpha* before alpha_max."""
        head, _, figure = name.partition(".")
        kind = next(i for i, k in enumerate(("test_lpd", "sigma_e", "log_alpha")) if k in figure)
        return kind, ("bll", "blr", "vi").index(head.partition("_")[0]), "alpha_max" in name, name

    order = sorted(drifts, key=rank)
    lines = [
        "| drift (change − parent) | " + " | ".join(seeds) + " | max abs | band, parent | band, change |",
        "| --- |" + " --- |" * (len(seeds) + 3),
    ]
    for name in order:
        row = [_signed(drifts[name][s]) if s in drifts[name] else "—" for s in seeds]
        worst = max(abs(d) for d in drifts[name].values())
        bands = [report.get("band", {}).get(name) for report in (parent, change)]
        row += [_signed(worst).lstrip("+")] + ["—" if b is None else f"{b:.3f}" for b in bands]
        lines.append(f"| {_figure_label(name)} | " + " | ".join(row) + " |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="path of the JSON report to write")
    parser.add_argument("--parent", help="a parent commit's report to print the drift against")
    args = parser.parse_args(argv)
    parent = None
    if args.parent:
        with open(args.parent) as fh:
            parent = json.load(fh)
    seeds = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            entry = seed_entry(seed, Path(tmp) / f"seed{seed}")
            with nudged_init():
                nudged = judged_figures(seed_entry(seed, Path(tmp) / f"nudged{seed}"))
            entry["nudge_spread"] = {
                name: abs(nudged[name] - value) for name, value in judged_figures(entry).items()
            }
            seeds[str(seed)] = entry
    band = {
        name: max(entry["nudge_spread"][name] for entry in seeds.values())
        for name in seeds["0"]["nudge_spread"]
    }
    report = {
        "config": "ExperimentConfig() defaults",
        "seeds": seeds,
        "summary": summary(seeds),
        "band": band,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(report["summary"], indent=2, sort_keys=True))
    if parent is not None:
        print(drift_table(parent, report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
