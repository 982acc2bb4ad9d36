"""End-to-end experiment runs and artifact emission.

A run trains the selected methods on one dataset, tunes the extrapolation
penalty where applicable, scores every split, and writes deterministic
artifacts: a flat metrics JSON (keyed ``method.metric`` plus a provenance
block), per-point prediction CSVs aligned with the dataset rows, dense
prediction curves for plotting (single-input datasets), and alpha-sweep
tables.  Timing is printed to stdout only so that files are byte-identical
across reruns.
"""

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .affine import affine_cost_closed
from .baselines import blr_fit, train_mse
from .benchmarks import default_benchmark, sample_benchmark, toy_three_point
from .bll import BllModel, negative_lml, predict_batch, with_alpha
from .calibration import AlphaSearchConfig, alpha_sweep, gaussian_log_density, lpd, tune_alpha
from .data import SPLITS, Dataset, check_integers, column_names, read_splits_csv, write_splits_csv
from .data import write_table_csv
from .mlp import MlpSpec, forward_batch
from .rng import make_rng
from .training import TrainConfig, train
from .vi import gmm_log_density, vi_predict_batch, vi_train

__all__ = ["ExperimentConfig", "config_hash", "run_experiment", "toy_feature_demo"]

METHODS = ("bll", "blr", "vi")  # the order every run takes
VI_PREDICT_SAMPLES = 100


def benchmark_train_config() -> TrainConfig:
    """Benchmark-tuned loop settings (declared defaults, not method constants)."""
    return TrainConfig(lr=2e-3, patience=1000, init_log_sigma_e=math.log(0.3))


@dataclass(frozen=True)
class ExperimentConfig:
    methods: tuple[str, ...] = METHODS  # stored in METHODS order, without repeats
    seed: int = 0
    out_dir: str = "out"
    dataset_path: str | None = None  # generated on the fly when None
    hidden: tuple[int, ...] = (20, 20, 20)
    train: TrainConfig = field(default_factory=benchmark_train_config)
    alpha_search: AlphaSearchConfig = field(default_factory=AlphaSearchConfig)
    sweep_points: int = 31

    def __post_init__(self):
        if not isinstance(self.methods, (list, tuple)) or not all(
            isinstance(name, str) for name in self.methods
        ):
            raise TypeError(f"methods must be a list of method names, got {self.methods!r}")
        if not isinstance(self.out_dir, str):
            raise TypeError(f"out_dir must be a string, got {self.out_dir!r}")
        if not isinstance(self.dataset_path, (str, type(None))):
            raise TypeError(f"dataset_path must be a string, got {self.dataset_path!r}")
        if not isinstance(self.hidden, (list, tuple)):
            raise TypeError(f"hidden must be a list of layer widths, got {self.hidden!r}")
        object.__setattr__(self, "hidden", tuple(self.hidden))
        check_integers(seed=self.seed, sweep_points=self.sweep_points)
        for width in self.hidden:
            check_integers(hidden_width=width)
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError(f"unknown methods: {sorted(unknown)}")
        if not self.methods:
            raise ValueError("at least one method must be selected")
        object.__setattr__(self, "methods", tuple(m for m in METHODS if m in self.methods))
        if self.sweep_points < 2:
            raise ValueError("sweep_points must be at least 2")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")

    def train_config(self) -> TrainConfig:
        """Loop settings with the experiment seed threaded through."""
        return replace(self.train, seed=self.seed)


def config_from_dict(raw: dict) -> ExperimentConfig:
    raw = dict(raw)
    if "train" in raw:
        train = {**raw["train"]}  # a block that is not a mapping is a TypeError here
        seed = raw.get("seed", ExperimentConfig.seed)
        # The run seed seeds training, so a train seed equal to it is not stored.
        if train.pop("seed", seed) != seed:
            raise ValueError(
                f"train.seed differs from the run seed {seed}; use the top-level seed or --seed"
            )
        raw["train"] = replace(benchmark_train_config(), **train)
    if "alpha_search" in raw:
        raw["alpha_search"] = AlphaSearchConfig(**raw["alpha_search"])
    return ExperimentConfig(**raw)


def config_hash(config: ExperimentConfig) -> str:
    """Hash of everything that influences results (output location excluded).

    A dataset file enters by the sha256 of its bytes, not by its path.
    """
    payload = asdict(config)
    payload.pop("out_dir")
    if config.dataset_path is not None:
        payload["dataset_path"] = hashlib.sha256(Path(config.dataset_path).read_bytes()).hexdigest()
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def prepare_dataset(config: ExperimentConfig) -> tuple[dict[str, Dataset], MlpSpec, Path]:
    """Read or sample the splits, shape the network, write ``<out_dir>/dataset.csv``.

    Returns the splits, the network shape and the output directory.  Inputs
    are checked before the directory is made, so a bad one writes nothing.
    """
    if config.dataset_path is not None:
        path = Path(config.dataset_path)
        if not path.exists():
            raise FileNotFoundError(f"dataset file not found: {path}")
        try:
            splits = read_splits_csv(path)
        except (OSError, UnicodeDecodeError) as err:
            raise ValueError(f"cannot read dataset file {path}: {err}") from err
    else:
        splits = sample_benchmark(default_benchmark(), config.seed)
    for required in SPLITS:
        if required not in splits:
            raise ValueError(f"dataset is missing the {required!r} split")
    spec = MlpSpec(
        input_dim=splits["train"].n_x, hidden=config.hidden, output_dim=splits["train"].n_y
    )
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_splits_csv(out_dir / "dataset.csv", splits)
    return splits, spec, out_dir


def _write_predictions(path, x, mean, var_y, var_t) -> None:
    """One row per input: the inputs, predictive means and both spreads."""
    header = column_names("x", x.shape[1]) + [
        name for part in ("mean", "sd_y", "sd_t") for name in column_names(part, mean.shape[1])
    ]
    write_table_csv(path, header, np.hstack([x, mean, np.sqrt(var_y), np.sqrt(var_t)]))


def _write_alpha_sweep(path, model: BllModel, splits, span: float, points: int) -> list[dict]:
    """Objective and per-split LPD over ``points`` log-alphas above the trained one."""
    log_grid = np.linspace(model.hyper.log_alpha, model.hyper.log_alpha + span, points)
    rows = alpha_sweep(model, splits["train"], splits, log_grid)
    write_table_csv(path, list(rows[0].keys()), np.array([list(r.values()) for r in rows]))
    return rows


def _nlml_on(model: BllModel, data: Dataset) -> float:
    std = Dataset(model.x_scaler.transform(data.x), model.t_scaler.transform(data.t))
    return negative_lml(model.params, model.hyper, std)


def _stack_all(splits: dict[str, Dataset]) -> Dataset:
    xs = np.concatenate([splits[k].x for k in SPLITS])
    ts = np.concatenate([splits[k].t for k in SPLITS])
    return Dataset(xs, ts)


def _score(tag, splits, mean, log_density, metrics) -> None:
    """Per-split LPD and MSE from per-row arrays over the stacked splits."""
    start = 0
    for name in SPLITS:
        seg = slice(start, start + splits[name].m)
        start = seg.stop
        metrics[f"{tag}.{name}_lpd"] = float(log_density[seg].mean())
        metrics[f"{tag}.{name}_mse"] = float(np.mean((splits[name].t - mean[seg]) ** 2))


def _timed_fit(fits, label, trainer, *args):
    """``trainer(*args)``, which returns (result, history); appends (label, history, seconds)."""
    started = time.perf_counter()
    result, history = trainer(*args)
    fits.append((label, history, time.perf_counter() - started))
    return result, history


def _run_lml_method(name, config, train_cfg, spec, splits, everything, out_dir, metrics):
    """Shared flow for the two marginal-likelihood methods (joint and frozen).

    Trainers are looked up in this module at call time, so they can be replaced on it.
    Returns each fit's (label, history, seconds).
    """
    fits = []
    if name == "bll":
        model_star, _ = _timed_fit(fits, "bll", train, spec, splits["train"], train_cfg)
    else:  # blr: Bayesian linear regression on the frozen features of an mse network
        mse_params, _ = _timed_fit(fits, "mse", train_mse, spec, splits["train"], train_cfg)
        model_star, _ = _timed_fit(fits, "blr", blr_fit, mse_params, splits["train"], train_cfg)
    search = config.alpha_search
    alpha_max, model_max = tune_alpha(model_star, splits["val"], search)
    metrics[f"{name}.alpha_star"] = model_star.alpha
    metrics[f"{name}.alpha_max"] = alpha_max
    sweep = _write_alpha_sweep(
        out_dir / f"alpha_sweep_{name}.csv", model_star, splits, search.span, config.sweep_points
    )
    # At the bound when the top of the search span (the sweep's last row, as
    # linspace ends at exactly its stop) scores at least as well as the chosen
    # alpha, whether or not max_evals stopped the search short of it.
    at_bound = sweep[-1]["lpd_val"] >= lpd(model_max, splits["val"])
    metrics[f"{name}.alpha_max_at_bound"] = float(at_bound)
    for j, sig in enumerate(model_star.sigma_e):
        metrics[f"{name}.sigma_e_{j}"] = float(sig)
    metrics[f"{name}.wbar_gap"] = model_star.wbar_gap

    for tag, model in (("alpha_star", model_star), ("alpha_max", model_max)):
        variant = f"{name}_{tag}"
        mean, var_y, var_t = predict_batch(model, everything.x)
        metrics[f"{variant}.train_nlml"] = _nlml_on(model, splits["train"])
        _score(variant, splits, mean, gaussian_log_density(mean, var_t, everything.t), metrics)
        _write_predictions(out_dir / f"predictions_{variant}.csv", everything.x, mean, var_y, var_t)
        if everything.n_x == 1:  # a dense curve over one input; no single axis exists otherwise
            grid = np.linspace(splits["test"].x.min(), splits["test"].x.max(), 400).reshape(-1, 1)
            _write_predictions(out_dir / f"curve_{variant}.csv", grid, *predict_batch(model, grid))
    return fits


def _run_vi(config, train_cfg, spec, splits, everything, out_dir, metrics):
    """vi's flow; returns its one fit's (label, history, seconds)."""
    fits = []
    model, history = _timed_fit(fits, "vi", vi_train, spec, splits["train"], train_cfg)
    metrics["vi.train_nlml"] = history.train_objective[history.best_epoch]
    for j, sig in enumerate(model.sigma_e):
        metrics[f"vi.sigma_e_{j}"] = float(sig)

    rng = make_rng(config.seed + 7)
    means, noise_var = vi_predict_batch(model, everything.x, VI_PREDICT_SAMPLES, rng)
    for j, var in enumerate(noise_var):
        metrics[f"vi.noise_var_{j}"] = float(var)
    mean, var_y = means.mean(axis=0), means.var(axis=0)
    _score("vi", splits, mean, gmm_log_density(means, noise_var, everything.t), metrics)
    _write_predictions(out_dir / "predictions_vi.csv", everything.x, mean, var_y, var_y + noise_var)

    comp_header = column_names("x", everything.n_x) + [
        f"mean_{j}_c{c}" for c in range(VI_PREDICT_SAMPLES) for j in range(everything.n_y)
    ]
    per_row = means.transpose(1, 0, 2).reshape(everything.m, -1)  # component-major columns
    write_table_csv(out_dir / "components_vi.csv", comp_header, np.hstack([everything.x, per_row]))
    return fits


def _time_line(name: str, fits, seconds: float) -> str:
    """Each fit's epochs, best epoch and stop reason, then training time against the rest."""
    described = ", ".join(
        f"{label} {len(h.train_objective)} epochs (best {h.best_epoch}, stopped on {h.stop_reason})"
        for label, h, _ in fits
    )
    training = sum(s for _, _, s in fits)
    return f"{name}: {described}; {training:.2f} s training, {seconds - training:.2f} s the rest"


def run_experiment(config: ExperimentConfig) -> tuple[dict, int]:
    """Run every selected method; returns (metrics, exit_code).

    Per-method failures are recorded under ``errors.<method>`` and the run
    continues; exit code 2 flags a partial failure.
    """
    splits, spec, out_dir = prepare_dataset(config)
    everything = _stack_all(splits)
    train_cfg = config.train_config()
    metrics: dict = {}
    errors: dict[str, str] = {}

    for name in config.methods:
        started = time.perf_counter()
        try:
            if name == "vi":
                fits = _run_vi(config, train_cfg, spec, splits, everything, out_dir, metrics)
            else:
                fits = _run_lml_method(
                    name, config, train_cfg, spec, splits, everything, out_dir, metrics
                )
            print(_time_line(name, fits, time.perf_counter() - started))
        except Exception as err:  # noqa: BLE001 - failures become report entries
            errors[name] = f"{type(err).__name__}: {err}"

    for name, message in errors.items():
        metrics[f"errors.{name}"] = message
    metrics["provenance"] = {
        "seed": config.seed,
        "config_hash": config_hash(config),
        "artifact_version": __version__,
    }
    with open(out_dir / "metrics.json", "w") as fh:
        json.dump(metrics, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return metrics, (2 if errors else 0)


def toy_feature_demo(seed: int, out_dir) -> dict:
    """Three-sample walkthrough: bands, feature plane, cost grid, sweep.

    Trains a two-feature network on three points, tunes alpha on wider-range
    validation data, and emits plot-ready CSVs: prediction bands at the
    trained, tuned and inflated alpha; the 2-D feature coordinates of train
    and query points; an affine-cost grid over the feature plane (with the
    training feature rows appended); and the alpha-sweep table.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    splits = toy_three_point(seed)
    cfg = TrainConfig(
        max_epochs=6000,
        patience=5999,
        seed=seed,
        val_fraction=None,
        init_log_sigma_e=math.log(0.25),
    )
    spec = MlpSpec(input_dim=1, hidden=(8, 2), output_dim=1)
    model, _ = train(spec, splits["train"], cfg)
    search = AlphaSearchConfig()
    alpha_max, model_max = tune_alpha(model, splits["val"], search)

    x_grid = np.linspace(-3.5, 3.5, 281).reshape(-1, 1)
    variants = {
        "alpha_star": model,
        "alpha_max": model_max,
        "alpha_large": with_alpha(model, alpha_max * 50.0),
    }
    for tag, mdl in variants.items():
        _write_predictions(out_dir / f"toy_predictions_{tag}.csv", x_grid, *predict_batch(mdl, x_grid))

    feats_train = model.phi[:, :-1]  # the three standardized training rows: no monitor split
    _, feats_grid = forward_batch(model.params, model.x_scaler.transform(x_grid))
    rows = [[splits["train"].x[i, 0], *feats_train[i], 1.0] for i in range(3)]
    rows += [[x_grid[i, 0], *feats_grid[i], 0.0] for i in range(x_grid.shape[0])]
    write_table_csv(
        out_dir / "toy_features.csv", ["x", "phi_0", "phi_1", "is_train"], np.array(rows)
    )

    span0 = feats_grid[:, 0].min() - 0.5, feats_grid[:, 0].max() + 0.5
    span1 = feats_grid[:, 1].min() - 0.5, feats_grid[:, 1].max() + 0.5
    g0, g1 = np.meshgrid(np.linspace(*span0, 40), np.linspace(*span1, 40))
    queries = np.concatenate([np.column_stack([g0.ravel(), g1.ravel()]), feats_train])
    cost_rows = np.array([[*q, affine_cost_closed(feats_train, q, model.alpha)] for q in queries])
    write_table_csv(out_dir / "toy_affine_grid.csv", ["phi_0", "phi_1", "cost"], cost_rows)

    _write_alpha_sweep(out_dir / "toy_alpha_sweep.csv", model, splits, search.span, 41)
    return {
        "alpha_star": model.alpha,
        "alpha_max": alpha_max,
        "files": sorted(p.name for p in out_dir.glob("toy_*.csv")),
    }
