"""The three benchmark workloads: experiment, train_fixed and posterior.

Each workload has a ``setup(ctx)`` that builds its inputs from the workload
seed and a ``measure(state, seconds, tracer)`` that runs one caller
in a closed loop (the next call starts when the previous one returns) until
``seconds`` have passed, always finishing the round in progress.  A round is
made of parts (the experiment's three ``lastlayer run`` calls, the four
trainers, the posterior's writes and reads); ``measure`` returns the time of
every round and of every call to each part, from which the harness derives
the end-to-end metrics every workload shares, and the workload's own named
detail metrics.  Timings are load-corrected (see loadprobe.py).
The package is driven only through its public entry points, looked up on
their modules at call time so that a traced run sees its wrappers.
"""

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import tempfile
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from lastlayer import affine, baselines, benchmarks, bll, calibration, cli, experiment, mlp
from lastlayer import training, vi

from loadprobe import LoadMeter, LoadSampler
from tracing import METHODS, TRAINER_LABELS

SPEC = mlp.MlpSpec(input_dim=1, hidden=(20, 20, 20), output_dim=2)
SPEC_DIMS = [SPEC.input_dim, *SPEC.hidden, SPEC.output_dim]
# Early stopping makes an experiment's wall time depend strongly on the
# dataset (10-19 s for seeds 0-7 on one core), so the experiment workload
# always runs the reference dataset, seed 0.
DATASET_SEED = 0
ARTIFACTS = {
    method: {
        "dataset.csv",
        "metrics.json",
        *(
            {"predictions_vi.csv", "components_vi.csv"}
            if method == "vi"
            else {
                f"{kind}_{method}_{tag}.csv"
                for kind in ("predictions", "curve")
                for tag in ("alpha_star", "alpha_max")
            }
            | {f"alpha_sweep_{method}.csv"}
        ),
    }
    for method in METHODS
}
FIXED_EPOCHS = 100
FIXTURE_EPOCHS = 400
GRID_ROWS = 10_000
SINGLE_QUERIES = 100
SWEEP_POINTS = 31


@dataclass
class Context:
    seed: int
    quick: bool
    scratch: Path
    digest_store: Path
    code_id: str


@dataclass
class Outcome:
    detail: dict = field(default_factory=dict)  # the workload's own named metrics
    unit_times: list = field(default_factory=list)  # load-corrected seconds per round
    parts: dict = field(default_factory=dict)  # part -> load-corrected seconds per call
    attempted: int = 0
    failures: list = field(default_factory=list)  # one message per failed operation
    notes: dict = field(default_factory=dict)


def _mark(tracer, run_id):
    if tracer is not None:
        tracer.mark(run_id)


def _sample(seed, sample_s):
    started = time.perf_counter()
    splits = benchmarks.sample_benchmark(benchmarks.default_benchmark(), seed)
    sample_s.append(time.perf_counter() - started)
    return splits


def _fixed_budget(seed, epochs):
    """The experiment's own loop settings with early stopping switched off."""
    cfg = experiment.ExperimentConfig(seed=seed).train_config()
    return replace(cfg, max_epochs=epochs, patience=epochs - 1)


def _fit_rows(train, cfg):
    """Rows the training objective sees after the early-stopping split."""
    return train.m - max(1, round(train.m * cfg.val_fraction))


def _finite(*arrays):
    return all(np.isfinite(np.asarray(a, dtype=float)).all() for a in arrays)


# --------------------------------------------------------------- experiment


def setup_experiment(ctx):
    sample_s = []
    splits = _sample(DATASET_SEED, sample_s)
    config = None
    if ctx.quick:
        train = asdict(experiment.ExperimentConfig().train)
        train.update(max_epochs=40, patience=20)
        config = ctx.scratch / "quick_config.json"
        config.write_text(json.dumps({"train": train}))
    return {
        "rows": sum(d.m for d in splits.values()),
        "config": config,
        "ctx": ctx,
        "sample_s": sample_s,
        "fit_rows": _fit_rows(splits["train"], experiment.ExperimentConfig().train),
    }


def _check_run(art, method, code, n_rows):
    """Output checks for one ``lastlayer run``; returns (problems, metrics)."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    files = {p.name for p in art.iterdir()}
    if files != ARTIFACTS[method]:
        problems.append(f"artifact set differs in {sorted(files ^ ARTIFACTS[method])}")
    metrics = {}
    if "metrics.json" in files:
        metrics = json.loads((art / "metrics.json").read_text())
        errors = sorted(k for k in metrics if k.startswith("errors."))
        if errors:
            problems.append(f"errors recorded: {errors}")
        numbers = {k: v for k, v in metrics.items() if k != "provenance"}
        bad = sorted(k for k, v in numbers.items() if not isinstance(v, float) or not math.isfinite(v))
        if bad:
            problems.append(f"non-finite or non-numeric metrics: {bad}")
    if "dataset.csv" in files:
        written = (art / "dataset.csv").read_bytes().count(b"\n") - 1
        if written != n_rows:
            problems.append(f"dataset.csv has {written} rows, expected {n_rows}")
    return problems, metrics


def _digest(art):
    """sha256 over every artifact file, by name then content; plus csv bytes and rows."""
    h = hashlib.sha256()
    csv_bytes = csv_rows = 0
    for path in sorted(art.iterdir()):
        data = path.read_bytes()
        h.update(path.name.encode() + b"\0" + data + b"\0")
        if path.suffix == ".csv":
            csv_bytes += len(data)
            csv_rows += data.count(b"\n") - 1
    return h.hexdigest(), csv_bytes, csv_rows


def _compare_stored_digests(ctx, digests):
    """Compare with digests an earlier run of the same code recorded; add new ones."""
    store = json.loads(ctx.digest_store.read_text()) if ctx.digest_store.exists() else {}
    known = store.setdefault(ctx.code_id, {})
    mismatched = sorted(k for k, v in digests.items() if known.setdefault(k, v) != v)
    tmp = ctx.digest_store.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    os.replace(tmp, ctx.digest_store)
    return mismatched


def _run_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def measure_experiment(state, seconds, tracer=None):
    out = Outcome()
    ctx = state["ctx"]
    extra = ["--config", str(state["config"])] if state["config"] else []
    units = []  # (pass, method, seconds, load)
    digests, lpd = {}, None
    csv_bytes = csv_rows = 0
    sampler = LoadSampler()
    started = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - started < seconds:
        for method in METHODS:
            # Each run starts from a collected heap, whatever ran before it.
            gc.collect()
            _mark(tracer, f"pass{passes}/{method}")
            out.attempted += 1
            art = Path(tempfile.mkdtemp(dir=ctx.scratch))
            argv = ["run", "--seed", str(DATASET_SEED), "--out", str(art), "--methods", method]
            try:
                code, took, load = sampler.timed(lambda: _run_cli(argv + extra))
                problems, metrics = _check_run(art, method, code, state["rows"])
                digest, n_bytes, n_rows = _digest(art)
            except Exception as err:  # noqa: BLE001 - a failed run is counted, the loop goes on
                out.failures.append(f"{method}: {type(err).__name__}: {err}")
                continue
            finally:
                shutil.rmtree(art)
            if digests.setdefault(method, digest) != digest:
                problems.append("artifact digest differs between passes")
            if problems:
                out.failures.append(f"{method}: {'; '.join(problems)}")
            units.append((passes, method, took, load))
            csv_bytes, csv_rows = csv_bytes + n_bytes, csv_rows + n_rows
            if method == "bll" and "bll_alpha_max.test_lpd" in metrics:
                lpd = metrics["bll_alpha_max.test_lpd"]
        passes += 1
    for key in _compare_stored_digests(ctx, digests):
        out.failures.append(f"{key}: artifact digest differs from an earlier run of this code")

    times = {method: [] for method in METHODS}
    pass_totals = [0.0] * passes
    for p, method, took, load in units:
        times[method].append(took / load)
        pass_totals[p] += times[method][-1]
    for method, samples in times.items():
        if samples:
            out.detail[f"{method}_s"] = statistics.median(samples)
    if not out.failures:
        out.unit_times = pass_totals
        out.parts = times
        out.detail["run_s"] = statistics.median(pass_totals)
    if lpd is not None:
        out.detail["bll_test_exp_lpd"] = math.exp(lpd)
    out.notes = {
        "passes": passes,
        "dataset_seed": DATASET_SEED,
        "load_p50": statistics.median(sampler.loads) if sampler.loads else None,
        "raw_s_p50": {
            m: statistics.median(u[2] for u in units if u[1] == m) for m in METHODS if times[m]
        },
        "bll_test_lpd": lpd,
        "digests": digests,
        "csv_bytes": csv_bytes,
        "csv_rows": csv_rows,
    }
    return out


# -------------------------------------------------------------- train_fixed


def setup_train_fixed(ctx):
    sample_s = []
    train = _sample(ctx.seed, sample_s)["train"]
    epochs = 10 if ctx.quick else FIXED_EPOCHS
    cfg = _fixed_budget(ctx.seed, epochs)
    fit_rows = _fit_rows(train, cfg)
    return {"train": train, "cfg": cfg, "epochs": epochs, "sample_s": sample_s, "fit_rows": fit_rows}


def _check_history(label, history, epochs, reference):
    curve = history.train_objective
    if len(curve) != epochs:
        return f"{label}: ran {len(curve)} epochs, budget {epochs}"
    if not _finite(curve):
        return f"{label}: non-finite objective"
    if reference.setdefault(label, curve[-1]) != curve[-1]:
        return f"{label}: final objective differs between identical rounds"
    return None


def measure_train_fixed(state, seconds, tracer=None):
    out = Outcome()
    train, cfg, epochs = state["train"], state["cfg"], state["epochs"]
    units = []  # (round, trainer, seconds, load)
    sampler = LoadSampler()
    reference = {}
    started = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - started < seconds:
        _mark(tracer, f"round{rounds}")
        results = {}
        steps = [
            ("bll", lambda: training.train(SPEC, train, cfg)),
            ("mse", lambda: baselines.train_mse(SPEC, train, cfg)),
            ("blr", lambda: baselines.blr_fit(results["mse"][0], train, cfg)),
            ("vi", lambda: vi.vi_train(SPEC, train, cfg)),
        ]
        for label, call in steps:
            out.attempted += 1
            try:
                results[label], took, load = sampler.timed(call)
            except Exception as err:  # noqa: BLE001
                out.failures.append(f"round {rounds} {label}: {type(err).__name__}: {err}")
                break
            units.append((rounds, label, took, load))
            model, history = results[label]
            problem = _check_history(label, history, epochs, reference)
            if problem is None and label != "mse" and not _finite(model.sigma_e):
                problem = f"{label}: non-finite noise scale"
            if problem:
                out.failures.append(f"round {rounds} {problem}")
        rounds += 1

    times = {label: [] for label in TRAINER_LABELS}
    round_totals = [0.0] * rounds
    for r, label, took, load in units:
        times[label].append(took / load)
        round_totals[r] += times[label][-1]
    for label, samples in times.items():
        if samples:
            out.detail[f"epoch_us.{label}"] = statistics.median(samples) / epochs * 1e6
    out.unit_times = round_totals
    out.parts = times
    out.notes = {
        "rounds": rounds,
        "epochs_per_trainer": epochs,
        "load_p50": statistics.median(sampler.loads) if sampler.loads else None,
        "raw_epoch_us_p50": {
            t: statistics.median(u[2] for u in units if u[1] == t) / epochs * 1e6
            for t in TRAINER_LABELS
            if times[t]
        },
    }
    return out


# ---------------------------------------------------------------- posterior


def setup_posterior(ctx):
    sample_s = []
    splits = _sample(ctx.seed, sample_s)
    cfg = _fixed_budget(ctx.seed, 20 if ctx.quick else FIXTURE_EPOCHS)
    model, _ = training.train(SPEC, splits["train"], cfg)
    lo, hi = splits["test"].x.min(), splits["test"].x.max()
    grid = np.linspace(lo, hi, 500 if ctx.quick else GRID_ROWS).reshape(-1, 1)
    n_single = 5 if ctx.quick else SINGLE_QUERIES
    queries = np.random.default_rng(ctx.seed).uniform(lo, hi, (n_single, 1))
    # Feature rows of the queries for the affine-cost reads (the weights are
    # shared by every alpha the writes produce).
    query_phi = mlp.features(model.params, model.x_scaler.transform(queries))[:, :-1]
    search = calibration.AlphaSearchConfig()
    log_grid = np.linspace(model.hyper.log_alpha, model.hyper.log_alpha + search.span, SWEEP_POINTS)
    return {
        "splits": splits,
        "model": model,
        "grid": grid,
        "queries": queries,
        "query_phi": query_phi,
        "search": search,
        "log_grid": log_grid,
        "sample_s": sample_s,
        "fit_rows": _fit_rows(splits["train"], cfg),
    }


def _dist_ok(mean, var_y, var_t):
    return _finite(mean, var_y, var_t) and (var_y > 0).all() and (var_t > var_y).all()


def _posterior_round(state):
    """One round of writes then reads; returns (outputs, per-operation seconds)."""
    model, splits = state["model"], state["splits"]
    clock = time.perf_counter
    t0 = clock()
    alpha_max, tuned = calibration.tune_alpha(model, splits["val"], state["search"])
    t1 = clock()
    sweep = calibration.alpha_sweep(model, splits["train"], splits, state["log_grid"])
    t2 = clock()
    batch = bll.predict_batch(tuned, state["grid"])
    t3 = clock()
    dists, one_s = [], []
    for x in state["queries"]:
        start = clock()
        dists.append(bll.predict(tuned, x))
        one_s.append(clock() - start)
    train_phi = tuned.phi[:, :-1]
    costs, score_s = [], []
    for phi in state["query_phi"]:
        start = clock()
        costs.append(affine.affine_cost_closed(train_phi, phi, tuned.alpha))
        score_s.append(clock() - start)
    outputs = (alpha_max, tuned, sweep, batch, dists, costs)
    return outputs, (t1 - t0, t2 - t1, t3 - t2, one_s, score_s)


def _check_round(state, outputs):
    alpha_max, tuned, sweep, batch, dists, costs = outputs
    model, span = state["model"], state["search"].span
    lo, hi = model.alpha, model.alpha * math.exp(span)
    problems = []
    if not lo * (1 - 1e-12) <= alpha_max <= hi * (1 + 1e-9) or tuned.alpha != alpha_max:
        problems.append(f"tune_alpha returned {alpha_max} outside [{lo}, {hi}]")
    if len(sweep) != SWEEP_POINTS or not all(_finite(list(r.values())) for r in sweep):
        problems.append("alpha_sweep rows missing or non-finite")
    if not _dist_ok(*batch):
        problems.append("predict_batch output non-finite or var_t > var_y > 0 violated")
    problems += [
        f"predict at {x[0]}: bad output"
        for x, d in zip(state["queries"], dists)
        if not _dist_ok(d.mean, d.var_y, d.var_t)
    ]
    problems += [f"affine cost {c} not positive" for c in costs if not c > 0.0]
    # With gamma = alpha the affine cost equals var_y / sigma_e^2.
    ratio = dists[0].var_y[0] / tuned.sigma_e[0] ** 2
    if not math.isclose(costs[0], ratio, rel_tol=1e-6):
        problems.append(f"affine cost {costs[0]} != var_y / sigma_e^2 = {ratio}")
    return problems


def measure_posterior(state, seconds, tracer=None):
    """Writes (tune_alpha, alpha_sweep) then reads on the tuned model, per round."""
    out = Outcome()
    log = []  # per round: (seconds, load, per-operation seconds)
    meter = LoadMeter()
    started = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - started < seconds:
        _mark(tracer, f"round{rounds}")
        try:
            (outputs, op_s), took, load = meter.timed(lambda: _posterior_round(state))
        except Exception as err:  # noqa: BLE001
            out.attempted += 1
            out.failures.append(f"round {rounds}: {type(err).__name__}: {err}")
            break
        log.append((took, load, op_s))
        out.attempted += 3 + len(op_s[3]) + len(op_s[4])
        out.failures += [f"round {rounds}: {p}" for p in _check_round(state, outputs)]
        rounds += 1
    if not log:
        return out

    loads = np.array([r[1] for r in log])
    out.unit_times = [r[0] / r[1] for r in log]

    def per_round(col):
        return np.array([r[2][col] for r in log]) / loads

    def per_call(col):
        return np.concatenate([np.asarray(r[2][col]) / r[1] for r in log]) * 1e6

    one_us, score_us = per_call(3), per_call(4)
    rows = state["grid"].shape[0]
    out.parts = {
        "tune_alpha": per_round(0),
        "alpha_sweep": per_round(1),
        "predict_batch": per_round(2),
        "predict": one_us / 1e6,
        "affine_cost_closed": score_us / 1e6,
    }
    out.detail = {
        "tune_alpha_ms": float(np.median(per_round(0))) * 1e3,
        "alpha_sweep_ms": float(np.median(per_round(1))) * 1e3,
        "predict_rows_per_s": rows / float(np.median(per_round(2))),
        "predict_one_us.p50": float(np.percentile(one_us, 50)),
        "predict_one_us.p99": float(np.percentile(one_us, 99)),
        "score_one_us.p50": float(np.percentile(score_us, 50)),
    }
    out.notes = {
        "rounds": rounds,
        "load_p50": float(np.median(loads)),
        "samples": {
            "tune_alpha": rounds,
            "alpha_sweep": rounds,
            "predict_batch": rounds,
            "predict_one": one_us.size,
            "score_one": score_us.size,
        },
        "predict_batch_rows": rows,

        "raw_tune_alpha_ms_p50": float(np.median([r[2][0] for r in log])) * 1e3,
    }
    return out


# Workload -> (setup, measure, unit of each named detail metric).
WORKLOADS = {
    "experiment": (
        setup_experiment,
        measure_experiment,
        {"run_s": "s", "bll_s": "s", "blr_s": "s", "vi_s": "s", "bll_test_exp_lpd": "density"},
    ),
    "train_fixed": (
        setup_train_fixed,
        measure_train_fixed,
        {f"epoch_us.{label}": "us" for label in TRAINER_LABELS},
    ),
    "posterior": (
        setup_posterior,
        measure_posterior,
        {
            "tune_alpha_ms": "ms",
            "alpha_sweep_ms": "ms",
            "predict_rows_per_s": "1/s",
            "predict_one_us.p50": "us",
            "predict_one_us.p99": "us",
            "score_one_us.p50": "us",
        },
    ),
}
