"""Span tracer and the per-layer instrumentation of the lastlayer package.

A traced run replaces public functions at the module attributes their
callers look up (``lastlayer.training.adam_step``,
``lastlayer.baselines.fit_loop``, ``lastlayer.calibration.with_alpha``, ...)
with wrappers that record one span per call.  Nothing under ``src/`` is
edited; ``instrument`` restores every original binding on exit.  Spans are
kept in memory and reduced to the per-layer metrics below when the run ends.
"""

import contextlib
import importlib
import math
import time
from collections import defaultdict

TRAINER_LABELS = ("bll", "mse", "blr", "vi")
METHODS = ("bll", "blr", "vi")

# Span name -> the "module:attribute" bindings wrapped under it.
SPANS = {
    "optim.adam_step": ["lastlayer.training:adam_step"],
    "linalg.chol_spd": [
        "lastlayer.bll:chol_spd",
        "lastlayer.affine:chol_spd",
        "lastlayer.autodiff:chol_spd",
    ],
    "bll.fit_posterior": ["lastlayer.training:fit_posterior", "lastlayer.baselines:fit_posterior"],
    "bll.negative_lml": [
        "lastlayer.training:negative_lml",
        "lastlayer.baselines:negative_lml",
        "lastlayer.calibration:negative_lml",
        "lastlayer.experiment:negative_lml",
    ],
    "mlp.forward_batch": [
        "lastlayer.mlp:forward_batch",
        "lastlayer.bll:forward_batch",
        "lastlayer.experiment:forward_batch",
    ],
    "calibration.with_alpha": ["lastlayer.calibration:with_alpha"],
    "calibration.alpha_sweep": [
        "lastlayer.calibration:alpha_sweep",
        "lastlayer.experiment:alpha_sweep",
    ],
    "calibration.lpd": ["lastlayer.calibration:lpd", "lastlayer.experiment:lpd"],
    "affine.affine_cost_closed": ["lastlayer.affine:affine_cost_closed"],
    "vi.vi_predict_batch": ["lastlayer.experiment:vi_predict_batch"],
    "data.write_csv": [
        "lastlayer.experiment:write_table_csv",
        "lastlayer.experiment:write_splits_csv",
    ],
    "benchmarks.sample_benchmark": [
        "lastlayer.experiment:sample_benchmark",
        "lastlayer.benchmarks:sample_benchmark",
    ],
    "cli.main": ["lastlayer.cli:main"],
}

# Trainer entry points; their span names label the fit_loop spans inside them.
TRAINERS = {
    "bll": ["lastlayer.training:train", "lastlayer.experiment:train"],
    "mse": ["lastlayer.baselines:train_mse", "lastlayer.experiment:train_mse"],
    "blr": ["lastlayer.baselines:blr_fit", "lastlayer.experiment:blr_fit"],
    "vi": ["lastlayer.vi:vi_train", "lastlayer.experiment:vi_train"],
}
FIT_LOOPS = ["lastlayer.training:fit_loop", "lastlayer.baselines:fit_loop", "lastlayer.vi:fit_loop"]
TUNE_ALPHA = ["lastlayer.calibration:tune_alpha", "lastlayer.experiment:tune_alpha"]
PREDICT_BATCH = [
    "lastlayer.bll:predict_batch",
    "lastlayer.calibration:predict_batch",
    "lastlayer.experiment:predict_batch",
]


class Tracer:
    """In-memory spans: [name, start, end, parent index or -1, run id]."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.run_id = ""
        self._stack = []

    def mark(self, run_id):
        self.run_id = run_id

    def wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def enclosing(self, prefix):
        """Suffix of the innermost open span whose name starts with ``prefix``."""
        for idx in reversed(self._stack):
            name = self.spans[idx][0]
            if name.startswith(prefix):
                return name[len(prefix):]
        return "other"


def _traced_fit_loop(tracer, fit_loop):
    def traced(leaves, loss_and_grads, cfg, monitor=None, post_step=None):
        label = tracer.enclosing("trainer.")
        # Timed at the callables handed to fit_loop, so the spans survive a
        # change in how the objectives compute their gradients.
        loss_and_grads = tracer.wrap(loss_and_grads, f"objective.{label}")
        if monitor is not None:
            monitor = tracer.wrap(monitor, f"monitor.{label}")
        loop = tracer.wrap(fit_loop, f"training.fit_loop.{label}")
        best, history = loop(leaves, loss_and_grads, cfg, monitor=monitor, post_step=post_step)
        tracer.counts[f"training.runs.{label}"] += 1
        tracer.counts[f"training.epochs.{label}"] += len(history.train_objective)
        tracer.counts[f"training.best_epoch.{label}"] += history.best_epoch
        return best, history

    return traced


def _traced_tune_alpha(tracer, tune_alpha, default_cfg):
    span = tracer.wrap(tune_alpha, "calibration.tune_alpha")

    def traced(model, val_data, *args, **kwargs):
        alpha_max, tuned = span(model, val_data, *args, **kwargs)
        cfg = args[0] if args else kwargs.get("cfg", default_cfg)
        offset = math.log(alpha_max) - model.hyper.log_alpha
        if offset <= cfg.tol or offset >= cfg.span - cfg.tol:
            tracer.counts["calibration.alpha_at_bound"] += 1
        return alpha_max, tuned

    return traced


def _traced_predict_batch(tracer, predict_batch):
    def counted(model, x):
        tracer.counts["bll.predict_batch_rows"] += len(x) if getattr(x, "ndim", 1) > 1 else 1
        return predict_batch(model, x)

    return tracer.wrap(counted, "bll.predict_batch")


def _counted_cholesky(tracer, cholesky):
    def counted(a, jitter=0.0):
        if jitter > 0.0:
            tracer.counts["linalg.jitter_retries"] += 1
        return cholesky(a, jitter=jitter)

    return counted


def _traced_run_experiment(tracer, run_experiment):
    def traced(config):
        name = "experiment.run." + "+".join(config.methods)
        return tracer.wrap(run_experiment, name)(config)

    return traced


@contextlib.contextmanager
def instrument(tracer):
    """Install the wrappers for the duration of the block."""
    saved = []

    def patch(binding, make):
        module_name, attr = binding.split(":")
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, make(original))

    try:
        for name, bindings in SPANS.items():
            for binding in bindings:
                patch(binding, lambda fn, n=name: tracer.wrap(fn, n))
        for label, bindings in TRAINERS.items():
            for binding in bindings:
                patch(binding, lambda fn, n=f"trainer.{label}": tracer.wrap(fn, n))
        for binding in FIT_LOOPS:
            patch(binding, lambda fn: _traced_fit_loop(tracer, fn))
        default_cfg = importlib.import_module("lastlayer.calibration").AlphaSearchConfig()
        for binding in TUNE_ALPHA:
            patch(binding, lambda fn: _traced_tune_alpha(tracer, fn, default_cfg))
        for binding in PREDICT_BATCH:
            patch(binding, lambda fn: _traced_predict_batch(tracer, fn))
        patch("lastlayer.linalg:cholesky", lambda fn: _counted_cholesky(tracer, fn))
        patch("lastlayer.cli:run_experiment", lambda fn: _traced_run_experiment(tracer, fn))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def span_stats(spans):
    """Per span name: [calls, total seconds, self seconds, child calls by name]."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = defaultdict(lambda: [0, 0.0, 0.0, defaultdict(int)])
    for i, (name, start, end, parent, _) in enumerate(spans):
        entry = stats[name]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child_time[i]
        if parent >= 0:
            stats[spans[parent][0]][3][name] += 1
    return stats


def nlml_flops(m, dims):
    """Computed FLOPs of one NLML value-and-gradient on the tape.

    ``dims`` are the layer widths from input to output.  Counts the affine
    layers and the feature gram forward and twice again backward, the
    Cholesky factor (n^3/3) and the two triangular solves against the
    identity in the log-determinant gradient (2 n^3).  Elementwise work is
    left out.
    """
    n_phi = dims[-2] + 1
    affine = sum(2 * m * (dims[i] + 1) * dims[i + 1] for i in range(len(dims) - 1))
    gram = 2 * m * n_phi * n_phi
    return 3 * (affine + gram) + n_phi**3 / 3 + 2 * n_phi**3


# Per-layer metric -> unit.  Every metric is reported on every workload; a
# layer the workload never calls reports zero.
PER_LAYER_UNITS = {
    **{f"objective.us.{t}": "us" for t in TRAINER_LABELS},
    "objective.gflops.bll": "GFLOP/s",
    **{f"monitor.us.{t}": "us" for t in TRAINER_LABELS},
    "optim.adam_us": "us",
    "optim.steps": "count",
    **{f"training.self_us.{t}": "us" for t in TRAINER_LABELS},
    **{f"training.epochs.{t}": "count" for t in TRAINER_LABELS},
    **{f"training.best_epoch.{t}": "count" for t in TRAINER_LABELS},
    **{f"training.useful_epoch_frac.{t}": "ratio" for t in TRAINER_LABELS},
    "linalg.chol_calls": "count",
    "linalg.chol_us": "us",
    "linalg.jitter_retries": "count",
    "calibration.with_alpha_us": "us",
    "calibration.tune_alpha_evals": "count",
    "calibration.alpha_at_bound": "count",
    "calibration.alpha_sweep_ms": "ms",
    "calibration.lpd_us": "us",
    "bll.predict_batch_us": "us",
    "bll.predict_batch_rows": "count",
    "bll.fit_posterior_ms": "ms",
    "bll.negative_lml_us": "us",
    "mlp.forward_batch_us": "us",
    "affine.cost_us": "us",
    "vi.predict_batch_ms": "ms",
    "data.csv_emit_ms": "ms",
    "data.csv_bytes": "bytes",
    "data.csv_rows": "count",
    **{f"experiment.self_ms.{m}": "ms" for m in METHODS},
    "cli.overhead_ms": "ms",
    "benchmarks.sample_ms": "ms",
    "trace.overhead_frac": "ratio",
}


def per_layer_metrics(tracer, extra):
    """Reduce the spans and counts of a traced run to the per-layer metrics.

    ``extra`` supplies what the harness measured itself: ``flops_bll`` (per
    objective call, or 0), ``csv_bytes`` and ``csv_rows`` (totals over the
    artifact directories written), ``sample_ms`` and ``overhead_frac``.
    """
    stats = span_stats(tracer.spans)
    counts = tracer.counts

    def calls(name):
        return stats[name][0] if name in stats else 0

    def per_call(name, scale, col=1):
        return stats[name][col] / stats[name][0] * scale if calls(name) else 0.0

    out = {}
    for t in TRAINER_LABELS:
        out[f"objective.us.{t}"] = per_call(f"objective.{t}", 1e6)
        out[f"monitor.us.{t}"] = per_call(f"monitor.{t}", 1e6)
        runs = counts[f"training.runs.{t}"]
        epochs = counts[f"training.epochs.{t}"]
        best = counts[f"training.best_epoch.{t}"]
        loop = stats[f"training.fit_loop.{t}"] if f"training.fit_loop.{t}" in stats else None
        out[f"training.self_us.{t}"] = loop[2] / epochs * 1e6 if epochs else 0.0
        out[f"training.epochs.{t}"] = epochs / runs if runs else 0.0
        out[f"training.best_epoch.{t}"] = best / runs if runs else 0.0
        out[f"training.useful_epoch_frac.{t}"] = (best + runs) / epochs if epochs else 0.0
    objective_s = stats["objective.bll"][1] if calls("objective.bll") else 0.0
    out["objective.gflops.bll"] = (
        extra["flops_bll"] * calls("objective.bll") / objective_s / 1e9 if objective_s else 0.0
    )
    out["optim.adam_us"] = per_call("optim.adam_step", 1e6)
    out["optim.steps"] = calls("optim.adam_step")
    out["linalg.chol_calls"] = calls("linalg.chol_spd")
    out["linalg.chol_us"] = per_call("linalg.chol_spd", 1e6)
    out["linalg.jitter_retries"] = counts["linalg.jitter_retries"]
    tunes = calls("calibration.tune_alpha")
    evals = stats["calibration.tune_alpha"][3]["calibration.with_alpha"] if tunes else 0
    out["calibration.with_alpha_us"] = per_call("calibration.with_alpha", 1e6)
    out["calibration.tune_alpha_evals"] = evals / tunes if tunes else 0.0
    out["calibration.alpha_at_bound"] = counts["calibration.alpha_at_bound"]
    out["calibration.alpha_sweep_ms"] = per_call("calibration.alpha_sweep", 1e3)
    out["calibration.lpd_us"] = per_call("calibration.lpd", 1e6)
    batches = calls("bll.predict_batch")
    out["bll.predict_batch_us"] = per_call("bll.predict_batch", 1e6)
    out["bll.predict_batch_rows"] = counts["bll.predict_batch_rows"] / batches if batches else 0.0
    out["bll.fit_posterior_ms"] = per_call("bll.fit_posterior", 1e3)
    out["bll.negative_lml_us"] = per_call("bll.negative_lml", 1e6)
    out["mlp.forward_batch_us"] = per_call("mlp.forward_batch", 1e6)
    out["affine.cost_us"] = per_call("affine.affine_cost_closed", 1e6)
    out["vi.predict_batch_ms"] = per_call("vi.vi_predict_batch", 1e3)
    runs = sum(calls(f"experiment.run.{m}") for m in METHODS)
    csv_s = stats["data.write_csv"][1] if calls("data.write_csv") else 0.0
    out["data.csv_emit_ms"] = csv_s / runs * 1e3 if runs else 0.0
    out["data.csv_bytes"] = extra["csv_bytes"] / runs if runs else 0.0
    out["data.csv_rows"] = extra["csv_rows"] / runs if runs else 0.0
    for m in METHODS:
        out[f"experiment.self_ms.{m}"] = per_call(f"experiment.run.{m}", 1e3, col=2)
    out["cli.overhead_ms"] = per_call("cli.main", 1e3, col=2)
    out["benchmarks.sample_ms"] = extra["sample_ms"]
    out["trace.overhead_frac"] = extra["overhead_frac"]
    return {name: float(out[name]) for name in PER_LAYER_UNITS}


def layer_table(tracer):
    """Human-readable rows: span name, calls, total ms, self ms."""
    stats = span_stats(tracer.spans)
    lines = [f"{'span':<34}{'calls':>10}{'total_ms':>14}{'self_ms':>14}"]
    for name in sorted(stats, key=lambda n: -stats[n][2]):
        n_calls, total, self_s, _ = stats[name]
        lines.append(f"{name:<34}{n_calls:>10}{total * 1e3:>14.1f}{self_s * 1e3:>14.1f}")
    return "\n".join(lines)
