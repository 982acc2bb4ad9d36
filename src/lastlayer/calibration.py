"""Predictive-density scoring and post-hoc tuning of the extrapolation penalty.

Training picks the signal-to-noise ratio alpha that maximizes the marginal
likelihood, but the training features never leave their own affine hull, so
that alpha says nothing about how fast uncertainty should grow off-hull.
``tune_alpha`` re-selects alpha to maximize the log-predictive density on
validation data while keeping every other parameter fixed; every alpha
reuses the model's eigenbasis, so nothing is factored per alpha.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bll import negative_lml  # noqa: F401 - perfbench's tracer patches calibration:negative_lml
from .bll import HYPER_CLAMP, LOG_2PI, LOG_ALPHA_MAX, BllModel, nlml_head_grid, predict_batch
from .bll import predictive_variances, with_alpha
from .data import Dataset, check_integers, check_numbers
from .mlp import forward_batch

__all__ = ["AlphaSearchConfig", "alpha_sweep", "gaussian_log_density", "lpd", "tune_alpha"]

# A trained log alpha lies within HYPER_CLAMP of 0, so a search above it
# keeps exp(log alpha) finite up to this span.
MAX_SPAN = LOG_ALPHA_MAX - HYPER_CLAMP


@dataclass(frozen=True)
class AlphaSearchConfig:
    """Golden-section search over log(alpha) above the trained optimum."""

    span: float = 15.0
    max_evals: int = 60
    tol: float = 1e-3

    def __post_init__(self):
        check_integers(max_evals=self.max_evals)
        check_numbers(span=self.span, tol=self.tol)
        if self.max_evals < 10:
            raise ValueError("max_evals must be at least 10")
        for name, value in (("span", self.span), ("tol", self.tol)):
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if self.span > MAX_SPAN:
            raise ValueError(f"span must be at most {MAX_SPAN}, got {self.span!r}")


def gaussian_log_density(mean: np.ndarray, var_t: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Per-row log density of the targets ``t`` under independent Gaussians.

    The arrays broadcast to (..., n_y), such as (m, n_y) or, for a grid of
    alphas, (m, n_alpha, n_y); the per-output log densities are summed over
    the last axis because the outputs are independent.
    """
    logp = -0.5 * (LOG_2PI + np.log(var_t) + (t - mean) ** 2 / var_t)
    return logp.sum(axis=-1)


def _check_scored(model: BllModel, data: Dataset) -> None:
    if data.m == 0:
        raise ValueError("a scored dataset needs at least one row")
    data.check_widths(model.n_x, model.n_y)


def lpd(model: BllModel, data: Dataset) -> float:
    """Mean log-predictive density of the targets, averaged over samples.

    Raises:
        ValueError: if ``data`` has no rows.
        DimensionMismatch: if its inputs or targets are not the network's widths.
    """
    _check_scored(model, data)
    mean, _, var_t = predict_batch(model, data.x)
    return float(gaussian_log_density(mean, var_t, data.t).mean())


def tune_alpha(
    model: BllModel, val_data: Dataset, cfg: AlphaSearchConfig = AlphaSearchConfig()
) -> tuple[float, BllModel]:
    """Maximize validation LPD over alpha, holding everything else fixed.

    Golden-section search on log(alpha) over [log(alpha*), log(alpha*) + span].
    The validation LPD is smooth and single-peaked in log(alpha) in practice;
    if nothing beats the trained alpha the lower bound is returned unchanged.

    Returns:
        (alpha_max, retuned model). The retuned model shares the feature
        weights, output weights and noise scales with the input model.

    Raises:
        ValueError: if log(alpha*) + span exceeds ``LOG_ALPHA_MAX``, which
            only a hand-set log alpha beyond the training clamp reaches.
    """
    lo = model.hyper.log_alpha
    hi = lo + cfg.span
    if hi > LOG_ALPHA_MAX:
        raise ValueError(
            f"the search reaches log alpha {hi!r}, past LOG_ALPHA_MAX = {LOG_ALPHA_MAX!r}"
        )

    def value(log_alpha: float) -> float:
        return lpd(with_alpha(model, math.exp(log_alpha)), val_data)

    evals = 2
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = value(c), value(d)
    while evals < cfg.max_evals and (b - a) > cfg.tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = value(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = value(d)
        evals += 1
    best_log = c if fc > fd else d
    best_val = max(fc, fd)
    if best_val <= value(lo):
        best_log = lo
    alpha_max = math.exp(best_log)
    return alpha_max, with_alpha(model, alpha_max)


def alpha_sweep(
    model: BllModel,
    train_data: Dataset,
    eval_sets: dict[str, Dataset],
    log_alpha_grid: np.ndarray,
) -> list[dict[str, float]]:
    """Objective and LPD columns over a grid of log(alpha).

    Each row holds the training negative LML at that alpha (all other
    parameters fixed) and the LPD of every dataset in ``eval_sets``.  Alpha
    moves neither the network nor its features, so each row set goes
    through the network once (an eval set that is ``train_data`` reuses the
    training pass).  The objective column comes from one
    ``nlml_head_grid`` call, and each set's LPD column from one
    ``predictive_variances`` call, over the whole grid: nothing is factored.

    Raises:
        ValueError: unless the grid is 1-D and finite with every |log alpha|
            at most ``LOG_ALPHA_MAX``, or if a dataset has no rows.
        DimensionMismatch: if a dataset's inputs or targets are not the
            network's widths.
    """
    for data in (train_data, *eval_sets.values()):
        _check_scored(model, data)
    train_out = forward_batch(model.params, model.x_scaler.transform(train_data.x))
    y_train, a_train = train_out
    t_std = model.t_scaler.transform(train_data.t)
    grid = np.asarray(log_alpha_grid, dtype=float)
    nlml = nlml_head_grid(a_train, y_train, model.wbar, t_std, model.hyper.log_sigma_e, grid)
    rows = [{"log_alpha": float(v), "nlml_train": float(n)} for v, n in zip(grid, nlml)]
    # Each LPD column reads the alpha with_alpha(model, e^v) would hold, as
    # BllHyper stores log(e^v) and returns its exp.
    alphas = np.array([math.exp(math.log(math.exp(v))) for v in grid])
    for name, data in eval_sets.items():
        y, a = (
            train_out
            if data is train_data
            else forward_batch(model.params, model.x_scaler.transform(data.x))
        )
        _, var_t = predictive_variances(model, a, alphas)
        mean = model.t_scaler.inverse(y)[:, None]
        lpds = gaussian_log_density(mean, var_t, data.t[:, None]).mean(axis=0)
        for row, value in zip(rows, lpds):
            row[f"lpd_{name}"] = float(value)
    return rows
