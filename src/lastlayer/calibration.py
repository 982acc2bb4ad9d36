"""Predictive-density scoring and post-hoc tuning of the extrapolation penalty.

Training picks the signal-to-noise ratio alpha that maximizes the marginal
likelihood, but the training features never leave their own affine hull, so
that alpha says nothing about how fast uncertainty should grow off-hull.
``tune_alpha`` re-selects alpha to maximize the log-predictive density on
validation data while keeping every other parameter fixed; only the cached
precision factor is rebuilt.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bll import BllModel, negative_lml, predict_batch, with_alpha
from .data import Dataset

__all__ = ["AlphaSearchConfig", "alpha_sweep", "gaussian_log_density", "lpd", "tune_alpha"]

LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class AlphaSearchConfig:
    """Golden-section search over log(alpha) above the trained optimum."""

    span: float = 15.0
    max_evals: int = 60
    tol: float = 1e-3

    def __post_init__(self):
        if self.max_evals < 10:
            raise ValueError("max_evals must be at least 10")
        if self.span <= 0.0 or self.tol <= 0.0:
            raise ValueError("span and tol must be positive")


def gaussian_log_density(mean: np.ndarray, var_t: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Per-row log density of the targets ``t`` under independent Gaussians.

    The arrays broadcast to (..., m, n_y); the per-output log densities are
    summed over the last axis because the outputs are independent.
    """
    logp = -0.5 * (LOG_2PI + np.log(var_t) + (t - mean) ** 2 / var_t)
    return logp.sum(axis=-1)


def lpd(model: BllModel, data: Dataset) -> float:
    """Mean log-predictive density of the targets, averaged over samples."""
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
    """
    lo = model.hyper.log_alpha
    hi = lo + cfg.span

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
    parameters fixed) and the LPD of every dataset in ``eval_sets``.
    """
    x_std = model.x_scaler.transform(train_data.x)
    t_std = model.t_scaler.transform(train_data.t)
    train_std = Dataset(x_std, t_std)
    rows = []
    for log_alpha in np.asarray(log_alpha_grid, dtype=float):
        tuned = with_alpha(model, math.exp(log_alpha))
        row = {
            "log_alpha": float(log_alpha),
            "nlml_train": negative_lml(tuned.params, tuned.hyper, train_std),
        }
        for name, data in eval_sets.items():
            row[f"lpd_{name}"] = lpd(tuned, data)
        rows.append(row)
    return rows
