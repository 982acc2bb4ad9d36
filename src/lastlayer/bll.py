"""Bayesian last layer core.

The output layer of the network is a Bayesian linear regression on the
learned features.  With per-output noise scales sigma_e and a shared
signal-to-noise ratio alpha, the posterior precision of the output weights
factors as sigma_e^-2 * (Phi^T Phi + alpha^-1 * I~), where I~ is the
identity with a zero in the bias position (the bias carries a flat prior).

Training minimizes the scaled negative log-marginal likelihood with the
output weights reintroduced as free variables; its stationary point in
those weights coincides with the closed-form posterior mean, so plain
gradient descent on all weights and hyperparameters recovers the
marginal-likelihood solution without a matrix inverse in the loss.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .data import Dataset, Standardizer, identity_standardizer
from .linalg import CholeskyFactor, chol_spd, logdet_pd, solve_pd
from .mlp import MlpParams, features, forward_batch, forward_layers

__all__ = [
    "BllHyper",
    "BllModel",
    "PredictiveDistribution",
    "closed_form_wbar",
    "fit_posterior",
    "masked_identity",
    "negative_lml",
    "negative_lml_grads",
    "negative_lml_marginalized",
    "precision_bar",
    "predict",
    "predict_batch",
    "with_alpha",
]

HYPER_CLAMP = 15.0


@dataclass(frozen=True)
class BllHyper:
    """Log-parameterized hyperparameters: shared alpha, per-output sigma_e."""

    log_alpha: float
    log_sigma_e: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "log_sigma_e", np.atleast_1d(np.asarray(self.log_sigma_e, dtype=float))
        )
        if not np.isfinite(self.log_alpha) or not np.isfinite(self.log_sigma_e).all():
            raise ValueError("hyperparameters must be finite")

    @property
    def alpha(self) -> float:
        return math.exp(self.log_alpha)

    @property
    def sigma_e(self) -> np.ndarray:
        return np.exp(self.log_sigma_e)


def masked_identity(n_phi: int, flat_bias: bool = True) -> np.ndarray:
    """Prior precision pattern: identity, bias entry zeroed when flat."""
    eye = np.eye(n_phi)
    if flat_bias:
        eye[-1, -1] = 0.0
    return eye


def precision_bar(phi: np.ndarray, alpha: float, flat_bias: bool = True) -> np.ndarray:
    """Noise-free posterior precision Phi^T Phi + alpha^-1 * I~.

    ``phi`` is the affine feature matrix whose last column is the bias
    column of ones; with a flat bias prior that diagonal entry receives no
    prior contribution.
    """
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    phi = np.asarray(phi, dtype=float)
    return phi.T @ phi + masked_identity(phi.shape[1], flat_bias) / alpha


def closed_form_wbar(
    phi: np.ndarray, t: np.ndarray, alpha: float, flat_bias: bool = True
) -> np.ndarray:
    """Posterior mean weights: the solution of precision_bar @ w = Phi^T t.

    The noise scale cancels between the precision and the data term, so the
    result depends only on alpha.  ``t`` may hold several target columns.
    """
    factor = chol_spd(precision_bar(phi, alpha, flat_bias))
    return solve_pd(factor, np.asarray(phi, dtype=float).T @ np.asarray(t, dtype=float))


def _nlml_head(
    a: np.ndarray,
    y: np.ndarray,
    wbar: np.ndarray,
    t: np.ndarray,
    hyper: BllHyper,
    flat_bias: bool = True,
):
    """Scaled negative LML on top of a network's last layer.

    Args:
        a: linear features, the last hidden activations (m, n_phi - 1).
        y: network outputs a @ wbar[:-1] + wbar[-1] (m, n_y).
        wbar: output-layer weights, bias in the last row.
        t: targets (m, n_y).
        hyper: alpha and the per-output noise scales.
        flat_bias: leave the bias row out of the prior.

    Returns:
        The objective value and a function giving its gradients
        (d_y, d_a, d_wbar_penalty, d_log_alpha, d_log_sigma_e); the output
        layer's data term reaches wbar through d_y.

    Raises:
        NonFiniteLoss: if the value is NaN or infinite.
    """
    m, n_y = t.shape
    phi = np.concatenate([a, np.ones((m, 1))], axis=1)
    n_phi = phi.shape[1]
    log_alpha = np.asarray(hyper.log_alpha, dtype=float)
    inv_alpha = np.exp(-log_alpha)
    prior = masked_identity(n_phi, flat_bias)
    in_prior = np.diag(prior)  # 0 on a flat bias row
    logdet, logdet_grad = ad.logdet_spd(phi.T @ phi + inv_alpha * prior)

    inv_sig2 = np.exp(-2.0 * hyper.log_sigma_e)
    resid = t - y
    misfit = np.sum(resid * resid, axis=0)
    wpen_rows = wbar * in_prior[:, None]
    wpen = np.sum(wpen_rows * wpen_rows, axis=0)

    value = float(
        0.5 * n_y * math.log(2.0 * math.pi)
        + (n_y * n_phi / (2.0 * m)) * log_alpha
        + (n_y / (2.0 * m)) * logdet
        + np.sum(hyper.log_sigma_e)
        + (0.5 / m) * np.sum(misfit * inv_sig2)
        + (0.5 / m) * (inv_alpha * np.sum(wpen * inv_sig2))
    )
    if not np.isfinite(value):
        raise ad.NonFiniteLoss(f"objective evaluated to {value}")

    def grad_fn():
        lam_inv = logdet_grad()
        d_y = (-1.0 / m) * resid * inv_sig2
        d_a = (n_y / m) * (phi @ lam_inv)[:, :-1]
        d_wbar = (inv_alpha / m) * wpen_rows * inv_sig2
        d_log_alpha = (
            n_y * n_phi / (2.0 * m)
            - (n_y / (2.0 * m)) * inv_alpha * np.sum(np.diag(lam_inv) * in_prior)
            - (0.5 / m) * inv_alpha * np.sum(wpen * inv_sig2)
        )
        d_log_sigma_e = 1.0 - (misfit + inv_alpha * wpen) * inv_sig2 / m
        return d_y, d_a, d_wbar, d_log_alpha, d_log_sigma_e

    return value, grad_fn


def negative_lml(
    params: MlpParams, hyper: BllHyper, data: Dataset, flat_bias: bool = True
) -> float:
    """Scaled negative LML with the output weights read from ``params``.

    Handles any number of outputs; with one output the multivariate sum
    collapses to the scalar form term by term.  Value only: no reverse
    pass is paid.
    """
    y, a = forward_batch(params, data.x)
    value, _ = _nlml_head(a, y, params.wbar, data.t, hyper, flat_bias)
    return value


def negative_lml_grads(params: MlpParams, hyper: BllHyper, data: Dataset):
    """Objective value and gradients for (weights, log_alpha, log_sigma_e)."""
    acts = forward_layers(params, data.x)
    value, grad_fn = _nlml_head(acts[-2], acts[-1], params.wbar, data.t, hyper)
    d_y, d_a, d_wbar, d_log_alpha, d_log_sigma_e = grad_fn()
    grads = ad.mlp_backward(params.weights, acts, d_y, d_a, params.activation)
    grads[-1] = grads[-1] + d_wbar
    return value, (grads, d_log_alpha, d_log_sigma_e)


def negative_lml_marginalized(phi: np.ndarray, t: np.ndarray, hyper: BllHyper) -> float:
    """Scaled negative LML with the output weights profiled out exactly.

    At the optimum the quadratic terms collapse to
    sigma_e^-2 * (t^T t - t^T Phi w), which this computes directly; it is
    the value the free-weight objective attains at its stationary point.
    """
    t = np.atleast_2d(np.asarray(t, dtype=float))
    if t.shape[0] == 1 and phi.shape[0] > 1:
        t = t.T
    m, n_y = t.shape
    n_phi = phi.shape[1]
    factor = chol_spd(precision_bar(phi, hyper.alpha))
    wbar = solve_pd(factor, phi.T @ t)
    quad = np.einsum("ij,ij->j", t, t) - np.einsum("ij,ij->j", phi.T @ t, wbar)
    inv_sig2 = np.exp(-2.0 * hyper.log_sigma_e)
    return float(
        0.5 * n_y * math.log(2.0 * math.pi)
        + (n_y * n_phi / (2.0 * m)) * hyper.log_alpha
        + (n_y / (2.0 * m)) * logdet_pd(factor)
        + np.sum(hyper.log_sigma_e)
        + (0.5 / m) * np.sum(quad * inv_sig2)
    )


@dataclass(frozen=True)
class PredictiveDistribution:
    """Per-output Gaussian prediction: mean, function and target variances."""

    mean: np.ndarray
    var_y: np.ndarray
    var_t: np.ndarray


@dataclass(frozen=True)
class BllModel:
    """Frozen feature map plus the posterior over the output layer.

    ``params`` and ``hyper`` live in standardized data space; the scalers
    map predictions back to original units.  ``phi`` retains the training
    feature matrix for diagnostics and extrapolation scoring, and
    ``wbar_gap`` records how far the trained output weights sit from their
    closed-form stationary value (a convergence diagnostic, not an error).
    """

    params: MlpParams
    hyper: BllHyper
    chol: CholeskyFactor
    phi: np.ndarray
    x_scaler: Standardizer
    t_scaler: Standardizer
    wbar_gap: float

    @property
    def wbar(self) -> np.ndarray:
        return self.params.wbar

    @property
    def alpha(self) -> float:
        return self.hyper.alpha

    @property
    def sigma_e(self) -> np.ndarray:
        """Noise scales in original target units."""
        return self.hyper.sigma_e * self.t_scaler.scale


def fit_posterior(
    params: MlpParams,
    hyper: BllHyper,
    data: Dataset,
    x_scaler: Standardizer | None = None,
    t_scaler: Standardizer | None = None,
) -> BllModel:
    """Cache the posterior pieces for a trained network on its training data."""
    phi = features(params, data.x)
    factor = chol_spd(precision_bar(phi, hyper.alpha))
    wbar = params.wbar
    closed = solve_pd(factor, phi.T @ data.t)
    gap = float(np.max(np.abs(wbar - closed)))
    return BllModel(
        params=params,
        hyper=hyper,
        chol=factor,
        phi=phi,
        x_scaler=x_scaler or identity_standardizer(data.n_x),
        t_scaler=t_scaler or identity_standardizer(data.n_y),
        wbar_gap=gap,
    )


def predict_batch(model: BllModel, x: np.ndarray):
    """Predictive means and variances (original units) for rows of ``x``.

    Returns arrays (mean, var_y, var_t), each of shape (m, n_y).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y_std, phi_t = forward_batch(model.params, model.x_scaler.transform(x))
    phi = np.concatenate([phi_t, np.ones((phi_t.shape[0], 1))], axis=1)
    quad = np.einsum("ij,ij->i", phi, solve_pd(model.chol, phi.T).T)
    sig2_std = np.exp(2.0 * model.hyper.log_sigma_e)
    t_scale2 = model.t_scaler.scale**2
    var_y = np.outer(quad, sig2_std) * t_scale2
    var_t = var_y + sig2_std * t_scale2
    mean = model.t_scaler.inverse(y_std)
    return mean, var_y, var_t


def predict(model: BllModel, x: np.ndarray) -> PredictiveDistribution:
    """Exact Gaussian predictive distribution at a single input point."""
    mean, var_y, var_t = predict_batch(model, np.asarray(x, dtype=float).reshape(1, -1))
    return PredictiveDistribution(mean[0], var_y[0], var_t[0])


def with_alpha(model: BllModel, alpha: float) -> BllModel:
    """Same model with a new alpha; only the precision factor is rebuilt."""
    hyper = BllHyper(math.log(alpha), model.hyper.log_sigma_e)
    factor = chol_spd(precision_bar(model.phi, alpha))
    return replace(model, hyper=hyper, chol=factor)
