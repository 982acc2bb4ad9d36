"""Variational Bayesian neural network baseline (Bayes by Backprop).

Every weight gets a diagonal-Gaussian surrogate posterior N(mu, sigma^2)
with sigma = softplus(rho).  Training minimizes the negative evidence lower
bound: the Monte Carlo data term uses one reparameterized weight sample per
step, and the KL term against the prior is closed form.  Hidden layers keep
a fixed zero-mean prior; the output layer's prior spread and the noise
scales are learned jointly (empirical Bayes), mirroring the treatment of
the Bayesian-last-layer hyperparameters.

Prediction samples weight sets from the surrogate and returns a uniform
Gaussian mixture over the resulting network outputs.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bll import LOG_2PI, query_rows
from .calibration import gaussian_log_density
from .data import Dataset, Standardizer
from .mlp import MlpSpec, forward_weights, init_params, mlp_backward
from .rng import spawn_rngs
from .training import (
    TrainConfig,
    TrainHistory,
    clamp_hyper_tail,
    fit_loop,
    flat_views,
    standardized_splits,
)

__all__ = [
    "ViModel",
    "gmm_log_density",
    "vi_predict_batch",
    "vi_train",
]

RHO_INIT = math.log(math.expm1(0.05))  # softplus(rho) = 0.05 at init
HIDDEN_PRIOR_VAR = 0.5  # fixed zero-mean prior variance of the hidden-layer weights


@dataclass(frozen=True)
class ViModel:
    """The trained leaves: flat ``mu`` and ``rho`` hold every layer's matrix, in ``shapes`` order."""

    mu: np.ndarray
    rho: np.ndarray  # spreads are softplus(rho)
    log_prior_spread: np.ndarray  # last-layer prior, one entry per output
    log_sigma_e: np.ndarray
    shapes: tuple[tuple[int, int], ...]
    x_scaler: Standardizer
    t_scaler: Standardizer

    @property
    def n_x(self) -> int:
        return self.shapes[0][0] - 1  # the first layer's rows: inputs, then bias

    @property
    def n_y(self) -> int:
        return self.shapes[-1][1]

    @property
    def sigma_e(self) -> np.ndarray:
        """Noise scales in original target units."""
        return np.exp(self.log_sigma_e) * self.t_scaler.scale


def _negative_elbo(leaves, grads, eps, x, t, shapes) -> float:
    """Negative ELBO / m at one Monte Carlo draw ``eps``; its gradient overwrites ``grads``.

    The leaves are [mu, rho, log_prior_spread, log_sigma_e], where mu, rho
    and the draw are flat, holding every layer's matrix in order (viewed
    per layer by ``flat_views``); ``grads`` has the same layout.  The draw
    evaluates the network at W = mu + sigma * eps, so the data term's
    weight gradient dW reaches mu as is and rho as dW * eps * sigmoid(rho)
    (Bayes by Backprop).  The KL term against the priors is closed form,
    and so is its gradient.  Elementwise steps run once over the flat
    vectors; the KL sums run per layer.

    Raises:
        ValueError: when ``grads`` does not match the leaves.
    """
    mu, rho, log_prior_spread, log_sigma_e = leaves
    g_mu, g_rho, g_log_prior_spread, g_log_sigma_e = grads
    if [g.shape for g in grads] != [v.shape for v in leaves]:
        raise ValueError("gradient destinations do not match the leaves")
    m, n_y = t.shape
    rows = shapes[-1][0]
    hidden = mu.size - rows * n_y  # entries before the output layer's

    # KL(q || prior): fixed zero-mean prior on hidden layers, learned
    # per-output spread on the last layer.
    sigma = np.logaddexp(0.0, rho)
    out_inv_prior = np.exp(-2.0 * log_prior_spread)
    inv_prior = np.empty(mu.size)
    inv_prior[:hidden] = 1.0 / HIDDEN_PRIOR_VAR
    inv_prior[hidden:].reshape(rows, n_y)[...] = out_inv_prior
    log_sigma = np.log(sigma)
    quad = sigma * sigma + mu * mu
    prior_quad = quad * inv_prior
    add = np.add.reduce  # what ndarray.sum calls, minus its Python-level wrapper
    kl = rows * add(log_prior_spread) + 0.5 * math.log(HIDDEN_PRIOR_VAR) * hidden
    for layer_log_sigma, layer_prior_quad in zip(
        flat_views(log_sigma, shapes), flat_views(prior_quad, shapes)
    ):
        kl += (
            -add(layer_log_sigma, None)
            + 0.5 * add(layer_prior_quad, None)
            - 0.5 * layer_log_sigma.size
        )
    g_log_prior_spread[...] = rows - add(quad[hidden:].reshape(rows, n_y), 0) * out_inv_prior

    # Monte Carlo negative log-likelihood at the one draw; dW lands in g_mu.
    inv_sig2 = np.exp(-2.0 * log_sigma_e)
    weights = flat_views(mu + sigma * eps, shapes)
    acts = forward_weights(weights, x)
    resid = t - acts[-1]
    misfit = add(resid * resid, 0) * inv_sig2
    nll = 0.5 * m * n_y * LOG_2PI + m * add(log_sigma_e) + 0.5 * add(misfit)
    mlp_backward(weights, acts, -resid * inv_sig2, None, flat_views(g_mu, shapes))
    g_sigma = sigma * inv_prior - 1.0 / sigma
    g_sigma += g_mu * eps
    g_mu += mu * inv_prior  # dW + mu / prior: addition commutes exactly
    np.multiply(g_sigma, 0.5 * (1.0 + np.tanh(0.5 * rho)), out=g_rho)
    g_log_sigma_e[...] = m - misfit
    for g in grads:
        g /= m
    return float((nll + kl) / m)


def vi_train(
    spec: MlpSpec, train_data: Dataset, cfg: TrainConfig
) -> tuple[ViModel, TrainHistory]:
    """Fit the surrogate posterior by minimizing the negative ELBO.

    Each step draws one reparameterized weight sample.  The early-stopping
    monitor is the validation negative log-likelihood at the surrogate
    means, which is deterministic and cheap.
    """
    x_scaler, t_scaler, fit_std, val_std = standardized_splits(train_data, cfg)

    init_rng, noise_rng = spawn_rngs(cfg.seed, 2)
    params0 = init_params(spec, init_rng)
    shapes = spec.layer_shapes()
    n_weights = sum(rows * cols for rows, cols in shapes)
    n_y = train_data.n_y
    leaves = [
        np.concatenate(params0.weights, axis=None),
        np.full(n_weights, RHO_INIT),
        np.full(n_y, 0.5 * math.log(HIDDEN_PRIOR_VAR)),
        np.full(n_y, cfg.init_log_sigma_e, dtype=float),
    ]

    def loss_and_grads(vals, grads):
        # One flat draw: the generator fills it in the order per-layer
        # draws would take, so the values are the same.
        eps = noise_rng.standard_normal(n_weights)
        return _negative_elbo(vals, grads, eps, fit_std.x, fit_std.t, shapes)

    monitor = None
    if val_std is not None:

        def monitor(vals):
            # Negative log-likelihood at the surrogate means.
            mu, _, _, log_sigma_e = vals
            y = forward_weights(flat_views(mu, shapes), val_std.x)[-1]
            sig2 = np.exp(2.0 * log_sigma_e)
            return float(-gaussian_log_density(y, sig2, val_std.t).mean())

    best, history = fit_loop(
        leaves, loss_and_grads, cfg, monitor=monitor, post_step=clamp_hyper_tail
    )
    return ViModel(*best, tuple(shapes), x_scaler, t_scaler), history


def vi_predict_batch(
    model: ViModel, x: np.ndarray, n_samples: int, rng
) -> tuple[np.ndarray, np.ndarray]:
    """Component means (n_samples, m, n_y) in original units plus noise variance.

    One weight set is drawn per component, as one flat draw over every
    layer, and evaluated at every query row, so all points share the same
    mixture components.

    Raises:
        ValueError: if ``n_samples`` is below 1, or ``x`` holds a NaN or infinity.
        DimensionMismatch: if the rows of ``x`` are not the network's input width.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    x_std = model.x_scaler.transform(query_rows(x, model.n_x))
    sigma = np.logaddexp(0.0, model.rho)
    means = []
    for _ in range(n_samples):
        weights = flat_views(model.mu + sigma * rng.standard_normal(model.mu.size), model.shapes)
        means.append(model.t_scaler.inverse(forward_weights(weights, x_std)[-1]))
    return np.stack(means), model.sigma_e**2


def gmm_log_density(means: np.ndarray, noise_var: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Per-point log density of uniform Gaussian mixtures, via a max-shifted log-sum-exp.

    ``means`` holds the component means (n_components, m, n_y), ``t`` the
    targets (m, n_y); the outputs are independent given a component.
    """
    logp = gaussian_log_density(means, noise_var, t)
    peak = logp.max(axis=0)
    peak = np.where(np.isfinite(peak), peak, 0.0)  # a row all -inf sums to log 0 = -inf
    with np.errstate(divide="ignore"):
        return peak + np.log(np.exp(logp - peak).sum(axis=0)) - math.log(means.shape[0])

