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
from scipy.special import logsumexp

from .autodiff import mlp_backward
from .calibration import LOG_2PI, gaussian_log_density
from .data import Dataset, Standardizer
from .mlp import MlpParams, MlpSpec, forward_batch, forward_layers, init_params
from .rng import spawn_rngs
from .training import TrainConfig, TrainHistory, clamp_hyper_tail, fit_loop, standardized_splits

__all__ = [
    "ViModel",
    "ViParams",
    "gmm_log_density",
    "vi_predict_batch",
    "vi_train",
]

RHO_INIT = math.log(math.expm1(0.05))  # softplus(rho) = 0.05 at init
HIDDEN_PRIOR_VAR = 0.5  # fixed zero-mean prior variance of the hidden-layer weights


@dataclass(frozen=True)
class ViParams:
    """Surrogate means/spreads per layer plus learned last-layer scales."""

    mus: tuple[np.ndarray, ...]
    rhos: tuple[np.ndarray, ...]
    log_prior_spread: np.ndarray  # last-layer prior, one entry per output
    log_sigma_e: np.ndarray

    @property
    def sigmas(self) -> tuple[np.ndarray, ...]:
        return tuple(np.logaddexp(0.0, r) for r in self.rhos)


@dataclass(frozen=True)
class ViModel:
    params: ViParams
    x_scaler: Standardizer
    t_scaler: Standardizer

    @property
    def sigma_e(self) -> np.ndarray:
        """Noise scales in original target units."""
        return np.exp(self.params.log_sigma_e) * self.t_scaler.scale


def _unpack(leaves) -> ViParams:
    """Read the leaf layout [mus..., rhos..., log_prior_spread, log_sigma_e]."""
    n_layers = (len(leaves) - 2) // 2
    return ViParams(
        mus=tuple(leaves[:n_layers]),
        rhos=tuple(leaves[n_layers : 2 * n_layers]),
        log_prior_spread=leaves[2 * n_layers],
        log_sigma_e=leaves[2 * n_layers + 1],
    )


def _negative_elbo(leaves, eps, x, t):
    """Negative ELBO / m and its gradient at one Monte Carlo draw ``eps``.

    The draw evaluates the network at W = mu + sigma * eps, so the data
    term's weight gradient dW reaches mu as is and rho as dW * eps *
    sigmoid(rho) (Bayes by Backprop).  The KL term against the priors is
    closed form, and so is its gradient.

    Returns:
        The value and one gradient array per leaf, in leaf order.
    """
    params = _unpack(leaves)
    mus, rhos, sigmas = params.mus, params.rhos, params.sigmas
    log_prior_spread, log_sigma_e = params.log_prior_spread, params.log_sigma_e
    n_layers = len(mus)
    m, n_y = t.shape

    # KL(q || prior): fixed zero-mean prior on hidden layers, learned
    # per-output spread on the last layer.
    inv_priors = [1.0 / HIDDEN_PRIOR_VAR] * (n_layers - 1) + [np.exp(-2.0 * log_prior_spread)]
    rows = mus[-1].shape[0]
    kl = rows * log_prior_spread.sum() + 0.5 * math.log(HIDDEN_PRIOR_VAR) * sum(
        mu.size for mu in mus[:-1]
    )
    g_mus, g_sigmas = [], []
    for mu, sigma, inv_prior in zip(mus, sigmas, inv_priors):
        kl += (
            -np.log(sigma).sum()
            + 0.5 * ((sigma * sigma + mu * mu) * inv_prior).sum()
            - 0.5 * mu.size
        )
        g_mus.append(mu * inv_prior)
        g_sigmas.append(sigma * inv_prior - 1.0 / sigma)
    g_log_prior_spread = rows - (sigmas[-1] ** 2 + mus[-1] ** 2).sum(axis=0) * inv_priors[-1]

    # Monte Carlo negative log-likelihood at the one draw.
    inv_sig2 = np.exp(-2.0 * log_sigma_e)
    weights = [mu + sigma * e for mu, sigma, e in zip(mus, sigmas, eps)]
    acts = forward_layers(MlpParams(tuple(weights)), x)
    resid = t - acts[-1]
    misfit = (resid * resid).sum(axis=0) * inv_sig2
    nll = 0.5 * m * n_y * LOG_2PI + m * log_sigma_e.sum() + 0.5 * misfit.sum()
    d_weights = mlp_backward(weights, acts, -resid * inv_sig2, None)
    for k, (d_w, e) in enumerate(zip(d_weights, eps)):
        g_mus[k] += d_w
        g_sigmas[k] += d_w * e

    sigmoids = [0.5 * (1.0 + np.tanh(0.5 * r)) for r in rhos]
    grads = [
        *g_mus,
        *(g * sig for g, sig in zip(g_sigmas, sigmoids)),
        g_log_prior_spread,
        m - misfit,
    ]
    value = float((nll + kl) / m)
    for g in grads:  # every entry is a fresh array
        g /= m
    return value, grads


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
    bounds = np.cumsum([0, *(rows * cols for rows, cols in shapes)]).tolist()
    n_y = train_data.n_y
    leaves = [
        *[w.copy() for w in params0.weights],
        *[np.full(s, RHO_INIT) for s in shapes],
        np.full(n_y, 0.5 * math.log(HIDDEN_PRIOR_VAR)),
        np.full(n_y, cfg.init_log_sigma_e, dtype=float),
    ]

    def loss_and_grads(vals):
        # One flat draw, viewed per layer: the generator fills it in the
        # order the per-layer draws would take, so the values are the same.
        flat = noise_rng.standard_normal(bounds[-1])
        eps = [flat[lo:hi].reshape(s) for lo, hi, s in zip(bounds[:-1], bounds[1:], shapes)]
        return _negative_elbo(vals, eps, fit_std.x, fit_std.t)

    monitor = None
    if val_std is not None:

        def monitor(vals):
            # Negative log-likelihood at the surrogate means.
            params = _unpack(vals)
            y, _ = forward_batch(MlpParams(params.mus), val_std.x)
            sig2 = np.exp(2.0 * params.log_sigma_e)
            return float(-gaussian_log_density(y, sig2, val_std.t).mean())

    best, history = fit_loop(
        leaves, loss_and_grads, cfg, monitor=monitor, post_step=clamp_hyper_tail
    )
    return ViModel(_unpack(best), x_scaler, t_scaler), history


def _sample_forward(params: ViParams, x_std: np.ndarray, rng) -> np.ndarray:
    weights = tuple(
        mu + sigma * rng.standard_normal(mu.shape) for mu, sigma in zip(params.mus, params.sigmas)
    )
    y, _ = forward_batch(MlpParams(weights), x_std)
    return y


def vi_predict_batch(
    model: ViModel, x: np.ndarray, n_samples: int, rng
) -> tuple[np.ndarray, np.ndarray]:
    """Component means (n_samples, m, n_y) in original units plus noise variance.

    One weight set is drawn per component and evaluated at every query row,
    so all points share the same mixture components.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    x_std = model.x_scaler.transform(x)
    means = np.stack(
        [
            model.t_scaler.inverse(_sample_forward(model.params, x_std, rng))
            for _ in range(n_samples)
        ]
    )
    noise_var = (np.exp(model.params.log_sigma_e) * model.t_scaler.scale) ** 2
    return means, noise_var


def gmm_log_density(means: np.ndarray, noise_var: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Per-point log density of uniform Gaussian mixtures, via log-sum-exp.

    ``means`` holds the component means (n_components, m, n_y), ``t`` the
    targets (m, n_y); the outputs are independent given a component.
    """
    return logsumexp(gaussian_log_density(means, noise_var, t), axis=0) - math.log(means.shape[0])

