"""Comparison baseline: MSE-trained network, then Bayesian regression on
its frozen features.

``train_mse`` fits the network weights by plain mean-squared error.
``blr_fit`` then treats the hidden layers as a fixed feature map and
maximizes the same marginal-likelihood objective over the output weights
and hyperparameters only, finalizing the output weights in closed form.
The resulting model is an ordinary ``BllModel``, so prediction, scoring
and alpha tuning are shared with the jointly trained variant.
"""

import numpy as np

from .autodiff import mlp_backward
from .bll import (
    BllHyper,
    BllModel,
    closed_form_wbar,
    fit_posterior,
    negative_lml,
    nlml_head,
)
from .data import Dataset
from .mlp import MlpParams, MlpSpec, features, forward_batch, forward_layers, init_params
from .training import TrainConfig, TrainHistory, clamp_hyper_tail, fit_loop, standardized_splits
from .rng import make_rng

__all__ = ["blr_fit", "train_mse"]


def _mse_head(y: np.ndarray, t: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error of the outputs and its gradient with respect to them."""
    resid = t - y
    return float((1.0 / t.size) * np.sum(resid * resid)), (-2.0 / t.size) * resid


def _mse_grads(weights, activation: str, data: Dataset):
    """Mean squared error of the network on ``data`` and its weight gradients."""
    acts = forward_layers(MlpParams(tuple(weights), activation), data.x)
    value, d_y = _mse_head(acts[-1], data.t)
    return value, mlp_backward(weights, acts, d_y, None, activation)


def train_mse(
    spec: MlpSpec,
    train_data: Dataset,
    cfg: TrainConfig,
    val_data: Dataset | None = None,
) -> tuple[MlpParams, TrainHistory]:
    """Early-stopped Adam on the mean-squared error.

    Returns parameters in standardized data space (the same standardization
    ``blr_fit`` rebuilds from the training data).
    """
    _, _, fit_std, val_std = standardized_splits(train_data, cfg, val_data)
    params0 = init_params(spec, make_rng(cfg.seed))
    leaves = list(params0.weights)

    def loss_and_grads(vals):
        return _mse_grads(vals, spec.activation, fit_std)

    monitor = None
    if val_std is not None:

        def monitor(vals):
            y, _ = forward_batch(MlpParams(tuple(vals), spec.activation), val_std.x)
            return _mse_head(y, val_std.t)[0]

    best, history = fit_loop(leaves, loss_and_grads, cfg, monitor=monitor)
    return MlpParams(tuple(best), spec.activation), history


def blr_fit(
    frozen: MlpParams,
    train_data: Dataset,
    cfg: TrainConfig,
    val_data: Dataset | None = None,
) -> tuple[BllModel, TrainHistory]:
    """Empirical-Bayes regression on a fixed feature map.

    Maximizes the marginal-likelihood objective over the output weights and
    the log hyperparameters on features computed once from the frozen hidden
    layers, then replaces the output weights by their closed-form posterior
    mean before caching the model.
    """
    x_scaler, t_scaler, fit_std, val_std = standardized_splits(train_data, cfg, val_data)
    _, feats = forward_batch(frozen, fit_std.x)

    n_y = train_data.n_y
    leaves = [
        frozen.wbar.copy(),
        np.asarray(0.0),
        np.full(n_y, cfg.init_log_sigma_e, dtype=float),
    ]

    def unpack(vals):
        params = frozen.replace_wbar(vals[0])
        hyper = BllHyper(float(vals[1]), vals[2])
        return params, hyper

    def loss_and_grads(vals):
        params, hyper = unpack(vals)
        y = feats @ params.wbar[:-1] + params.wbar[-1]
        value, grad_fn = nlml_head(feats, y, params.wbar, fit_std.t, hyper)
        d_y, _, d_wbar, d_log_alpha, d_log_sigma_e = grad_fn()
        (g_wbar,) = mlp_backward((params.wbar,), [feats, y], d_y, None, frozen.activation)
        return value, [g_wbar + d_wbar, d_log_alpha, d_log_sigma_e]

    monitor = None
    if val_std is not None:

        def monitor(vals):
            params, hyper = unpack(vals)
            return negative_lml(params, hyper, val_std)

    best, history = fit_loop(
        leaves, loss_and_grads, cfg, monitor=monitor, post_step=clamp_hyper_tail(2)
    )
    params, hyper = unpack(best)
    phi = features(params, fit_std.x)
    params = params.replace_wbar(closed_form_wbar(phi, fit_std.t, hyper.alpha))
    model = fit_posterior(params, hyper, fit_std, x_scaler=x_scaler, t_scaler=t_scaler)
    return model, history
