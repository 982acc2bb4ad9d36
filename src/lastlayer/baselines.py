"""Comparison baseline: MSE-trained network, then Bayesian regression on
its frozen features.

``train_mse`` fits the network weights by plain mean-squared error.
``blr_fit`` then treats the hidden layers as a fixed feature map and runs
the same marginal-likelihood fit as the jointly trained model on the
output layer alone (the DNGO recipe), finalizing the output weights in
closed form.
The resulting model is an ordinary ``BllModel``, so prediction, scoring
and alpha tuning are shared with the jointly trained variant.
"""

import numpy as np

from .bll import BllModel, closed_form_wbar, fit_posterior
from .bll import negative_lml  # noqa: F401 - perfbench's tracer patches baselines:negative_lml
from .data import Dataset
from .mlp import MlpParams, MlpSpec, affine_rows, forward_batch, forward_weights, init_params
from .mlp import mlp_backward
from .training import TrainConfig, TrainHistory, fit_loop, fit_nlml, standardized_splits
from .rng import make_rng

__all__ = ["blr_fit", "train_mse"]


def _mse_head(y: np.ndarray, t: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error of the outputs and its gradient with respect to them."""
    resid = t - y
    return float((1.0 / t.size) * np.add.reduce(resid * resid, None)), (-2.0 / t.size) * resid


def _mse_grads(weights, data: Dataset, out) -> float:
    """Mean squared error of the network on ``data``; its weight gradients overwrite ``out``."""
    acts = forward_weights(weights, data.x)
    value, d_y = _mse_head(acts[-1], data.t)
    mlp_backward(weights, acts, d_y, None, out)
    return value


def train_mse(
    spec: MlpSpec, train_data: Dataset, cfg: TrainConfig
) -> tuple[MlpParams, TrainHistory]:
    """Early-stopped Adam on the mean-squared error.

    Returns parameters in standardized data space (the same standardization
    ``blr_fit`` rebuilds from the training data).
    """
    _, _, fit_std, val_std = standardized_splits(train_data, cfg)
    params0 = init_params(spec, make_rng(cfg.seed))
    leaves = list(params0.weights)

    def loss_and_grads(vals, grads):
        return _mse_grads(vals, fit_std, grads)

    monitor = None
    if val_std is not None:

        def monitor(vals):
            return _mse_head(forward_weights(vals, val_std.x)[-1], val_std.t)[0]

    best, history = fit_loop(leaves, loss_and_grads, cfg, monitor=monitor)
    return MlpParams(tuple(best)), history


def blr_fit(
    frozen: MlpParams, train_data: Dataset, cfg: TrainConfig
) -> tuple[BllModel, TrainHistory]:
    """Empirical-Bayes regression on a fixed feature map.

    Runs the bll objective (``fit_nlml``) on the output layer alone, over
    features computed once from the frozen hidden layers, then replaces the
    output weights by their closed-form posterior mean before caching the
    model.
    """
    x_scaler, t_scaler, fit_std, val_std = standardized_splits(train_data, cfg)

    def frozen_features(data):
        return None if data is None else Dataset(forward_batch(frozen, data.x)[1], data.t)

    fit_features = frozen_features(fit_std)
    _, hyper, history = fit_nlml((frozen.wbar,), fit_features, frozen_features(val_std), cfg)
    phi = affine_rows(fit_features.x)
    params = frozen.replace_wbar(closed_form_wbar(phi, fit_std.t, hyper.alpha))
    model = fit_posterior(params, hyper, fit_std, x_scaler=x_scaler, t_scaler=t_scaler)
    return model, history
