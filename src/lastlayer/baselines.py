"""Comparison baseline: MSE-trained network, then Bayesian regression on
its frozen features.

``train_mse`` fits the network weights by plain mean-squared error.
``blr_fit`` then treats the hidden layers as a fixed feature map and runs
the same marginal-likelihood fit as the jointly trained model on the
output layer alone (the DNGO recipe).  Because those features never move,
its objective and monitor read the log-determinant off their spectrum,
taken once per fit, and factor no matrix in any epoch.  The same readout,
``fit_posterior``, makes it an ordinary ``BllModel``, so prediction,
scoring and alpha tuning are shared with the jointly trained variant.
"""

import numpy as np

from .bll import BllModel, fit_posterior
from .bll import negative_lml  # noqa: F401 - perfbench's tracer patches baselines:negative_lml
from .data import Dataset
from .mlp import MlpParams, MlpSpec, bind_backward, bind_forward, forward_batch, forward_weights
from .mlp import init_params
from .training import TrainConfig, TrainHistory, bind_once, fit_loop, fit_nlml
from .training import standardized_splits
from .rng import make_rng

__all__ = ["blr_fit", "train_mse"]


def _mse_head(y: np.ndarray, t: np.ndarray):
    """Mean squared error of the outputs and its gradient with respect to them.

    Outputs ``y`` with leading block axes give one error per block entry.
    """
    resid = t - y
    return (1.0 / t.size) * np.add.reduce(resid * resid, (-2, -1)), (-2.0 / t.size) * resid


def _bind_mse(weights, data: Dataset, out):
    """Mean squared error of the network on ``data``, bound once.

    Checks the destinations ``out`` here and returns ``epoch()``: the error
    at the weights' current values, its weight gradients written over ``out``.
    """
    forward, backward = bind_forward(weights), bind_backward(weights, out)
    x = np.asarray(data.x, dtype=float)

    def epoch():
        acts = forward(x)
        value, d_y = _mse_head(acts[-1], data.t)
        backward(acts, d_y, None)
        return float(value)

    return epoch


def train_mse(
    spec: MlpSpec, train_data: Dataset, cfg: TrainConfig
) -> tuple[MlpParams, TrainHistory]:
    """Early-stopped Adam on the mean-squared error.

    Returns parameters in standardized data space (the same standardization
    ``blr_fit`` rebuilds from the training data).
    """
    train_data.check_widths(spec.input_dim, spec.output_dim)
    _, _, fit_std, val_std = standardized_splits(train_data, cfg)
    params0 = init_params(spec, make_rng(cfg.seed))
    leaves = list(params0.weights)
    loss_and_grads = bind_once(lambda vals, grads: _bind_mse(vals, fit_std, grads))

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
    features computed once from the frozen hidden layers, with the
    log-determinant read off their centred spectrum (``bll.spectral_logdet``).
    ``fit_posterior`` then sets the closed-form output weights, as it does
    for ``train``.
    """
    train_data.check_widths(frozen.n_x, frozen.n_y)
    x_scaler, t_scaler, fit_std, val_std = standardized_splits(train_data, cfg)

    def frozen_features(data):
        return None if data is None else Dataset(forward_batch(frozen, data.x)[1], data.t)

    trained, hyper, history = fit_nlml(
        (frozen.wbar,), frozen_features(fit_std), frozen_features(val_std), cfg
    )
    params = frozen.replace_wbar(trained.wbar)
    model = fit_posterior(params, hyper, fit_std, x_scaler=x_scaler, t_scaler=t_scaler)
    return model, history
