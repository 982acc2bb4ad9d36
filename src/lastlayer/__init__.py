"""Neural network regression with a Bayesian last layer.

Training maximizes the log-marginal likelihood of the output layer by
plain backpropagation, predictions are exact Gaussians, and the
extrapolation behavior of the predictive variance is retuned on
validation data after training.  Baselines (Bayesian regression on frozen
features, a variational Bayesian network) and a benchmark CLI live in
their own modules.
"""

__version__ = "0.1.0"

from .affine import AffineCostResult, affine_cost_closed, affine_cost_kkt
from .bll import (
    BllHyper,
    BllModel,
    PredictiveDistribution,
    closed_form_wbar,
    fit_posterior,
    negative_lml,
    precision_bar,
    predict,
    predict_batch,
)
from .calibration import AlphaSearchConfig, alpha_sweep, lpd, tune_alpha
from .data import Dataset
from .mlp import MlpParams, MlpSpec, features, init_params
from .training import TrainConfig, TrainHistory, train

__all__ = [
    "AffineCostResult",
    "AlphaSearchConfig",
    "BllHyper",
    "BllModel",
    "Dataset",
    "MlpParams",
    "MlpSpec",
    "PredictiveDistribution",
    "TrainConfig",
    "TrainHistory",
    "affine_cost_closed",
    "affine_cost_kkt",
    "alpha_sweep",
    "closed_form_wbar",
    "features",
    "fit_posterior",
    "init_params",
    "lpd",
    "negative_lml",
    "precision_bar",
    "predict",
    "predict_batch",
    "train",
    "tune_alpha",
]
