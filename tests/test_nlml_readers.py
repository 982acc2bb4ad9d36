"""Every reader of the objective's value goes through one bound head, and the grid's guard.

``bll.bind_nlml_head`` is the one place the negative log-marginal
likelihood is written.  The alpha grid binds it once per call, to the
spectrum of its features, and reads the whole grid from one call; a fit
binds it twice, once for the objective and once for the monitor, however
many monitor blocks it judges.  Counted by wrapping the module attribute,
which every reader looks up when it binds.

Since the bound head returns a non-finite block entry rather than raising,
the grid's own check is the only guard on a sweep: an infinite value is a
``NonFiniteLoss`` naming the grid.  The grid's ``ValueError`` cases are in
``test_calibration``'s malformed inputs.
"""

import numpy as np
import pytest

from lastlayer import bll
from lastlayer.autodiff import NonFiniteLoss
from lastlayer.bll import BllHyper, fit_posterior, nlml_head_grid
from lastlayer.calibration import alpha_sweep
from lastlayer.data import Dataset
from lastlayer.mlp import MlpSpec, forward_batch, init_params
from lastlayer.rng import make_rng
from lastlayer.training import MONITOR_BLOCK, TrainConfig, fit_nlml

SPEC = MlpSpec(1, (5, 4), 2)


def _counted_binds(monkeypatch):
    """Whether each ``bind_nlml_head`` call from here on was handed a spectrum."""
    binds = []
    bind = bll.bind_nlml_head

    def counted(t, n_phi, flat_bias=True, spectrum=None):
        binds.append(spectrum is not None)
        return bind(t, n_phi, flat_bias, spectrum)

    monkeypatch.setattr(bll, "bind_nlml_head", counted)
    return binds


def _data(rng, m):
    return Dataset(rng.standard_normal((m, SPEC.input_dim)), rng.standard_normal((m, 2)))


def _model(log_sigma_e=0.0):
    rng = np.random.default_rng(0)
    data = _data(rng, 12)
    params = init_params(SPEC, make_rng(0))
    return fit_posterior(params, BllHyper(0.5, np.full(2, log_sigma_e)), data), data


def _grid_args(model, data):
    y, a = forward_batch(model.params, data.x)
    return a, y, model.wbar, data.t, model.hyper.log_sigma_e


def test_the_grid_binds_the_head_once_per_call_with_a_spectrum(monkeypatch):
    model, data = _model()
    binds = _counted_binds(monkeypatch)
    values = nlml_head_grid(*_grid_args(model, data), np.linspace(-3.0, 9.0, 13))
    assert values.shape == (13,) and np.isfinite(values).all()
    assert binds == [True]
    rows = alpha_sweep(model, data, {"train": data}, np.linspace(-3.0, 9.0, 5))
    assert len(rows) == 5
    assert binds == [True, True]


@pytest.mark.parametrize("method", ["bll", "blr"])
def test_a_fit_binds_one_head_for_its_objective_and_one_for_its_monitor(monkeypatch, method):
    rng = np.random.default_rng(1)
    fit, val = _data(rng, 20), _data(rng, 6)
    weights = init_params(SPEC, make_rng(1)).weights
    if method == "blr":  # the output layer alone, on features computed once
        frozen = init_params(SPEC, make_rng(1))
        fit = Dataset(forward_batch(frozen, fit.x)[1], fit.t)
        val = Dataset(forward_batch(frozen, val.x)[1], val.t)
        weights = weights[-1:]
    epochs = 2 * MONITOR_BLOCK + 2
    cfg = TrainConfig(max_epochs=epochs, patience=epochs - 1, lr=1e-3)
    binds = _counted_binds(monkeypatch)
    _, _, history = fit_nlml(weights, fit, val, cfg)
    assert len(history.val_objective) == epochs  # three monitor blocks judged
    assert binds == [method == "blr"] * 2


def test_a_grid_whose_values_overflow_raises_naming_the_grid():
    # 1 / sigma_e^2 = e^800 overflows to infinity, and so does the misfit
    # it scales: every value on the grid is infinite
    model, data = _model(log_sigma_e=-400.0)
    grid = np.linspace(-3.0, 9.0, 4)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteLoss, match="alpha grid"):
            nlml_head_grid(*_grid_args(model, data), grid)
        with pytest.raises(NonFiniteLoss, match="alpha grid"):
            alpha_sweep(model, data, {"train": data}, grid)
