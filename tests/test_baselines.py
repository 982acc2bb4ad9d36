import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lastlayer import training
from lastlayer.baselines import _mse_grads, blr_fit, train_mse
from lastlayer.bll import (
    BllHyper,
    closed_form_wbar,
    negative_lml,
    negative_lml_grads,
    predict_batch,
)
from lastlayer.data import Dataset
from lastlayer.mlp import MlpSpec, forward_batch, init_params
from lastlayer.rng import make_rng
from lastlayer.training import TrainConfig, TrainHistory, standardized_splits

from oracles import finite_difference, returning

FAST = TrainConfig(max_epochs=3000, patience=400, lr=5e-3, seed=0)


def _linear_dataset(seed=0, m=40, slope=2.0, noise=0.1):
    rng = make_rng(seed)
    x = np.sort(rng.uniform(-1.0, 1.0, size=m)).reshape(-1, 1)
    t = slope * x + noise * rng.standard_normal((m, 1))
    return Dataset(x, t)


class TestTrainMse:
    def test_recovers_linear_slope(self):
        data = _linear_dataset(seed=1, slope=2.0, noise=0.05)
        params, _ = train_mse(MlpSpec(1, (4,), 1), data, FAST)
        # slope estimated from predictions at +-0.5 in standardized space
        from lastlayer.data import fit_standardizer

        xs = fit_standardizer(data.x)
        ts = fit_standardizer(data.t)
        x_probe = xs.transform(np.array([[-0.5], [0.5]]))
        y, _ = forward_batch(params, x_probe)
        slope = (ts.inverse(y)[1, 0] - ts.inverse(y)[0, 0]) / 1.0
        assert abs(slope - 2.0) / 2.0 < 0.05

    def test_zero_targets_give_zero_outputs(self):
        rng = make_rng(2)
        data = Dataset(rng.uniform(-1, 1, (30, 1)), np.zeros((30, 1)))
        params, history = train_mse(MlpSpec(1, (3,), 1), data, FAST)
        y, _ = forward_batch(params, data.x)
        assert np.abs(y).max() < 0.05
        assert history.train_objective[history.best_epoch] < 1e-3

    def test_noise_floor_mse(self):
        data = _linear_dataset(seed=3, noise=0.2)
        params, history = train_mse(MlpSpec(1, (4,), 1), data, FAST)
        # standardized MSE at the best epoch should sit near the noise level
        noise_std_standardized = 0.2 / data.t.std()
        assert history.train_objective[history.best_epoch] < 3 * noise_std_standardized**2

    def test_seed_determinism(self):
        data = _linear_dataset(seed=4)
        p1, h1 = train_mse(MlpSpec(1, (3,), 1), data, FAST)
        p2, h2 = train_mse(MlpSpec(1, (3,), 1), data, FAST)
        for a, b in zip(p1.weights, p2.weights):
            np.testing.assert_array_equal(a, b)
        assert h1.train_objective == h2.train_objective


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    n_y=st.integers(1, 2),
    depth=st.integers(1, 3),
)
def test_mse_gradient_matches_finite_differences(seed, n_y, depth):
    rng = np.random.default_rng(seed)
    n_x = int(rng.integers(1, 3))
    m = int(rng.integers(2, 8))
    spec = MlpSpec(n_x, tuple(int(w) for w in rng.integers(1, 5, size=depth)), n_y)
    weights = [
        w + 0.1 * rng.standard_normal(w.shape) for w in init_params(spec, make_rng(seed)).weights
    ]
    data = Dataset(rng.standard_normal((m, n_x)), rng.standard_normal((m, n_y)))
    mse = returning(lambda arrays, out: _mse_grads(arrays, data, out))
    _, grads = mse(weights)
    fd = finite_difference(lambda arrays: mse(arrays)[0], weights)
    for g, f in zip(grads, fd):
        np.testing.assert_allclose(g, f, rtol=1e-6, atol=1e-8)


class TestBlrFit:
    def test_objective_improves_and_best_is_monotone(self):
        data = _linear_dataset(seed=5)
        frozen, _ = train_mse(MlpSpec(1, (3,), 1), data, FAST)
        _, history = blr_fit(frozen, data, FAST)
        objective = history.train_objective
        assert objective[history.best_epoch] < objective[0]
        running_best = np.minimum.accumulate(objective)
        assert (np.diff(running_best) <= 1e-12).all()

    def test_wbar_is_closed_form(self):
        data = _linear_dataset(seed=6)
        frozen, _ = train_mse(MlpSpec(1, (3,), 1), data, FAST)
        model, _ = blr_fit(frozen, data, FAST)
        t_std = model.t_scaler.transform(data.t)
        # the split used for the gradient is a subset; recompute on model.phi
        expected = closed_form_wbar(
            model.phi, model.t_scaler.transform(data.t)[_fit_indices(data, FAST)], model.alpha
        )
        np.testing.assert_allclose(model.wbar, expected, atol=1e-12)
        assert model.wbar_gap == 0.0

    def test_hidden_layers_never_move(self):
        data = _linear_dataset(seed=7)
        frozen, _ = train_mse(MlpSpec(1, (3,), 1), data, FAST)
        model, _ = blr_fit(frozen, data, FAST)
        for a, b in zip(frozen.weights[:-1], model.params.weights[:-1]):
            np.testing.assert_array_equal(a, b)

    def test_shares_the_bll_predict_path(self):
        data = _linear_dataset(seed=8)
        frozen, _ = train_mse(MlpSpec(1, (3,), 1), data, FAST)
        model, _ = blr_fit(frozen, data, FAST)
        mean, var_y, var_t = predict_batch(model, data.x)
        assert mean.shape == (data.m, 1)
        assert (var_t > var_y).all()

    def test_epoch_gradient_is_the_output_slice_of_the_joint_gradient(self, monkeypatch):
        data = _linear_dataset(seed=9)
        frozen, _ = train_mse(MlpSpec(1, (3, 3), 1), data, FAST)
        captured = {}

        def capture(leaves, loss_and_grads, cfg, monitor=None, post_step=None):
            captured["loss_and_grads"] = loss_and_grads
            captured["monitor"] = monitor
            return leaves, TrainHistory(train_objective=[0.0])

        monkeypatch.setattr(training, "fit_loop", capture)
        blr_fit(frozen, data, FAST)
        _, _, fit_std, val_std = standardized_splits(data, FAST)
        rng = make_rng(10)
        for _ in range(5):
            wbar = frozen.wbar + 0.3 * rng.standard_normal(frozen.wbar.shape)
            hyper = BllHyper(float(rng.uniform(-1.0, 2.0)), rng.uniform(-1.0, 0.5, size=1))
            leaves = [wbar, np.asarray(hyper.log_alpha), hyper.log_sigma_e]
            value, grads = returning(captured["loss_and_grads"])(leaves)
            joint, (w_grads, g_la, g_ls) = negative_lml_grads(
                frozen.replace_wbar(wbar), hyper, fit_std
            )
            assert value == joint
            np.testing.assert_array_equal(grads[0], w_grads[-1], strict=True)
            np.testing.assert_array_equal(grads[1], g_la, strict=True)
            np.testing.assert_array_equal(grads[2], g_ls, strict=True)
            # the monitor on precomputed features is the full frozen network's value
            assert captured["monitor"](leaves) == negative_lml(
                frozen.replace_wbar(wbar), hyper, val_std
            )


def _fit_indices(data, cfg):
    """Indices of the gradient split used inside the fitting routines."""
    from lastlayer.data import split_train_val

    fit_part, _ = split_train_val(data, cfg.val_fraction, cfg.seed)
    # recover positions by matching rows (unique x values by construction)
    order = {float(v): i for i, v in enumerate(data.x[:, 0])}
    return np.array([order[float(v)] for v in fit_part.x[:, 0]])
