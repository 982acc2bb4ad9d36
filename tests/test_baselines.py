import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lastlayer import baselines, linalg, training
from lastlayer.baselines import _bind_mse, blr_fit, train_mse
from lastlayer.bll import (
    BllHyper,
    closed_form_wbar,
    negative_lml,
    negative_lml_grads,
    predict_batch,
)
from lastlayer.data import Dataset
from lastlayer.mlp import MlpParams, MlpSpec, forward_batch, init_params
from lastlayer.rng import make_rng
from lastlayer.training import TrainConfig, TrainHistory, standardized_splits

from oracles import finite_difference, log_alpha_grad_bound, nlml_grid_bound, returning

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
    mse = returning(lambda arrays, out: _bind_mse(arrays, data, out)())
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

    def test_wbar_is_closed_form(self, monkeypatch):
        data = _linear_dataset(seed=6)
        frozen, _ = train_mse(MlpSpec(1, (3,), 1), data, FAST)
        fits = []

        def spy(*args):
            fits.append(training.fit_nlml(*args))
            return fits[-1]

        monkeypatch.setattr(baselines, "fit_nlml", spy)
        model, _ = blr_fit(frozen, data, FAST)
        # the split used for the gradient is a subset; recompute on model.phi
        expected = closed_form_wbar(
            model.phi, model.t_scaler.transform(data.t)[_fit_indices(data, FAST)], model.alpha
        )
        np.testing.assert_allclose(model.wbar, expected, atol=1e-12)
        # the gap is the trained output layer's, before the readout
        ((trained, _, _),) = fits
        assert model.wbar_gap == np.abs(trained.wbar - model.wbar).max()
        assert np.isfinite(model.wbar_gap) and model.wbar_gap > 0.0

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
        # blr reads its log-determinant off the spectrum of its fixed
        # features, the joint gradient off a Cholesky factor: the value, the
        # monitor and d_log_alpha agree within derived bounds, and every
        # term the log-determinant does not enter keeps its bits
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
        draws = []
        for _ in range(5):
            wbar = frozen.wbar + 0.3 * rng.standard_normal(frozen.wbar.shape)
            hyper = BllHyper(float(rng.uniform(-1.0, 2.0)), rng.uniform(-1.0, 0.5, size=1))
            leaves = [wbar, np.asarray(hyper.log_alpha), hyper.log_sigma_e]
            value, grads = returning(captured["loss_and_grads"])(leaves)
            params = frozen.replace_wbar(wbar)
            joint, (w_grads, g_la, g_ls) = negative_lml_grads(params, hyper, fit_std)
            y, a = forward_batch(params, fit_std.x)
            bound_args = (a, wbar, fit_std.t, hyper.log_sigma_e, hyper.log_alpha)
            assert abs(value - joint) <= nlml_grid_bound(a, y, *bound_args[1:])
            assert abs(grads[1] - g_la) <= log_alpha_grad_bound(*bound_args)
            np.testing.assert_array_equal(grads[0], w_grads[-1], strict=True)
            np.testing.assert_array_equal(grads[2], g_ls, strict=True)
            y_val, a_val = forward_batch(params, val_std.x)
            val_args = (a_val, y_val, wbar, val_std.t, hyper.log_sigma_e, hyper.log_alpha)
            draws.append((leaves, negative_lml(params, hyper, val_std), nlml_grid_bound(*val_args)))
        # the monitor on precomputed features, judging the five draws as one
        # block, gives each the full frozen network's value within its bound
        block = [np.stack(leaf) for leaf in zip(*(leaves for leaves, _, _ in draws))]
        monitored = captured["monitor"](block)
        assert monitored.shape == (5,)
        for got, (_, expected, bound) in zip(monitored, draws):
            assert abs(got - expected) <= bound

    @pytest.mark.parametrize("shape", ["duplicated feature", "fewer fit rows than features"])
    def test_near_singular_frozen_features_fit_with_no_factor(self, shape, monkeypatch):
        # a duplicated feature column makes the feature gram singular, and
        # eight fit rows (two monitor rows) for twenty features leave it
        # rank-deficient; blr's objective and monitor read the spectrum and
        # factor nothing, so only the closed-form readout calls cholesky
        if shape == "duplicated feature":
            data, spec = _linear_dataset(seed=11), MlpSpec(1, (6,), 1)
        else:
            data, spec = _linear_dataset(seed=11, m=10), MlpSpec(1, (20,), 1)
        frozen = init_params(spec, make_rng(11))
        if shape == "duplicated feature":
            first = frozen.weights[0].copy()
            first[:, 1] = first[:, 0]
            frozen = MlpParams((first, frozen.wbar))
            features = forward_batch(frozen, data.x)[1]
            np.testing.assert_array_equal(features[:, 1], features[:, 0])
        factors = {"fit_loop": 0, "elsewhere": 0}
        where = ["elsewhere"]
        cholesky, fit_loop = linalg.cholesky, training.fit_loop

        def counted(a, jitter=0.0):
            factors[where[0]] += 1
            return cholesky(a, jitter)

        def watched(*args, **kwargs):
            where[0] = "fit_loop"
            try:
                return fit_loop(*args, **kwargs)
            finally:
                where[0] = "elsewhere"

        monkeypatch.setattr(linalg, "cholesky", counted)
        monkeypatch.setattr(training, "fit_loop", watched)
        cfg = TrainConfig(max_epochs=400, patience=100, lr=5e-3, seed=0)
        model, history = blr_fit(frozen, data, cfg)
        assert factors["fit_loop"] == 0 and factors["elsewhere"] >= 1
        assert math.isfinite(model.alpha) and model.alpha > 0.0
        assert np.isfinite(model.sigma_e).all()
        assert len(history.val_objective) == len(history.train_objective) > 1
        assert np.isfinite(history.train_objective).all()
        assert np.isfinite(history.val_objective).all()


def _fit_indices(data, cfg):
    """Indices of the gradient split used inside the fitting routines."""
    from lastlayer.data import split_train_val

    fit_part, _ = split_train_val(data, cfg.val_fraction, cfg.seed)
    # recover positions by matching rows (unique x values by construction)
    order = {float(v): i for i, v in enumerate(data.x[:, 0])}
    return np.array([order[float(v)] for v in fit_part.x[:, 0]])
