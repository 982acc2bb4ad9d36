import numpy as np
import pytest

from lastlayer.autodiff import NonFiniteLoss
from lastlayer.baselines import blr_fit, train_mse
from lastlayer.bll import closed_form_wbar
from lastlayer.data import Dataset
from lastlayer.mlp import MlpSpec, init_params
from lastlayer.rng import make_rng
from lastlayer.training import TrainConfig, train, fit_loop
from lastlayer.vi import vi_train


def _linear_dataset(seed=0, m=40, slope=2.0, noise=0.1):
    rng = make_rng(seed)
    x = np.sort(rng.uniform(-1.0, 1.0, size=m)).reshape(-1, 1)
    t = slope * x + noise * rng.standard_normal((m, 1))
    return Dataset(x, t)


FAST = TrainConfig(max_epochs=4000, patience=400, lr=5e-3, seed=0)


class TestConfig:
    def test_patience_must_be_smaller(self):
        with pytest.raises(ValueError):
            TrainConfig(max_epochs=10, patience=10)

    def test_val_fraction_bounds(self):
        with pytest.raises(ValueError):
            TrainConfig(val_fraction=1.5)


class TestFitLoop:
    def test_converges_on_quadratic(self):
        def loss_and_grads(leaves):
            return float(leaves[0] ** 2), [2.0 * leaves[0]]

        best, history = fit_loop(
            [np.asarray(3.0)], loss_and_grads, TrainConfig(max_epochs=3000, patience=2999, lr=0.05)
        )
        assert abs(best[0]) < 1e-2
        assert history.train_objective[-1] < history.train_objective[0]

    def test_returns_best_monitored_epoch_not_last(self):
        # monitor dips at epoch 5 then rises again
        def loss_and_grads(leaves):
            return 0.0, [np.zeros(())]

        counter = {"epoch": 0}

        def monitor(leaves):
            e = counter["epoch"]
            counter["epoch"] += 1
            return float((e - 5) ** 2)

        best, history = fit_loop(
            [np.asarray(1.0)],
            loss_and_grads,
            TrainConfig(max_epochs=100, patience=10, lr=0.1),
            monitor=monitor,
        )
        assert history.best_epoch == 5
        assert len(history.val_objective) < 100  # patience cut the run short
        assert min(history.val_objective) == history.val_objective[5]

    def test_non_finite_loss_reports_epoch(self):
        calls = {"n": 0}

        def loss_and_grads(leaves):
            if calls["n"] == 3:
                raise NonFiniteLoss("objective evaluated to nan")
            calls["n"] += 1
            return 1.0, [np.zeros(())]

        with pytest.raises(NonFiniteLoss, match="epoch 3"):
            fit_loop([np.asarray(0.0)], loss_and_grads, TrainConfig(max_epochs=10, patience=5))

    def test_non_finite_monitor_reports_epoch(self):
        def loss_and_grads(leaves):
            return 1.0, [np.zeros(())]

        values = iter([3.0, 2.0, float("nan")])
        with pytest.raises(NonFiniteLoss, match="^epoch 2: monitor evaluated to nan"):
            fit_loop(
                [np.asarray(0.0)],
                loss_and_grads,
                TrainConfig(max_epochs=10, patience=5),
                monitor=lambda leaves: next(values),
            )

    @pytest.mark.parametrize("trainer", ["bll", "mse", "blr", "vi"])
    def test_every_trainer_reports_the_epoch_of_a_non_finite_objective(self, trainer):
        # one Adam step of size ~1e300 overflows every objective at epoch 1
        data = _linear_dataset(seed=9, m=20)
        spec = MlpSpec(1, (3,), 1)
        cfg = TrainConfig(max_epochs=50, patience=10, lr=1e300)
        run = {
            "bll": lambda: train(spec, data, cfg),
            "mse": lambda: train_mse(spec, data, cfg),
            "blr": lambda: blr_fit(init_params(spec, make_rng(1)), data, cfg),
            "vi": lambda: vi_train(spec, data, cfg),
        }[trainer]
        with np.errstate(all="ignore"), pytest.raises(NonFiniteLoss, match="^epoch 1: "):
            run()


class TestTrain:
    def test_linear_data_reaches_noise_floor(self):
        data = _linear_dataset(seed=1, m=40, slope=2.0, noise=0.1)
        model, _ = train(MlpSpec(1, (4,), 1), data, FAST)
        rng = make_rng(99)
        x_test = rng.uniform(-1.0, 1.0, size=(200, 1))
        t_test = 2.0 * x_test + 0.1 * rng.standard_normal((200, 1))
        from lastlayer.bll import predict_batch

        mean, _, _ = predict_batch(model, x_test)
        mse = float(np.mean((t_test - mean) ** 2))
        # closed-form linear regression on the same training data as oracle
        design = np.concatenate([data.x, np.ones((data.m, 1))], axis=1)
        coef, *_ = np.linalg.lstsq(design, data.t, rcond=None)
        oracle_mse = float(
            np.mean((t_test - np.concatenate([x_test, np.ones((200, 1))], axis=1) @ coef) ** 2)
        )
        assert mse < oracle_mse + 3 * 0.1**2

    def test_duplicated_outputs_get_matching_noise(self):
        base = _linear_dataset(seed=2, m=30, noise=0.15)
        data = Dataset(base.x, np.concatenate([base.t, base.t], axis=1))
        model, _ = train(MlpSpec(1, (4,), 2), data, FAST)
        s0, s1 = model.sigma_e
        assert abs(s0 - s1) / max(s0, s1) < 0.10

    def test_bitwise_deterministic_history(self):
        data = _linear_dataset(seed=3, m=20)
        cfg = TrainConfig(max_epochs=200, patience=150, seed=7)
        _, h1 = train(MlpSpec(1, (3,), 1), data, cfg)
        _, h2 = train(MlpSpec(1, (3,), 1), data, cfg)
        assert h1.train_objective == h2.train_objective
        assert h1.val_objective == h2.val_objective
        assert h1.best_epoch == h2.best_epoch

    def test_history_best_epoch_minimizes_validation(self):
        data = _linear_dataset(seed=4, m=30)
        model, history = train(MlpSpec(1, (3,), 1), data, FAST)
        assert history.best_epoch == int(np.argmin(history.val_objective))

    def test_trained_wbar_near_closed_form(self):
        # at convergence the free output weights sit at their stationary value
        data = _linear_dataset(seed=5, m=16, noise=0.05)
        cfg = TrainConfig(max_epochs=20000, patience=19999, lr=5e-3, seed=1, val_fraction=None)
        model, _ = train(MlpSpec(1, (2,), 1), data, cfg)
        t_std = model.t_scaler.transform(data.t)
        closed = closed_form_wbar(model.phi, t_std, model.alpha)
        gap = np.abs(model.wbar - closed).max()
        assert gap < 1e-3 * (1.0 + np.abs(model.wbar).max())
        assert model.wbar_gap == pytest.approx(gap)

    def test_spec_dimension_mismatch_rejected(self):
        data = _linear_dataset(seed=6, m=10)
        with pytest.raises(ValueError):
            train(MlpSpec(2, (3,), 1), data, FAST)
