import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lastlayer import affine, autodiff, bll
from lastlayer.affine import affine_cost_closed
from lastlayer.bll import (
    HYPER_CLAMP,
    LOG_ALPHA_MAX,
    BllHyper,
    fit_posterior,
    nlml_head,
    nlml_head_grid,
    precision_bar,
    predict,
    predict_batch,
    with_alpha,
)
from lastlayer.calibration import MAX_SPAN, AlphaSearchConfig, alpha_sweep, lpd, tune_alpha
from lastlayer.data import Dataset
from lastlayer.linalg import DimensionMismatch, NotPositiveDefinite, cholesky
from lastlayer.mlp import MlpParams, MlpSpec, affine_rows, forward_batch, init_params
from lastlayer.rng import make_rng
from lastlayer.training import TrainConfig, train

from oracles import nlml_grid_bound


def _constant_model(m=4, c=1.5, sigma2=None):
    """Zero hidden weights: mean is the output bias, features are constant.

    At the training inputs the feature-space quadratic form is exactly 1/m,
    so var_t = sigma_e^2 * (1 + 1/m) and the mean matches the targets.
    """
    spec = MlpSpec(1, (3,), 1)
    weights = [np.zeros(s) for s in spec.layer_shapes()]
    weights[-1][-1, 0] = c
    params = MlpParams(tuple(weights))
    data = Dataset(np.zeros((m, 1)), np.full((m, 1), c))
    sigma2 = sigma2 if sigma2 is not None else m / (m + 1.0)
    hyper = BllHyper(0.0, np.array([0.5 * math.log(sigma2)]))
    return fit_posterior(params, hyper, data), data


def _trained_toy(seed=0):
    rng = make_rng(seed)
    x = np.sort(rng.uniform(-1.0, 1.0, size=(12, 1)), axis=0)
    t = np.sin(2.0 * x) + 0.05 * rng.standard_normal((12, 1))
    data = Dataset(x, t)
    cfg = TrainConfig(max_epochs=3000, patience=2999, lr=5e-3, seed=seed, val_fraction=None)
    model, _ = train(MlpSpec(1, (4,), 1), data, cfg)
    return model, data


class TestLpd:
    def test_perfect_mean_unit_variance(self):
        model, data = _constant_model()
        assert lpd(model, data) == pytest.approx(-0.5 * math.log(2.0 * math.pi), abs=1e-10)

    def test_doubling_the_scale_costs_half_log_four(self):
        m = 4
        model1, data = _constant_model(m=m)
        model2, _ = _constant_model(m=m, sigma2=4.0 * m / (m + 1.0))
        assert lpd(model1, data) - lpd(model2, data) == pytest.approx(
            0.5 * math.log(4.0), abs=1e-10
        )

    def test_one_sample_toy_value(self):
        # tanh(0) = 0: the feature row is [0, 1] and the precision matrix is I
        params = MlpParams((np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])))
        data = Dataset(np.array([[0.0]]), np.array([[1.0]]))
        model = fit_posterior(params, BllHyper(0.0, np.array([0.0])), data)
        assert lpd(model, data) == pytest.approx(-0.5 * math.log(4.0 * math.pi), abs=1e-10)

    def test_decomposes_as_size_weighted_mean(self):
        model, _ = _trained_toy(seed=1)
        rng = make_rng(5)
        a = Dataset(rng.uniform(-2, 2, (7, 1)), rng.standard_normal((7, 1)))
        b = Dataset(rng.uniform(-2, 2, (13, 1)), rng.standard_normal((13, 1)))
        both = Dataset(np.concatenate([a.x, b.x]), np.concatenate([a.t, b.t]))
        expected = (7 * lpd(model, a) + 13 * lpd(model, b)) / 20
        assert lpd(model, both) == pytest.approx(expected, rel=1e-12)


class TestTuneAlpha:
    def test_finds_synthetic_unimodal_maximum(self, monkeypatch):
        # replace the score with a known single-peak function of log(alpha)
        model, data = _constant_model()
        target = model.hyper.log_alpha + 4.3

        def fake_lpd(mdl, _data):
            return -((mdl.hyper.log_alpha - target) ** 2)

        import lastlayer.calibration as calibration

        monkeypatch.setattr(calibration, "lpd", fake_lpd)
        cfg = AlphaSearchConfig(span=15.0, max_evals=80, tol=1e-4)
        alpha_max, _ = tune_alpha(model, data, cfg)
        assert math.log(alpha_max) == pytest.approx(target, abs=1e-2)

    def test_matches_dense_grid_argmax(self):
        model, data = _trained_toy(seed=2)
        rng = make_rng(11)
        # misfit validation points outside the training range
        x_val = np.concatenate([rng.uniform(1.5, 2.5, (10, 1)), rng.uniform(-2.5, -1.5, (10, 1))])
        t_val = np.sin(2.0 * x_val) + 0.05 * rng.standard_normal((20, 1))
        val = Dataset(x_val, t_val)
        cfg = AlphaSearchConfig(span=15.0, max_evals=80, tol=1e-4)
        alpha_max, tuned = tune_alpha(model, val, cfg)
        grid = np.linspace(model.hyper.log_alpha, model.hyper.log_alpha + 15.0, 400)
        values = [lpd(with_alpha(model, math.exp(g)), val) for g in grid]
        best = max(values)
        assert lpd(tuned, val) >= best - 0.05
        assert alpha_max >= model.alpha

    def test_well_fit_training_data_is_insensitive(self):
        model, data = _trained_toy(seed=3)
        alpha_max, tuned = tune_alpha(model, data)
        grid = np.linspace(model.hyper.log_alpha, model.hyper.log_alpha + 15.0, 40)
        values = [lpd(with_alpha(model, math.exp(g)), data) for g in grid]
        assert max(values) - min(values) < 0.05

    def test_flat_objective_returns_lower_bound(self):
        model, data = _constant_model(m=6)
        alpha_max, tuned = tune_alpha(model, data)
        assert alpha_max == pytest.approx(model.alpha)

    def test_never_modifies_shared_fields(self):
        model, data = _trained_toy(seed=4)
        _, tuned = tune_alpha(model, data)
        assert tuned.params is model.params
        assert tuned.x_scaler is model.x_scaler
        assert tuned.t_scaler is model.t_scaler
        np.testing.assert_array_equal(tuned.hyper.log_sigma_e, model.hyper.log_sigma_e)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AlphaSearchConfig(max_evals=5)
        with pytest.raises(ValueError):
            AlphaSearchConfig(span=-1.0)

    def test_a_search_past_the_largest_log_alpha_raises_before_scoring(self, monkeypatch):
        # only a hand-set log alpha, beyond the training clamp, gets here
        import lastlayer.calibration as calibration

        model, data = _constant_model()
        scored = []
        monkeypatch.setattr(calibration, "lpd", lambda mdl, _data: scored.append(mdl))
        with pytest.raises(ValueError, match="LOG_ALPHA_MAX"):
            tune_alpha(with_alpha(model, math.exp(700.0)), data)
        assert scored == []


class TestAlphaSweep:
    def test_single_row_consistency(self):
        model, data = _trained_toy(seed=5)
        rows = alpha_sweep(model, data, {"train": data}, [model.hyper.log_alpha])
        assert len(rows) == 1
        assert rows[0]["lpd_train"] == pytest.approx(lpd(model, data))
        from lastlayer.bll import negative_lml

        std = Dataset(model.x_scaler.transform(data.x), model.t_scaler.transform(data.t))
        assert rows[0]["nlml_train"] == pytest.approx(
            negative_lml(model.params, model.hyper, std)
        )

    def test_nlml_minimized_near_trained_alpha(self):
        model, data = _trained_toy(seed=6)
        grid = np.linspace(model.hyper.log_alpha - 2.0, model.hyper.log_alpha + 6.0, 17)
        rows = alpha_sweep(model, data, {}, grid)
        nlml = np.array([r["nlml_train"] for r in rows])
        step = grid[1] - grid[0]
        assert abs(grid[int(nlml.argmin())] - model.hyper.log_alpha) <= step + 1e-9

    def test_train_lpd_variation_small_on_well_fit_model(self):
        model, data = _trained_toy(seed=7)
        grid = np.linspace(model.hyper.log_alpha, model.hyper.log_alpha + 15.0, 25)
        rows = alpha_sweep(model, data, {"train": data}, grid)
        col = np.array([r["lpd_train"] for r in rows])
        assert col.max() - col.min() < 0.1


@pytest.mark.parametrize("n_sets", [0, 1, 3])
def test_sweep_runs_the_network_once_per_row_set(monkeypatch, n_sets):
    # forward_batch looks forward_weights up in mlp's namespace, so the
    # wrapper counts every forward pass, whoever makes it.
    from lastlayer import mlp

    model, data = _trained_toy(seed=8)
    calls = []
    forward_weights = mlp.forward_weights

    def counted(weights, x):
        calls.append(len(x))
        return forward_weights(weights, x)

    monkeypatch.setattr(mlp, "forward_weights", counted)
    eval_sets = {f"set{k}": data.subset(np.arange(k + 1)) for k in range(n_sets)}
    grid = np.linspace(model.hyper.log_alpha, model.hyper.log_alpha + 15.0, 7)
    rows = alpha_sweep(model, data, eval_sets, grid)
    assert len(rows) == 7
    assert len(calls) == n_sets + 1


def test_sweep_reuses_the_training_pass_and_computes_each_sets_means_once(monkeypatch):
    from lastlayer import calibration
    from lastlayer.data import Standardizer

    model, data = _trained_toy(seed=9)
    passes, inverses = [], []
    forward_batch, inverse = calibration.forward_batch, Standardizer.inverse

    def counted_forward(params, x):
        passes.append(len(x))
        return forward_batch(params, x)

    def counted_inverse(self, values):
        inverses.append(len(values))
        return inverse(self, values)

    monkeypatch.setattr(calibration, "forward_batch", counted_forward)
    monkeypatch.setattr(Standardizer, "inverse", counted_inverse)
    grid = np.linspace(model.hyper.log_alpha, model.hyper.log_alpha + 15.0, 7)
    held_out = {"val": data.subset(np.arange(4)), "test": data.subset(np.arange(4, 9))}
    rows = alpha_sweep(model, data, {"train": data, **held_out}, grid)
    # the train rows go through the network once, for the objective and their LPD
    assert passes == [data.m, 4, 5]
    assert inverses == [data.m, 4, 5]
    # an equal copy of the train rows is another row set and gets its own pass
    passes.clear()
    copy = Dataset(data.x.copy(), data.t.copy())
    assert alpha_sweep(model, data, {"train": copy, **held_out}, grid) == rows
    assert passes == [data.m, data.m, 4, 5]


@pytest.mark.parametrize("points", [1, 7, 31])
def test_sweep_runs_each_row_set_through_the_network_once_at_any_grid_size(monkeypatch, points):
    from lastlayer import calibration

    model, data = _trained_toy(seed=10)
    passes = []
    forward_batch = calibration.forward_batch

    def counted(params, x):
        passes.append(len(x))
        return forward_batch(params, x)

    monkeypatch.setattr(calibration, "forward_batch", counted)
    grid = np.linspace(model.hyper.log_alpha, model.hyper.log_alpha + 15.0, points)
    held_out = {"val": data.subset(np.arange(4)), "test": data.subset(np.arange(4, 9))}
    rows = alpha_sweep(model, data, {"train": data, **held_out}, grid)
    assert len(rows) == points
    assert passes == [data.m, 4, 5]


@st.composite
def sweep_objective_problems(draw):
    """A posterior fit on some rows, other rows for the sweep's objective, and a grid.

    Units can repeat one another or have no input weights, so that the
    features are rank-deficient, and the grid reaches the top of the widest
    search above a clamped log alpha.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_x, n_y = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    width = draw(st.integers(1, 20))
    w = rng.standard_normal((n_x + 1, width))
    for j in range(width):
        kind = draw(st.sampled_from(["free", "repeat", "dead"]))
        if kind == "repeat" and j > 0:
            w[:, j] = w[:, draw(st.integers(0, j - 1))]
        elif kind == "dead":
            w[:-1, j] = 0.0
    params = MlpParams((w, rng.standard_normal((width + 1, n_y))))
    hyper = BllHyper(draw(st.floats(-HYPER_CLAMP, HYPER_CLAMP)), rng.uniform(-3.0, 1.0, n_y))
    fit_rows = draw(st.integers(1, 40))
    fit = Dataset(rng.standard_normal((fit_rows, n_x)), rng.standard_normal((fit_rows, n_y)))
    model = fit_posterior(params, hyper, fit)
    m = draw(st.integers(1, 60))
    train_data = Dataset(2.0 * rng.standard_normal((m, n_x)), rng.standard_normal((m, n_y)))
    top = HYPER_CLAMP + AlphaSearchConfig().span
    grid = draw(st.lists(st.floats(-HYPER_CLAMP, top), min_size=1, max_size=8))
    return model, train_data, np.array(grid + [top])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(problem=sweep_objective_problems())
def test_sweep_objective_matches_the_factored_head_within_its_bound(problem):
    model, train_data, grid = problem
    rows = alpha_sweep(model, train_data, {}, grid)
    y, a = forward_batch(model.params, train_data.x)
    log_sigma_e = model.hyper.log_sigma_e
    for row, log_alpha in zip(rows, grid):
        hyper = BllHyper(log_alpha, log_sigma_e)
        try:
            cholesky(precision_bar(affine_rows(a), hyper.alpha))
        except NotPositiveDefinite:
            continue  # the head's factor needs jitter here, which moves its value
        expected, _ = nlml_head(a, y, model.wbar, train_data.t, float(log_alpha), log_sigma_e)
        bound = nlml_grid_bound(a, y, model.wbar, train_data.t, log_sigma_e, log_alpha)
        assert abs(row["nlml_train"] - expected) <= bound


def test_sweep_and_affine_cost_factor_nothing(monkeypatch):
    model, data = _trained_toy(seed=11)
    factors = []

    def spy(factor):
        def counted(a, *args, **kwargs):
            factors.append(a.shape)
            return factor(a, *args, **kwargs)

        return counted

    for module in (bll, affine, autodiff):
        monkeypatch.setattr(module, "chol_spd", spy(module.chol_spd))
    monkeypatch.setattr(np.linalg, "cholesky", spy(np.linalg.cholesky))
    grid = np.linspace(model.hyper.log_alpha, model.hyper.log_alpha + 15.0, 31)
    rows = alpha_sweep(model, data, {"train": data}, grid)
    cost = affine_cost_closed(model.phi[:, :-1], model.phi[0, :-1], model.alpha)
    assert len(rows) == 31 and cost > 0.0
    assert factors == []


def _two_output_model():
    rng = np.random.default_rng(0)
    params = init_params(MlpSpec(1, (6,), 2), rng)
    data = Dataset(rng.standard_normal((8, 1)), rng.standard_normal((8, 2)))
    return fit_posterior(params, BllHyper(0.0, np.zeros(2)), data), data


def _one_target(data):
    return Dataset(data.x, data.t[:, :1])


def _no_rows(data):
    return data.subset(np.arange(0))


def _sweep_over(data, grid=(0.0, 1.0)):
    return lambda model, train: alpha_sweep(model, train, {"val": data}, np.array(grid))


def _grid_objective(model, data, grid):
    y, a = forward_batch(model.params, data.x)
    return nlml_head_grid(a, y, model.wbar, data.t, model.hyper.log_sigma_e, np.array(grid))


# the first log alpha below -LOG_ALPHA_MAX, where 1 / alpha overflows
BELOW_LOG_ALPHA_MIN = -np.nextafter(LOG_ALPHA_MAX, math.inf)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda model, data: predict_batch(model, np.ones((3, 2))), DimensionMismatch),
        (lambda model, data: predict(model, np.ones(2)), DimensionMismatch),
        (lambda model, data: lpd(model, _one_target(data)), DimensionMismatch),
        (lambda model, data: tune_alpha(model, _one_target(data)), DimensionMismatch),
        (lambda model, data: alpha_sweep(model, _one_target(data), {}, [0.0]), DimensionMismatch),
        (lambda model, data: _sweep_over(_one_target(data))(model, data), DimensionMismatch),
        (lambda model, data: lpd(model, _no_rows(data)), ValueError),
        (lambda model, data: tune_alpha(model, _no_rows(data)), ValueError),
        (lambda model, data: _sweep_over(_no_rows(data))(model, data), ValueError),
        (lambda model, data: _sweep_over(data, (0.0, 800.0))(model, data), ValueError),
        (lambda model, data: _sweep_over(data, (0.0, math.nan))(model, data), ValueError),
        (lambda model, data: alpha_sweep(model, data, {}, np.zeros((2, 2))), ValueError),
        (lambda model, data: _sweep_over(data, (0.0, BELOW_LOG_ALPHA_MIN))(model, data), ValueError),
        (lambda model, data: _grid_objective(model, data, (0.0, 800.0)), ValueError),
        (lambda model, data: _grid_objective(model, data, (0.0, BELOW_LOG_ALPHA_MIN)), ValueError),
        (lambda model, data: _grid_objective(model, data, (0.0, math.nan)), ValueError),
        (lambda model, data: _grid_objective(model, data, np.zeros((2, 2))), ValueError),
    ],
    ids=[
        "predict_batch wide rows",
        "predict wide row",
        "lpd one target",
        "tune_alpha one target",
        "alpha_sweep one train target",
        "alpha_sweep one eval target",
        "lpd no rows",
        "tune_alpha no rows",
        "alpha_sweep no eval rows",
        "alpha_sweep overflowing grid point",
        "alpha_sweep nan grid point",
        "alpha_sweep 2-d grid",
        "alpha_sweep grid point below -LOG_ALPHA_MAX",
        "nlml_head_grid overflowing grid point",
        "nlml_head_grid grid point below -LOG_ALPHA_MAX",
        "nlml_head_grid nan grid point",
        "nlml_head_grid 2-d grid",
    ],
)
def test_malformed_read_input_raises_its_documented_error(call, error):
    model, data = _two_output_model()
    with pytest.raises(error):
        call(model, data)


@pytest.mark.parametrize(
    "kwargs, error",
    [
        ({"max_evals": 20.5}, TypeError),
        ({"max_evals": math.inf}, TypeError),
        ({"span": math.nan}, ValueError),
        ({"span": math.inf}, ValueError),
        ({"tol": math.nan}, ValueError),
        ({"tol": math.inf}, ValueError),
        ({"span": 800.0}, ValueError),
    ],
    ids=[
        "fractional_max_evals",
        "infinite_max_evals",
        "nan_span",
        "infinite_span",
        "nan_tol",
        "infinite_tol",
        "overflowing_span",
    ],
)
def test_alpha_search_config_rejects_malformed_values(kwargs, error):
    with pytest.raises(error):
        AlphaSearchConfig(**kwargs)


def test_largest_span_keeps_alpha_finite_above_the_clamped_log_alpha():
    top = HYPER_CLAMP + AlphaSearchConfig(span=MAX_SPAN).span
    assert math.isfinite(math.exp(top))
    assert BllHyper(top, np.zeros(1)).alpha == math.exp(top)
