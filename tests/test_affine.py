import warnings

import numpy as np
import pytest

from lastlayer.affine import (
    affine_cost_closed,
    affine_cost_kkt,
    bll_affine_equivalence,
)
from lastlayer.bll import BllHyper, fit_posterior, predict
from lastlayer.data import Dataset
from lastlayer.linalg import DimensionMismatch
from lastlayer.mlp import MlpSpec, init_params
from lastlayer.rng import make_rng


def _random_features(rng, rank_deficient=False):
    m = int(rng.integers(1, 7))
    k = int(rng.integers(1, 5))
    train = rng.standard_normal((m, k))
    if rank_deficient and k > 1:
        train[:, -1] = 2.0 * train[:, 0] - 0.5 * train[:, min(1, k - 1)]
    query = rng.standard_normal(k) * 2.0
    gamma = float(np.exp(rng.uniform(-2.0, 6.0)))
    return train, query, gamma


def _random_model(seed=0, m=6):
    rng = np.random.default_rng(seed)
    spec = MlpSpec(1, (4,), 1)
    params = init_params(spec, make_rng(seed))
    data = Dataset(rng.standard_normal((m, 1)), rng.standard_normal((m, 1)))
    hyper = BllHyper(float(rng.uniform(-1.0, 2.0)), np.array([float(rng.uniform(-1, 0))]))
    return fit_posterior(params, hyper, data), data


class TestSingleSampleCases:
    def test_query_at_the_sample_costs_one(self):
        # one sample at the origin: nu = 1 is forced, e = 0
        assert affine_cost_closed([[0.0]], [0.0], 5.0) == pytest.approx(1.0)
        result = affine_cost_kkt([[0.0]], [0.0], 5.0)
        assert result.cost == pytest.approx(1.0)
        np.testing.assert_allclose(result.nu, [1.0])
        np.testing.assert_allclose(result.e, [0.0], atol=1e-12)

    def test_forced_residual(self):
        # nu = 1 forced, e = 1, cost = 1 + gamma
        assert affine_cost_closed([[0.0]], [1.0], 2.0) == pytest.approx(3.0)
        result = affine_cost_kkt([[0.0]], [1.0], 2.0)
        assert result.cost == pytest.approx(3.0)
        np.testing.assert_allclose(result.nu, [1.0])
        np.testing.assert_allclose(result.e, [1.0])


class TestRouteAgreement:
    def test_closed_equals_kkt_on_random_instances(self):
        rng = np.random.default_rng(0)
        for i in range(60):
            train, query, gamma = _random_features(rng, rank_deficient=i % 3 == 0)
            closed = affine_cost_closed(train, query, gamma)
            kkt = affine_cost_kkt(train, query, gamma)
            assert abs(closed - kkt.cost) / (1.0 + abs(closed)) < 1e-8

    def test_kkt_result_invariants(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            train, query, gamma = _random_features(rng)
            res = affine_cost_kkt(train, query, gamma)
            assert res.nu.sum() == pytest.approx(1.0, abs=1e-8)
            np.testing.assert_allclose(train.T @ res.nu + res.e, query, atol=1e-8)
            assert res.cost == pytest.approx(
                res.nu @ res.nu + gamma * res.e @ res.e, abs=1e-8
            )


class TestProperties:
    def test_training_row_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = int(rng.integers(2, 7))
            train = rng.standard_normal((m, 3))
            gamma = float(np.exp(rng.uniform(-2, 5)))
            for i in range(m):
                # the indicator coefficient vector is feasible with e = 0
                assert affine_cost_closed(train, train[i], gamma) <= 1.0 + 1e-10

    def test_cost_nondecreasing_in_gamma(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            train, query, _ = _random_features(rng)
            costs = [
                affine_cost_closed(train, query, g) for g in (0.1, 1.0, 10.0, 1e3, 1e5)
            ]
            assert all(b >= a - 1e-10 for a, b in zip(costs, costs[1:]))

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError):
            affine_cost_closed([[0.0]], [0.0], 0.0)
        with pytest.raises(ValueError):
            affine_cost_kkt([[0.0]], [0.0], -1.0)


def _bad_inputs():
    rng = np.random.default_rng(8)
    train, query = rng.standard_normal((5, 3)), rng.standard_normal(3)
    nan_train = train.copy()
    nan_train[1, 1] = np.nan
    return {
        "nan gamma": ((train, query, float("nan")), ValueError, "finite and positive"),
        "inf gamma": ((train, query, float("inf")), ValueError, "finite and positive"),
        "nan train feature": ((nan_train, query, 2.0), ValueError, "infs or NaNs"),
        "nan query": ((train, np.array([0.0, np.nan, 0.0]), 2.0), ValueError, "infs or NaNs"),
        "short query": ((train, query[:2], 2.0), DimensionMismatch, "query of shape"),
        "long query": ((train, np.append(query, 1.0), 2.0), DimensionMismatch, "query of shape"),
    }


@pytest.mark.parametrize("route", [affine_cost_closed, affine_cost_kkt])
@pytest.mark.parametrize("case", list(_bad_inputs()))
def test_bad_input_raises_its_documented_error(route, case):
    args, error, message = _bad_inputs()[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=message) as raised:
            route(*args)
    assert type(raised.value) is error


class TestCovarianceEquivalence:
    def test_matches_scaled_variance_on_random_queries(self):
        model, _ = _random_model(seed=4)
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = rng.standard_normal(1) * 3.0
            lhs, rhs = bll_affine_equivalence(model, x)
            assert abs(lhs - rhs) / (1.0 + abs(rhs)) < 1e-8

    def test_one_sample_toy_both_sides_one(self):
        from lastlayer.mlp import MlpParams

        # tanh(0) = 0: the feature row is [0, 1] and the precision matrix is I
        params = MlpParams((np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])))
        data = Dataset(np.array([[0.0]]), np.array([[1.0]]))
        model = fit_posterior(params, BllHyper(0.0, np.array([0.0])), data)
        lhs, rhs = bll_affine_equivalence(model, np.array([0.0]))
        assert lhs == pytest.approx(1.0, abs=1e-10)
        assert rhs == pytest.approx(1.0, abs=1e-10)

    def test_holds_through_data_standardization(self):
        # a trained model carries non-identity scalers; the equivalence is
        # scale free because the noise enters both sides identically
        from lastlayer.training import TrainConfig, train
        from lastlayer.mlp import MlpSpec
        from lastlayer.rng import make_rng

        rng = make_rng(21)
        x = 50.0 + 10.0 * rng.uniform(-1, 1, (15, 1))
        t = 300.0 + 40.0 * np.sin(0.3 * (x - 50.0)) + rng.standard_normal((15, 1))
        data = Dataset(x, t)
        cfg = TrainConfig(max_epochs=500, patience=400, seed=2, val_fraction=None)
        model, _ = train(MlpSpec(1, (3,), 1), data, cfg)
        assert model.t_scaler.scale[0] != 1.0  # the scaler actually does work
        for _ in range(30):
            query = 50.0 + 25.0 * rng.uniform(-1, 1, 1)
            lhs, rhs = bll_affine_equivalence(model, query)
            assert abs(lhs - rhs) / (1.0 + abs(rhs)) < 1e-8

    @pytest.mark.parametrize("query", [np.zeros(2), np.zeros(0)], ids=["two inputs", "none"])
    def test_a_query_of_the_wrong_width_raises_dimension_mismatch(self, query):
        model, _ = _random_model(seed=3)  # one input
        with pytest.raises(DimensionMismatch) as raised:
            bll_affine_equivalence(model, query)
        assert type(raised.value) is DimensionMismatch

    def test_runs_the_network_once(self, monkeypatch):
        # forward_batch looks forward_weights up in mlp's namespace, so the
        # wrapper counts every forward pass, whoever makes it.
        from lastlayer import mlp

        model, _ = _random_model(seed=4)
        calls = []
        forward_weights = mlp.forward_weights

        def counted(weights, x):
            calls.append(len(x))
            return forward_weights(weights, x)

        monkeypatch.setattr(mlp, "forward_weights", counted)
        bll_affine_equivalence(model, np.array([0.5]))
        assert calls == [1]

    def test_mismatched_gamma_breaks_equality(self):
        from lastlayer.mlp import forward_batch

        model, _ = _random_model(seed=6)
        rng = np.random.default_rng(7)
        broken = 0
        for _ in range(20):
            x = rng.standard_normal(1) * 3.0
            _, feats = forward_batch(model.params, model.x_scaler.transform(x.reshape(1, -1)))
            wrong = affine_cost_closed(model.phi[:, :-1], feats[0], model.alpha * 50.0)
            dist = predict(model, x)
            rhs = float(dist.var_y[0] / model.sigma_e[0] ** 2)
            if abs(wrong - rhs) / (1.0 + abs(rhs)) > 1e-6:
                broken += 1
        assert broken > 0
