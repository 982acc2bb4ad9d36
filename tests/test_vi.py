import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp

from lastlayer.bll import BllHyper, fit_posterior, predict_batch
from lastlayer.data import Dataset, identity_standardizer
from lastlayer.linalg import DimensionMismatch
from lastlayer.mlp import MlpSpec, init_params
from lastlayer.rng import make_rng
from lastlayer.training import TrainConfig
from lastlayer.vi import (
    ViModel,
    _negative_elbo,
    gmm_log_density,
    vi_predict_batch,
    vi_train,
)

from oracles import finite_difference, kl_diag_gaussian, returning

FAST = TrainConfig(max_epochs=1500, patience=300, lr=5e-3, seed=0)


def _elbo(leaves, eps, x, t):
    """``_negative_elbo`` on per-layer leaves and draws: the value and per-layer gradients.

    The leaves are [mus..., rhos..., log_prior_spread, log_sigma_e]; vi
    trains the means and spreads as two flat vectors.
    """
    n_layers = (len(leaves) - 2) // 2
    shapes = [np.shape(mu) for mu in leaves[:n_layers]]
    flat = [
        np.concatenate(leaves[:n_layers], axis=None),
        np.concatenate(leaves[n_layers : 2 * n_layers], axis=None),
        *leaves[2 * n_layers :],
    ]
    draw = np.concatenate(eps, axis=None)
    value, grads = returning(
        lambda vals, out: _negative_elbo(vals, out, draw, x, t, shapes)
    )(flat)
    cuts = np.cumsum([np.size(mu) for mu in leaves[:n_layers]])[:-1]

    def per_layer(g):
        return [part.reshape(s) for part, s in zip(np.split(g, cuts), shapes)]

    return value, [*per_layer(grads[0]), *per_layer(grads[1]), *grads[2:]]


def _dataset(seed=0, m=30):
    rng = make_rng(seed)
    x = np.sort(rng.uniform(-1.0, 1.0, size=m)).reshape(-1, 1)
    t = np.sin(2.0 * x) + 0.1 * rng.standard_normal((m, 1))
    return Dataset(x, t)


class TestKl:
    def test_identical_gaussians_zero(self):
        mu = np.zeros((3, 2))
        assert kl_diag_gaussian(mu, np.ones((3, 2)), 1.0) == pytest.approx(0.0)

    def test_unit_shift_half_nat(self):
        assert kl_diag_gaussian(np.array([1.0]), np.array([1.0]), 1.0) == pytest.approx(0.5)

    def test_nonnegative_random(self):
        rng = make_rng(1)
        for _ in range(50):
            mu = rng.standard_normal(6)
            sigma = np.exp(rng.uniform(-2, 1, size=6))
            prior = float(np.exp(rng.uniform(-1, 1)))
            assert kl_diag_gaussian(mu, sigma, prior) >= -1e-12

    def test_zero_only_when_equal_to_prior(self):
        value = kl_diag_gaussian(np.array([0.0, 0.0]), np.array([0.7, 0.7]), 0.7)
        assert value == pytest.approx(0.0, abs=1e-12)
        assert kl_diag_gaussian(np.array([0.1, 0.0]), np.array([0.7, 0.7]), 0.7) > 0


class TestElboGraph:
    def _leaves(self, spec, seed=0, rho=-3.0):
        rng = make_rng(seed)
        shapes = spec.layer_shapes()
        mus = [0.3 * rng.standard_normal(s) for s in shapes]
        rhos = [np.full(s, rho) for s in shapes]
        return mus + rhos + [np.array([0.2]), np.array([-0.1])]

    def test_kl_terms_match_reference(self):
        spec = MlpSpec(1, (3,), 1)
        data = _dataset(seed=2, m=8)
        leaves = self._leaves(spec)
        shapes = spec.layer_shapes()
        eps = [np.zeros(s) for s in shapes]
        value, _ = _elbo(leaves, eps, data.x, data.t)
        # reference: deterministic forward at the means plus closed-form KL
        mus, rhos = leaves[:2], leaves[2:4]
        sig = [np.logaddexp(0.0, r) for r in rhos]
        a = np.tanh(data.x @ mus[0][:-1] + mus[0][-1])
        y = a @ mus[1][:-1] + mus[1][-1]
        sigma_e = math.exp(-0.1)
        nll = 0.5 * data.m * math.log(2 * math.pi * sigma_e**2) + np.sum(
            (data.t - y) ** 2
        ) / (2 * sigma_e**2)
        kl = kl_diag_gaussian(mus[0], sig[0], math.sqrt(0.5))
        kl += kl_diag_gaussian(mus[1], sig[1], math.exp(0.2))
        assert value == pytest.approx((nll + kl) / data.m, rel=1e-10)

    def test_degenerate_spread_gradient_matches_deterministic(self):
        # with spreads collapsed the mean-gradients reduce to the
        # deterministic data term plus the prior quadratic
        spec = MlpSpec(1, (3,), 1)
        data = _dataset(seed=3, m=10)
        leaves = self._leaves(spec, rho=-40.0)
        shapes = spec.layer_shapes()
        eps = [make_rng(4).standard_normal(s) for s in shapes]
        _, grads = _elbo(leaves, eps, data.x, data.t)

        def deterministic(ws):
            a = np.tanh(data.x @ ws[0][:-1] + ws[0][-1])
            resid = data.t - (a @ ws[1][:-1] + ws[1][-1])
            nll = 0.5 * math.exp(2 * 0.1) * np.sum(resid * resid)
            prior = (0.5 / 0.5) * np.sum(ws[0] * ws[0]) + 0.5 * math.exp(-2 * 0.2) * np.sum(
                ws[1] * ws[1]
            )
            return (nll + prior) / data.m

        det_grads = finite_difference(deterministic, [leaves[0], leaves[1]])
        np.testing.assert_allclose(grads[0], det_grads[0], atol=1e-8)
        np.testing.assert_allclose(grads[1], det_grads[1], atol=1e-8)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    n_y=st.integers(1, 2),
    depth=st.integers(1, 3),
)
def test_elbo_gradient_matches_finite_differences(seed, n_y, depth):
    rng = np.random.default_rng(seed)
    n_x = int(rng.integers(1, 3))
    m = int(rng.integers(2, 7))
    spec = MlpSpec(n_x, tuple(int(w) for w in rng.integers(1, 4, size=depth)), n_y)
    shapes = spec.layer_shapes()
    leaves = (
        [0.5 * rng.standard_normal(s) for s in shapes]
        + [rng.uniform(-3.0, 0.5, size=s) for s in shapes]
        + [rng.uniform(-1.0, 1.0, size=n_y), rng.uniform(-1.0, 0.5, size=n_y)]
    )
    eps = [rng.standard_normal(s) for s in shapes]
    data = Dataset(rng.standard_normal((m, n_x)), rng.standard_normal((m, n_y)))

    def value(arrays):
        return _elbo(arrays, eps, data.x, data.t)[0]

    _, grads = _elbo(leaves, eps, data.x, data.t)
    for g, f in zip(grads, finite_difference(value, leaves)):
        np.testing.assert_allclose(g, f, rtol=1e-6, atol=1e-8)


class TestGmmLpd:
    """``gmm_log_density`` on one query row: means (components, 1, n_y), t (1, n_y)."""

    def test_single_component_gaussian(self):
        value = gmm_log_density(np.array([[[0.0]]]), np.array([1.0]), np.array([[0.0]]))
        assert value.shape == (1,)
        assert value[0] == pytest.approx(-0.5 * math.log(2 * math.pi))

    def test_identical_components_collapse(self):
        one = np.array([[[0.3, -0.1]]])
        two = np.array([[[0.3, -0.1]], [[0.3, -0.1]]])
        var = np.array([0.5, 2.0])
        t = np.array([[0.1, 0.4]])
        assert gmm_log_density(one, var, t)[0] == pytest.approx(gmm_log_density(two, var, t)[0])

    def test_two_components_direct_summation(self):
        means = np.array([[[0.0]], [[1.0]]])
        var = np.array([0.7])
        t = np.array([[0.4]])
        direct = 0.5 * sum(
            math.exp(-0.5 * (t[0, 0] - m) ** 2 / var[0]) / math.sqrt(2 * math.pi * var[0])
            for m in (0.0, 1.0)
        )
        assert gmm_log_density(means, var, t)[0] == pytest.approx(math.log(direct), abs=1e-12)

    def test_permutation_invariant(self):
        rng = make_rng(5)
        means = rng.standard_normal((6, 1, 2))
        var = np.array([0.3, 1.1])
        t = rng.standard_normal((1, 2))
        base = gmm_log_density(means, var, t)[0]
        shuffled = gmm_log_density(means[::-1].copy(), var, t)[0]
        assert base == pytest.approx(shuffled)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    n_comp=st.integers(1, 30),
    m=st.integers(1, 8),
    n_y=st.integers(1, 3),
    far=st.booleans(),
    diverged=st.booleans(),
)
def test_gmm_log_density_matches_scipy_logsumexp(seed, n_comp, m, n_y, far, diverged):
    rng = np.random.default_rng(seed)
    noise_var = rng.uniform(0.5, 2.0, n_y)
    t = rng.standard_normal((m, n_y))
    means = t + rng.standard_normal((n_comp, m, n_y))
    if far:  # every component's log density near -1e3, where exp underflows to 0
        means = t + np.sqrt(2000.0 * noise_var / n_y) + 0.01 * rng.standard_normal(means.shape)
    if diverged:  # row 0's squared error overflows in every component: all at -inf
        means[:, 0] = 1e200
    with np.errstate(over="ignore"):
        logp = -0.5 * (math.log(2 * math.pi) + np.log(noise_var) + (t - means) ** 2 / noise_var)
        value = gmm_log_density(means, noise_var, t)
    logp = logp.sum(axis=2)
    expected = logsumexp(logp, axis=0) - math.log(n_comp)
    finite = np.isfinite(expected)
    assert finite.all() != diverged
    if far:
        assert np.abs(logp[:, finite] + 1e3).max(initial=0.0) < 10.0
        assert (np.exp(logp).sum(axis=0) == 0.0).all()
    assert value.shape == expected.shape == (m,)
    assert (value[~finite] == -np.inf).all()
    gap = np.abs(value[finite] - expected[finite]).max(initial=0.0)
    assert gap <= 1e-12 * np.abs(expected[finite]).max(initial=0.0)


class TestViTraining:
    def test_deterministic_per_seed(self):
        data = _dataset(seed=6)
        cfg = TrainConfig(max_epochs=150, patience=100, seed=3)
        m1, h1 = vi_train(MlpSpec(1, (3,), 1), data, cfg)
        m2, h2 = vi_train(MlpSpec(1, (3,), 1), data, cfg)
        assert h1.train_objective == h2.train_objective
        np.testing.assert_array_equal(m1.mu, m2.mu)
        np.testing.assert_array_equal(m1.rho, m2.rho)

    def test_fits_and_predicts(self):
        data = _dataset(seed=7)
        model, history = vi_train(MlpSpec(1, (6,), 1), data, FAST)
        assert history.train_objective[history.best_epoch] < history.train_objective[0]
        rng = make_rng(0)
        means, noise_var = vi_predict_batch(model, data.x, 50, rng)
        mix_mean = means.mean(axis=0)
        assert float(np.mean((data.t - mix_mean) ** 2)) < 0.2

    def test_mixture_variance_has_noise_floor(self):
        data = _dataset(seed=8, m=20)
        model, _ = vi_train(MlpSpec(1, (3,), 1), data, FAST)
        means, noise_var = vi_predict_batch(model, data.x, 40, make_rng(1))
        total_var = means.var(axis=0) + noise_var
        assert (total_var >= noise_var - 1e-12).all()

    def test_single_sample_predictive_is_one_gaussian(self):
        data = _dataset(seed=9, m=15)
        model, _ = vi_train(MlpSpec(1, (3,), 1), data, FAST)
        means, noise_var = vi_predict_batch(model, data.x[:1], 1, make_rng(2))
        assert means.shape == (1, 1, 1)
        expected = -0.5 * (
            math.log(2 * math.pi * noise_var[0])
            + (data.t[0, 0] - means[0, 0, 0]) ** 2 / noise_var[0]
        )
        assert gmm_log_density(means, noise_var, data.t[:1])[0] == pytest.approx(expected)

    def test_collapsed_spreads_make_identical_components(self):
        data = _dataset(seed=10, m=12)
        model, _ = vi_train(MlpSpec(1, (3,), 1), data, FAST)
        from dataclasses import replace

        frozen_model = replace(model, rho=np.full_like(model.rho, -60.0))
        means, _ = vi_predict_batch(frozen_model, data.x[:1], 10, make_rng(3))
        assert np.abs(means - means[0]).max() < 1e-12

    def test_dataset_lpd_matches_pointwise_mixture(self):
        data = _dataset(seed=11, m=6)
        model, _ = vi_train(MlpSpec(1, (3,), 1), data, FAST)
        # shared components across points: recompute from the batch sampler
        means, noise_var = vi_predict_batch(model, data.x, 25, make_rng(4))
        per_point = [
            gmm_log_density(means[:, i : i + 1, :], noise_var, data.t[i : i + 1])[0]
            for i in range(data.m)
        ]
        np.testing.assert_allclose(
            gmm_log_density(means, noise_var, data.t), per_point, rtol=1e-12
        )


@pytest.mark.parametrize(
    "widths, rows, error",
    [
        ((1, 1), np.zeros((3, 2)), DimensionMismatch),  # two inputs for a one-input network
        ((1, 1), np.array([[0.5], [np.nan]]), ValueError),
        ((1, 1), np.array([[0.5], [np.inf]]), ValueError),
        ((2, 3), np.zeros((3, 1)), DimensionMismatch),
        ((2, 3), np.zeros((3, 3)), DimensionMismatch),
    ],
    ids=["wrong width", "nan", "inf", "2-in 3-out one wide", "2-in 3-out three wide"],
)
def test_malformed_query_rows_raise(widths, rows, error):
    # the checks bll.predict_batch makes, on both model kinds, each reading
    # its (n_x, n_y) off its layer shapes: a NaN row would give NaN means,
    # and an infinite one saturate tanh into finite ones
    n_x, n_y = widths
    spec = MlpSpec(n_x, (3,), n_y)
    params = init_params(spec, make_rng(0))
    n_weights = sum(w.size for w in params.weights)
    model = ViModel(
        np.concatenate(params.weights, axis=None),
        np.full(n_weights, -3.0),
        np.zeros(n_y),
        np.zeros(n_y),
        tuple(spec.layer_shapes()),
        identity_standardizer(n_x),
        identity_standardizer(n_y),
    )
    rng = make_rng(1)
    data = Dataset(rng.standard_normal((8, n_x)), rng.standard_normal((8, n_y)))
    bll_model = fit_posterior(params, BllHyper(0.0, np.zeros(n_y)), data)
    assert (model.n_x, model.n_y) == (bll_model.n_x, bll_model.n_y) == widths
    for predict in (
        lambda x: vi_predict_batch(model, x, 4, make_rng(1)),
        lambda x: predict_batch(bll_model, x),
    ):
        with pytest.raises(error) as raised:
            predict(rows)
        assert type(raised.value) is error
