import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lastlayer.bll import (
    HYPER_CLAMP,
    PREDICT_BLOCK,
    BllHyper,
    closed_form_wbar,
    fit_posterior,
    negative_lml,
    negative_lml_grads,
    negative_lml_marginalized,
    precision_bar,
    predict,
    predict_batch,
    predictive_variances,
    with_alpha,
)
from lastlayer import autodiff, bll
from lastlayer.benchmarks import default_benchmark, sample_benchmark
from lastlayer.calibration import AlphaSearchConfig, alpha_sweep
from lastlayer.data import Dataset, fit_standardizer
from lastlayer.experiment import benchmark_train_config
from lastlayer.linalg import DimensionMismatch, NotPositiveDefinite, chol_spd, cholesky, solve_pd
from lastlayer.mlp import MlpParams, MlpSpec, affine_rows, features, forward_batch, init_params
from lastlayer.rng import make_rng
from lastlayer.training import train

from oracles import marginal_gaussian_nll, nlml_sigma_parameterization


def _random_instance(rng, n_y=1, hidden=(3,)):
    m = int(rng.integers(2, 11))
    n_x = int(rng.integers(1, 3))
    spec = MlpSpec(n_x, hidden, n_y)
    params = init_params(spec, make_rng(int(rng.integers(0, 1 << 16))))
    data = Dataset(rng.standard_normal((m, n_x)), rng.standard_normal((m, n_y)))
    hyper = BllHyper(float(rng.uniform(-1.5, 2.5)), rng.uniform(-1.0, 0.5, size=n_y))
    return params, hyper, data


def _one_sample_toy():
    """m=1 dataset whose feature row is exactly [tanh(0), 1] = [0, 1].

    At alpha = 1 with a flat bias prior the precision matrix is exactly I.
    """
    params = MlpParams((np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])))
    data = Dataset(np.array([[0.0]]), np.array([[1.0]]))
    hyper = BllHyper(0.0, np.array([0.0]))  # alpha = 1, sigma_e = 1
    return params, hyper, data


class TestPrecisionBar:
    def test_single_row_alpha_one(self):
        np.testing.assert_allclose(
            precision_bar(np.array([[1.0, 1.0]]), 1.0), [[2.0, 1.0], [1.0, 1.0]]
        )

    def test_single_row_alpha_half(self):
        np.testing.assert_allclose(
            precision_bar(np.array([[1.0, 1.0]]), 0.5), [[3.0, 1.0], [1.0, 1.0]]
        )

    def test_large_alpha_limit_is_gram(self):
        phi = np.array([[0.3, 1.0], [-0.2, 1.0]])
        np.testing.assert_allclose(
            precision_bar(phi, 1e14), phi.T @ phi, atol=1e-12
        )

    def test_bias_entry_gets_no_prior(self):
        phi = np.array([[0.5, 1.0]])
        lam = precision_bar(phi, 2.0)
        assert lam[-1, -1] == pytest.approx(1.0)  # only the data contribution
        assert lam[0, 0] == pytest.approx(0.25 + 0.5)

    def test_proper_mode_regularizes_bias(self):
        phi = np.array([[0.5, 1.0]])
        lam = precision_bar(phi, 2.0, flat_bias=False)
        assert lam[-1, -1] == pytest.approx(1.5)

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            precision_bar(np.eye(2), 0.0)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_alpha_must_be_finite(self, alpha):
        with pytest.raises(ValueError, match="finite and positive"):
            precision_bar(np.eye(2), alpha)


class TestClosedFormWbar:
    def test_hand_two_by_two(self):
        wbar = closed_form_wbar(np.array([[1.0, 1.0]]), np.array([1.0]), 1.0)
        np.testing.assert_allclose(wbar, [0.0, 1.0], atol=1e-12)

    def test_zero_targets_zero_weights(self):
        phi = np.array([[0.4, 1.0], [0.1, 1.0], [-0.7, 1.0]])
        np.testing.assert_allclose(
            closed_form_wbar(phi, np.zeros(3), 2.0), np.zeros(2), atol=1e-14
        )

    def test_large_alpha_recovers_least_squares(self):
        rng = np.random.default_rng(0)
        phi = np.concatenate([rng.standard_normal((8, 2)), np.ones((8, 1))], axis=1)
        t = rng.standard_normal(8)
        ols, *_ = np.linalg.lstsq(phi, t, rcond=None)
        np.testing.assert_allclose(closed_form_wbar(phi, t, 1e10), ols, atol=1e-6)

    def test_multi_output_columns(self):
        rng = np.random.default_rng(1)
        phi = np.concatenate([rng.standard_normal((5, 2)), np.ones((5, 1))], axis=1)
        t = rng.standard_normal((5, 2))
        both = closed_form_wbar(phi, t, 1.5)
        for j in range(2):
            np.testing.assert_allclose(both[:, j], closed_form_wbar(phi, t[:, j], 1.5))


class TestNegativeLml:
    def test_one_sample_zero_net_hand_value(self):
        spec = MlpSpec(1, (3,), 1)
        params = MlpParams(tuple(np.zeros(s) for s in spec.layer_shapes()))
        data = Dataset(np.array([[0.7]]), np.array([[0.0]]))
        hyper = BllHyper(0.0, np.array([0.0]))
        # features are [0,0,0,1]; the precision is the identity, logdet 0;
        # every data and weight term vanishes, leaving the constant.
        assert negative_lml(params, hyper, data) == pytest.approx(
            0.5 * math.log(2.0 * math.pi), abs=1e-12
        )

    def test_matches_noise_prior_parameterization(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            params, hyper, data = _random_instance(rng)
            phi = features(params, data.x)
            value = negative_lml(params, hyper, data)
            sigma_e = float(hyper.sigma_e[0])
            sigma_w = math.sqrt(hyper.alpha) * sigma_e
            oracle = nlml_sigma_parameterization(
                phi, data.t, params.wbar, sigma_w, sigma_e
            )
            assert value == pytest.approx(oracle, abs=1e-10)

    def test_proper_prior_matches_marginal_gaussian(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            params, hyper, data = _random_instance(rng)
            phi = features(params, data.x)
            wbar = closed_form_wbar(phi, data.t, hyper.alpha, flat_bias=False)
            at_opt = params.replace_wbar(wbar)
            value = negative_lml(at_opt, hyper, data, flat_bias=False)
            oracle = marginal_gaussian_nll(
                phi, data.t, hyper.alpha, float(hyper.sigma_e[0])
            )
            assert data.m * value == pytest.approx(oracle, abs=1e-8)

    def test_proper_prior_multivariate_sums_per_output_marginals(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            params, hyper, data = _random_instance(rng, n_y=2)
            phi = features(params, data.x)
            wbar = closed_form_wbar(phi, data.t, hyper.alpha, flat_bias=False)
            value = negative_lml(
                params.replace_wbar(wbar), hyper, data, flat_bias=False
            )
            oracle = sum(
                marginal_gaussian_nll(
                    phi, data.t[:, j], hyper.alpha, float(hyper.sigma_e[j])
                )
                for j in range(2)
            )
            assert data.m * value == pytest.approx(oracle, abs=1e-8)

    def test_duplicated_output_doubles_objective(self):
        rng = np.random.default_rng(5)
        params1, hyper1, data1 = _random_instance(rng)
        w = params1.wbar
        params2 = MlpParams((*params1.weights[:-1], np.concatenate([w, w], axis=1)))
        hyper2 = BllHyper(hyper1.log_alpha, np.repeat(hyper1.log_sigma_e, 2))
        data2 = Dataset(data1.x, np.concatenate([data1.t, data1.t], axis=1))
        assert negative_lml(params2, hyper2, data2) == pytest.approx(
            2.0 * negative_lml(params1, hyper1, data1), rel=1e-12
        )

    def test_stationary_at_closed_form_weights(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n_y = int(rng.integers(1, 3))
            params, hyper, data = _random_instance(rng, n_y=n_y)
            phi = features(params, data.x)
            at_opt = params.replace_wbar(closed_form_wbar(phi, data.t, hyper.alpha))
            _, (w_grads, _, _) = negative_lml_grads(at_opt, hyper, data)
            assert np.abs(w_grads[-1]).max() < 1e-6

    def test_equals_marginalized_at_closed_form(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n_y = int(rng.integers(1, 3))
            params, hyper, data = _random_instance(rng, n_y=n_y)
            phi = features(params, data.x)
            at_opt = params.replace_wbar(closed_form_wbar(phi, data.t, hyper.alpha))
            assert negative_lml(at_opt, hyper, data) == pytest.approx(
                negative_lml_marginalized(phi, data.t, hyper), abs=1e-10
            )

    def test_free_weights_never_beat_marginalized(self):
        rng = np.random.default_rng(8)
        params, hyper, data = _random_instance(rng)
        phi = features(params, data.x)
        floor = negative_lml_marginalized(phi, data.t, hyper)
        for _ in range(10):
            perturbed = params.replace_wbar(
                params.wbar + 0.3 * rng.standard_normal(params.wbar.shape)
            )
            assert negative_lml(perturbed, hyper, data) >= floor - 1e-12


class TestMultivariatePrecision:
    def test_kronecker_assembly_matches_per_output_blocks(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            phi = np.concatenate([rng.standard_normal((5, 2)), np.ones((5, 1))], axis=1)
            hyper = BllHyper(float(rng.uniform(-1, 2)), rng.uniform(-1, 0.5, size=2))
            lam_bar = precision_bar(phi, hyper.alpha)
            inv_sig2 = np.exp(-2.0 * hyper.log_sigma_e)
            full = np.kron(np.diag(inv_sig2), lam_bar)
            n = lam_bar.shape[0]
            for j in range(2):
                block = full[j * n : (j + 1) * n, j * n : (j + 1) * n]
                np.testing.assert_allclose(
                    block, inv_sig2[j] * lam_bar, rtol=0, atol=1e-10
                )
            off = full[:n, n : 2 * n]
            np.testing.assert_array_equal(off, np.zeros((n, n)))


class TestPredict:
    def test_one_sample_toy_unit_variance(self):
        params, hyper, data = _one_sample_toy()
        model = fit_posterior(params, hyper, data)
        dist = predict(model, np.array([0.0]))
        assert dist.mean[0] == pytest.approx(1.0)
        assert dist.var_y[0] == pytest.approx(1.0, abs=1e-12)
        assert dist.var_t[0] == pytest.approx(2.0, abs=1e-12)

    def test_noise_floor_gap_exact(self):
        rng = np.random.default_rng(10)
        params, hyper, data = _random_instance(rng, n_y=2)
        model = fit_posterior(params, hyper, data)
        x = rng.standard_normal((50, data.n_x))
        _, var_y, var_t = predict_batch(model, x)
        np.testing.assert_allclose(
            var_t - var_y, np.broadcast_to(model.sigma_e**2, var_y.shape), rtol=1e-12
        )

    def test_quadratic_form_nonnegative(self):
        rng = np.random.default_rng(11)
        params, hyper, data = _random_instance(rng)
        model = fit_posterior(params, hyper, data)
        x = rng.standard_normal((1000, data.n_x)) * 3.0
        _, var_y, _ = predict_batch(model, x)
        assert (var_y >= 0.0).all()

    def test_variance_nondecreasing_in_alpha(self):
        rng = np.random.default_rng(12)
        params, hyper, data = _random_instance(rng)
        phi = features(params, data.x)
        queries = rng.standard_normal((20, phi.shape[1] - 1))
        queries = np.concatenate([queries, np.ones((20, 1))], axis=1)
        for c in (2.0, 10.0, 100.0):
            lam_lo = chol_spd(precision_bar(phi, hyper.alpha))
            lam_hi = chol_spd(precision_bar(phi, hyper.alpha * c))
            q_lo = np.einsum("ij,ij->i", queries, solve_pd(lam_lo, queries.T).T)
            q_hi = np.einsum("ij,ij->i", queries, solve_pd(lam_hi, queries.T).T)
            assert (q_hi >= q_lo - 1e-12).all()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    n_x=st.integers(1, 3),
    n_y=st.integers(1, 3),
    rows=st.integers(1, 8),
)
def test_predict_batch_shapes_noise_gap_and_single_rows(seed, n_x, n_y, rows):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 11))
    x = rng.uniform(-2.0, 2.0, size=(m, n_x))
    t = 1.5 + 3.0 * rng.standard_normal((m, n_y))
    x_scaler, t_scaler = fit_standardizer(x), fit_standardizer(t)
    params = init_params(MlpSpec(n_x, (4, 3), n_y), make_rng(seed))
    hyper = BllHyper(float(rng.uniform(-1.5, 2.5)), rng.uniform(-1.0, 0.5, size=n_y))
    data = Dataset(x_scaler.transform(x), t_scaler.transform(t))
    model = fit_posterior(params, hyper, data, x_scaler=x_scaler, t_scaler=t_scaler)
    queries = 3.0 * rng.standard_normal((rows, n_x))

    mean, var_y, var_t = predict_batch(model, queries)
    for arr in (mean, var_y, var_t):
        assert arr.shape == (rows, n_y)
    assert (var_y >= 0.0).all()
    # the noise floor, up to the rounding of the subtraction
    assert (np.abs(var_t - var_y - model.sigma_e**2) <= 1e-12 * var_t).all()
    for i in range(rows):
        dist = predict(model, queries[i])
        for single, batch in ((dist.mean, mean), (dist.var_y, var_y), (dist.var_t, var_t)):
            np.testing.assert_allclose(
                single, batch[i], rtol=1e-12, atol=1e-12 * np.abs(batch).max()
            )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    m=st.integers(1, 60),
    width=st.integers(1, 24),
    log_alpha=st.floats(-10.0, 10.0),
)
def test_precision_bar_and_nlml_gram_are_exactly_symmetric(seed, m, width, log_alpha):
    # chol_spd skips its tolerance scan only for exactly symmetric input;
    # both precision matrices the package factors must be so by construction
    rng = np.random.default_rng(seed)
    params = init_params(MlpSpec(2, (width,), 2), make_rng(seed))
    data = Dataset(rng.standard_normal((m, 2)), rng.standard_normal((m, 2)))
    lam = precision_bar(features(params, data.x), math.exp(log_alpha))
    assert np.array_equal(lam, lam.T)

    grams = []
    logdet_spd = autodiff.logdet_spd

    def spy(a):
        grams.append(a)
        return logdet_spd(a)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(autodiff, "logdet_spd", spy)
        negative_lml(params, BllHyper(log_alpha, np.zeros(2)), data)
    (gram,) = grams
    assert gram.shape == (width + 1, width + 1)
    assert np.array_equal(gram, gram.T)


class TestFitPosterior:
    def test_refit_is_identical(self):
        rng = np.random.default_rng(13)
        params, hyper, data = _random_instance(rng)
        a = fit_posterior(params, hyper, data)
        b = fit_posterior(params, hyper, data)
        for field in ("feature_mean", "basis", "spectrum", "phi"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
        assert a.wbar_gap == b.wbar_gap

    def test_one_sample_toy_closed_form_weights(self):
        params, hyper, data = _one_sample_toy()
        model = fit_posterior(params, hyper, data)
        np.testing.assert_allclose(
            closed_form_wbar(model.phi, data.t, model.alpha), [[0.0], [1.0]], atol=1e-12
        )

    @pytest.mark.parametrize("m", [1, 3, 10])
    def test_centred_gram_reconstructible_from_eigenbasis(self, m):
        # width 6: with fewer rows than features the basis must still be square
        rng = np.random.default_rng(14)
        params = init_params(MlpSpec(2, (6,), 1), make_rng(m))
        data = Dataset(rng.standard_normal((m, 2)), rng.standard_normal((m, 1)))
        model = fit_posterior(params, BllHyper(0.0, np.zeros(1)), data)
        centred = model.phi[:, :-1] - model.phi[:, :-1].mean(axis=0)
        target = centred.T @ centred
        np.testing.assert_array_equal(model.feature_mean, model.phi[:, :-1].mean(axis=0))
        assert model.basis.shape == (6, 6)
        assert (model.spectrum >= 0.0).all()
        assert (model.spectrum[min(m, 6) :] == 0.0).all()
        np.testing.assert_allclose(model.basis.T @ model.basis, np.eye(6), atol=1e-12)
        rebuilt = (model.basis * model.spectrum) @ model.basis.T
        assert np.abs(rebuilt - target).max() < 1e-12 * (1 + np.abs(target).max())

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_features(self, bad):
        params, hyper, data = _random_instance(np.random.default_rng(15))
        weights = [w.copy() for w in params.weights]
        weights[0][0, 0] = bad
        data = Dataset(np.zeros((data.m, data.n_x)), data.t)  # 0 * inf is NaN
        with pytest.raises(ValueError, match="features"), np.errstate(invalid="ignore"):
            fit_posterior(MlpParams(tuple(weights)), hyper, data)

    def test_rejects_a_fit_set_without_rows(self):
        params, hyper, data = _random_instance(np.random.default_rng(3))
        with pytest.raises(ValueError, match="at least one"):
            fit_posterior(params, hyper, data.subset(np.arange(0)))

    @pytest.mark.parametrize(
        "n_sigma, n_out", [(3, 1), (1, 3)], ids=["three noise scales", "three outputs"]
    )
    def test_rejects_noise_scales_or_outputs_of_another_width_than_the_targets(
        self, n_sigma, n_out
    ):
        # one target column: predict_batch would broadcast it to three
        rng = np.random.default_rng(4)
        params = init_params(MlpSpec(2, (3,), n_out), make_rng(4))
        data = Dataset(rng.standard_normal((5, 2)), rng.standard_normal((5, 1)))
        with pytest.raises(DimensionMismatch) as raised:
            fit_posterior(params, BllHyper(0.0, np.zeros(n_sigma)), data)
        assert type(raised.value) is DimensionMismatch

    def test_one_spectrum_route(self, monkeypatch):
        # fit_posterior and the sweep's objective read the centred spectrum
        # from one helper; nothing eigendecomposes a gram
        params, hyper, data = _random_instance(np.random.default_rng(20))
        calls = []
        centred_spectrum = bll.centred_spectrum

        def counted(a):
            calls.append(a.shape)
            return centred_spectrum(a)

        def refused(*args, **kwargs):
            raise AssertionError("no eigendecomposition expected")

        monkeypatch.setattr(bll, "centred_spectrum", counted)
        monkeypatch.setattr(np.linalg, "eigh", refused)
        monkeypatch.setattr(np.linalg, "eigvalsh", refused)
        model = fit_posterior(params, hyper, data)
        grid = np.linspace(model.hyper.log_alpha, model.hyper.log_alpha + 15.0, 7)
        assert len(alpha_sweep(model, data, {"train": data}, grid)) == 7
        assert calls == [(data.m, 3), (data.m, 3)]


def _mp_quads(phi, alpha, rows):
    """phi^T (Phi^T Phi + alpha^-1 I~)^-1 phi per row of ``rows``, at 50 digits.

    The precision is built exactly from the float entries of ``phi`` and
    ``alpha``, factored once, and each row solved by forward substitution.
    """
    with mpmath.workdps(50):
        n = phi.shape[1]
        gram = mpmath.matrix(phi.tolist())
        precision = gram.T * gram
        for i in range(n - 1):  # the bias keeps its flat prior
            precision[i, i] += 1 / mpmath.mpf(alpha)
        lower = mpmath.cholesky(precision)
        quads = []
        for row in rows:
            z = []
            for i in range(n):
                partial = mpmath.fsum(lower[i, j] * z[j] for j in range(i))
                z.append((mpmath.mpf(float(row[i])) - partial) / lower[i, i])
            quads.append(float(mpmath.fsum(zi * zi for zi in z)))
    return np.array(quads)


def test_predictive_variances_at_the_top_of_the_search_match_a_50_digit_solve():
    # A 400-epoch bll network on the seed-0 benchmark, read at log alpha* + 15,
    # the top of tune_alpha's span: 1/(lambda_k + 1/alpha) magnifies the
    # absolute error of a small lambda_k, which an eigensolver on the gram
    # leaves at about eps * lambda_max (1e-8 relative here).
    splits = sample_benchmark(default_benchmark(), 0)
    cfg = replace(benchmark_train_config(), max_epochs=400, patience=399)
    spec = MlpSpec(splits["train"].n_x, (20, 20, 20), splits["train"].n_y)
    model, _ = train(spec, splits["train"], cfg)
    alpha = math.exp(model.hyper.log_alpha + AlphaSearchConfig().span)
    _, a = forward_batch(model.params, model.x_scaler.transform(splits["test"].x[:20]))
    var_y, _ = predictive_variances(model, a, alpha)
    expected = _mp_quads(model.phi, alpha, affine_rows(a))
    scale = np.exp(2.0 * model.hyper.log_sigma_e) * model.t_scaler.scale**2
    worst = (np.abs(var_y / scale - expected[:, None]) / expected[:, None]).max()
    assert worst <= 1e-11, f"largest relative error {worst:.2e}"


class TestWithAlpha:
    def test_moves_alpha_alone(self):
        params, hyper, data = _random_instance(np.random.default_rng(16))
        model = fit_posterior(params, hyper, data)
        tuned = with_alpha(model, 7.5)
        assert tuned.alpha == pytest.approx(7.5, rel=1e-15)
        np.testing.assert_array_equal(tuned.hyper.log_sigma_e, model.hyper.log_sigma_e)
        for field in ("params", "feature_mean", "basis", "spectrum", "phi", "wbar_gap"):
            assert getattr(tuned, field) is getattr(model, field)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, -np.inf, np.inf, np.nan])
    def test_rejects_non_positive_or_non_finite_alpha(self, alpha):
        params, hyper, data = _random_instance(np.random.default_rng(17))
        model = fit_posterior(params, hyper, data)
        with pytest.raises(ValueError, match="alpha"):
            with_alpha(model, alpha)


class TestPredictBatchInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_query_row(self, bad):
        params, hyper, data = _random_instance(np.random.default_rng(18))
        model = fit_posterior(params, hyper, data)
        x = np.zeros((4, data.n_x))
        x[2, -1] = bad
        with pytest.raises(ValueError, match="query rows"):
            predict_batch(model, x)
        with pytest.raises(ValueError, match="query rows"):
            predict(model, x[2])

    def test_long_call_is_its_blocks_concatenated(self):
        rng = np.random.default_rng(19)
        params, hyper, data = _random_instance(rng, n_y=2, hidden=(5,))
        model = fit_posterior(params, hyper, data)
        x = 3.0 * rng.standard_normal((2500, data.n_x))
        assert PREDICT_BLOCK < 2500
        whole = predict_batch(model, x)
        blocks = [predict_batch(model, x[i : i + PREDICT_BLOCK]) for i in range(0, 2500, PREDICT_BLOCK)]
        for got, parts in zip(whole, zip(*blocks)):
            assert got.shape == (2500, 2)
            assert np.array_equal(got, np.concatenate(parts))


@st.composite
def eigenbasis_problems(draw):
    """A one-layer network whose features may be rank-deficient, and a log alpha.

    Units can repeat one another or have no input weights, so that their
    feature columns coincide or are constant, and ``m`` can be below the width.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_x = draw(st.integers(1, 3))
    width = draw(st.integers(1, 20))
    m = draw(st.integers(1, 30))
    w = rng.standard_normal((n_x + 1, width))
    for j in range(width):
        kind = draw(st.sampled_from(["free", "repeat", "dead"]))
        if kind == "repeat" and j > 0:
            w[:, j] = w[:, draw(st.integers(0, j - 1))]
        elif kind == "dead":
            w[:-1, j] = 0.0
    wbar = rng.standard_normal((width + 1, 1))
    data = Dataset(rng.standard_normal((m, n_x)), rng.standard_normal((m, 1)))
    model = fit_posterior(MlpParams((w, wbar)), BllHyper(0.0, np.zeros(1)), data)
    queries = np.concatenate([data.x, 2.0 * rng.standard_normal((8, n_x))])
    return model, features(model.params, queries), draw(st.floats(-15.0, 30.0))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(problem=eigenbasis_problems())
def test_eigenbasis_quad_matches_the_factor_solve(problem):
    # Both routes are backward stable, so each quad is within c * n * eps *
    # cond(P) of phi^T P^-1 phi in relative terms (the Schur complement on
    # the bias is no worse conditioned than P itself).
    model, phi, log_alpha = problem
    tuned = with_alpha(model, math.exp(log_alpha))
    var_y, _ = predictive_variances(model, phi[:, :-1], tuned.alpha)
    quad = var_y[:, 0] / tuned.hyper.sigma_e[0] ** 2
    assert np.isfinite(quad).all() and (quad > 0.0).all()
    lam = precision_bar(model.phi, tuned.alpha)
    try:
        factor = cholesky(lam)
    except NotPositiveDefinite:
        return  # the factor route needs jitter here; the eigenbasis does not
    expected = np.einsum("ij,ij->i", phi, solve_pd(factor, phi.T).T)
    bound = 16 * lam.shape[0] * np.finfo(float).eps * np.linalg.cond(lam)
    assert (np.abs(quad - expected) <= bound * np.abs(expected)).all()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    problem=eigenbasis_problems(),
    log_alphas=st.lists(
        st.floats(-HYPER_CLAMP, HYPER_CLAMP + AlphaSearchConfig().span), min_size=1, max_size=8
    ),
)
def test_alpha_array_matches_the_stacked_single_alpha_calls(problem, log_alphas):
    # Each quad sums n_phi - 1 positive terms, then 1/m: any two summation
    # orders agree within about 2 * n_phi * u = n_phi * eps relative, and the
    # products with sigma_e^2 and the target scale, and the positive noise
    # term added for var_t, add at most a few more roundings.
    model, phi, _ = problem
    alphas = np.exp(log_alphas)
    a = phi[:, :-1]
    var_y, var_t = predictive_variances(model, a, alphas)
    assert var_y.shape == var_t.shape == (len(a), len(alphas), 1)
    singles = [predictive_variances(model, a, float(alpha)) for alpha in alphas]
    bound = (model.phi.shape[1] + 4) * np.finfo(float).eps
    for got, expected in zip((var_y, var_t), zip(*singles)):
        expected = np.stack(expected, axis=1)
        assert (np.abs(got - expected) <= bound * expected).all()


class TestBllHyper:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            BllHyper(float("nan"), np.array([0.0]))

    @pytest.mark.parametrize("log_alpha", [710.0, -710.0])
    def test_rejects_log_alpha_whose_alpha_or_inverse_overflows(self, log_alpha):
        with pytest.raises(ValueError):
            BllHyper(log_alpha, np.array([0.0]))

    def test_rejects_log_sigma_e_of_more_than_one_dimension(self):
        with pytest.raises(ValueError, match="1-D"):
            BllHyper(0.0, np.zeros((1, 1)))

    @pytest.mark.parametrize("log_alpha", [709.0, -709.0])
    def test_accepts_log_alpha_with_finite_alpha_and_inverse(self, log_alpha):
        hyper = BllHyper(log_alpha, np.array([0.0]))
        assert 0.0 < hyper.alpha < math.inf and 0.0 < 1.0 / hyper.alpha < math.inf

    def test_masked_identity_pattern(self):
        # With zero features the precision is the prior pattern alone.
        np.testing.assert_array_equal(
            precision_bar(np.zeros((1, 3)), 1.0), np.diag([1.0, 1.0, 0.0])
        )
        np.testing.assert_array_equal(precision_bar(np.zeros((1, 2)), 1.0, flat_bias=False), np.eye(2))
