"""The trimmed gradient heads against their verbatim references, bit for bit.

Each head returns exactly the doubles its reference in ``oracles`` returns:
the value and every gradient, over random networks, data and
hyperparameters.  The heads that write in place get one NaN-filled gradient
buffer, viewed per leaf as ``training.fit_loop`` views it, and must write
every entry; so does the objective ``training.fit_nlml`` hands
``fit_loop``, caught on its way there.  ``predict_batch`` is held to the one-pass prediction it
replaced, and ``vi_predict_batch`` to its per-component sampling helper.
Equality is ``array_equal``, not a tolerance, with one exception: the alpha
sweep, which runs the network once per row set and reads every alpha from
one spectrum and one product, matches the per-alpha loop within derived
bounds: its objective column within ``oracles.nlml_grid_bound`` of the
factored head, and its LPD columns within a bound derived from that
product's summation order.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lastlayer import training
from lastlayer.baselines import _mse_grads
from lastlayer.bll import (
    HYPER_CLAMP,
    BllHyper,
    fit_posterior,
    negative_lml,
    negative_lml_grads,
    nlml_grads_into,
    precision_bar,
    predict_batch,
    with_alpha,
)
from lastlayer.calibration import LOG_2PI, alpha_sweep
from lastlayer.data import Dataset, fit_standardizer
from lastlayer.linalg import NotPositiveDefinite, cholesky, identity
from lastlayer.mlp import MlpParams, affine_rows, forward_batch, forward_weights, mlp_backward
from lastlayer.vi import ViModel, _negative_elbo, vi_predict_batch

from oracles import (
    alpha_sweep_reference,
    mlp_backward_reference,
    nlml_grid_bound,
    mse_grads_reference,
    negative_elbo_reference,
    negative_lml_grads_reference,
    negative_lml_reference,
    predict_batch_reference,
    vi_predict_batch_reference,
)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def problems(draw):
    """A network (1-3 hidden layers, widths 1-24), data and hyperparameters."""
    n_x = draw(st.integers(1, 3))
    n_y = draw(st.integers(1, 3))
    hidden = draw(st.lists(st.integers(1, 24), min_size=1, max_size=3))
    m = draw(st.integers(1, 60))
    log_alpha = draw(st.floats(-15.0, 15.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dims = [n_x, *hidden, n_y]
    weights = tuple(
        rng.standard_normal((dims[i] + 1, dims[i + 1])) / np.sqrt(dims[i] + 1)
        for i in range(len(dims) - 1)
    )
    data = Dataset(rng.standard_normal((m, n_x)), rng.standard_normal((m, n_y)))
    hyper = BllHyper(log_alpha, rng.uniform(-2.0, 1.0, size=n_y))
    return MlpParams(weights), hyper, data, rng


def _same_outcome(fn, reference):
    """Both calls' results, or None when both raise the same factorization error."""
    try:
        expected = reference()
    except NotPositiveDefinite:
        with pytest.raises(NotPositiveDefinite):
            fn()
        return None
    return fn(), expected


def _nan_buffer(shapes):
    """One flat NaN gradient buffer and its per-leaf views, laid out as fit_loop lays them."""
    sizes = [int(np.prod(s)) for s in shapes]
    buffer = np.full(sum(sizes), np.nan)
    bounds = np.cumsum([0, *sizes])
    return buffer, [buffer[lo:hi].reshape(s) for lo, hi, s in zip(bounds, bounds[1:], shapes)]


def _assert_arrays_equal(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert np.shape(g) == np.shape(e)
        assert np.array_equal(g, e)


@SETTINGS
@given(problem=problems(), flat_bias=st.booleans())
def test_negative_lml_matches_its_reference(problem, flat_bias):
    params, hyper, data, _ = problem
    outcome = _same_outcome(
        lambda: negative_lml(params, hyper, data, flat_bias),
        lambda: negative_lml_reference(params, hyper, data, flat_bias),
    )
    if outcome is not None:
        got, expected = outcome
        assert got == expected


@SETTINGS
@given(problem=problems())
def test_negative_lml_grads_match_their_reference(problem):
    params, hyper, data, _ = problem
    buffer, out = _nan_buffer([*(w.shape for w in params.weights), (), hyper.log_sigma_e.shape])
    outcome = _same_outcome(
        lambda: (
            negative_lml_grads(params, hyper, data),
            nlml_grads_into(
                params.weights, float(hyper.log_alpha), hyper.log_sigma_e, data.x, data.t, out
            ),
        ),
        lambda: negative_lml_grads_reference(params, hyper, data),
    )
    if outcome is None:
        return
    ((value, (w_grads, g_la, g_ls)), in_place), (ref_value, (ref_w, ref_la, ref_ls)) = outcome
    assert value == in_place == ref_value
    _assert_arrays_equal(w_grads, ref_w)
    assert np.array_equal(g_la, ref_la)
    assert np.array_equal(g_ls, ref_ls)
    assert not np.isnan(buffer).any()
    _assert_arrays_equal(out, [*ref_w, ref_la, ref_ls])


class _Captured(Exception):
    """Raised by the spy that stands in for ``fit_loop``, once it holds the objective."""


def _fit_nlml_objective(weights, data):
    """The objective ``training.fit_nlml`` hands ``fit_loop`` for ``weights`` on ``data``."""
    captured = []

    def spy(leaves, loss_and_grads, cfg, monitor=None, post_step=None):
        captured.append(loss_and_grads)
        raise _Captured

    with mock.patch.object(training, "fit_loop", spy), pytest.raises(_Captured):
        training.fit_nlml(weights, data, None, training.TrainConfig())
    return captured[0]


@SETTINGS
@given(problem=problems(), frozen=st.booleans())
def test_the_fit_nlml_objective_matches_its_reference(problem, frozen):
    # frozen: blr's shape, the output layer alone on the network's last
    # hidden features, whose affine rows and gram fit_nlml reads once
    params, hyper, data, _ = problem
    if frozen:
        data = Dataset(forward_batch(params, data.x)[1], data.t)
        params = MlpParams((params.wbar,))
    objective = _fit_nlml_objective(params.weights, data)
    shapes = [*(w.shape for w in params.weights), (), hyper.log_sigma_e.shape]
    values = np.concatenate([*params.weights, [hyper.log_alpha], hyper.log_sigma_e], axis=None)
    leaves = training.flat_views(values, shapes)
    buffer, out = _nan_buffer(shapes)
    outcome = _same_outcome(
        lambda: objective(leaves, out),
        lambda: negative_lml_grads_reference(params, hyper, data),
    )
    if outcome is None:
        return
    value, (ref_value, (ref_w, ref_la, ref_ls)) = outcome
    assert value == ref_value
    assert not np.isnan(buffer).any()
    _assert_arrays_equal(out, [*ref_w, ref_la, ref_ls])


@SETTINGS
@given(problem=problems(), with_hidden_grad=st.booleans())
def test_mlp_backward_matches_its_reference(problem, with_hidden_grad):
    params, _, data, rng = problem
    acts = forward_weights(params.weights, data.x)
    d_out = rng.standard_normal(acts[-1].shape)
    d_hidden = rng.standard_normal(acts[-2].shape) if with_hidden_grad else None
    before = d_out.copy()
    buffer, got = _nan_buffer([w.shape for w in params.weights])
    mlp_backward(params.weights, acts, d_out, d_hidden, got)
    assert not np.isnan(buffer).any()
    _assert_arrays_equal(got, mlp_backward_reference(params.weights, acts, d_out, d_hidden))
    assert np.array_equal(d_out, before)  # the caller's gradient is left alone


@SETTINGS
@given(problem=problems())
def test_mse_grads_match_their_reference(problem):
    params, _, data, _ = problem
    buffer, out = _nan_buffer([w.shape for w in params.weights])
    value = _mse_grads(params.weights, data, out)
    ref_value, ref_grads = mse_grads_reference(params.weights, data)
    assert value == ref_value
    assert not np.isnan(buffer).any()
    _assert_arrays_equal(out, ref_grads)


@SETTINGS
@given(problem=problems())
def test_negative_elbo_matches_its_reference(problem):
    # vi trains its means, spreads and draw as flat vectors over every layer;
    # the reference takes them per layer
    params, _, data, rng = problem
    shapes = [w.shape for w in params.weights]
    n_layers, n_y = len(shapes), data.n_y
    leaves = [
        *params.weights,
        *(rng.uniform(-6.0, 0.0, size=s) for s in shapes),
        rng.uniform(-1.0, 1.0, size=n_y),
        rng.uniform(-2.0, 1.0, size=n_y),
    ]
    eps = [rng.standard_normal(s) for s in shapes]
    flat = [
        np.concatenate(leaves[:n_layers], axis=None),
        np.concatenate(leaves[n_layers : 2 * n_layers], axis=None),
        *leaves[2 * n_layers :],
    ]
    buffer, out = _nan_buffer([a.shape for a in flat])
    value = _negative_elbo(flat, out, np.concatenate(eps, axis=None), data.x, data.t, shapes)
    ref_value, ref_grads = negative_elbo_reference(leaves, eps, data.x, data.t)
    assert value == ref_value
    assert not np.isnan(buffer).any()
    assert np.array_equal(buffer, np.concatenate(ref_grads, axis=None))


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    shapes=st.lists(st.tuples(st.integers(1, 25), st.integers(1, 24)), min_size=1, max_size=4),
)
def test_one_flat_draw_equals_the_per_layer_draws(seed, shapes):
    # vi_train draws each step's noise as one flat vector over every layer.
    rng = np.random.default_rng(seed)
    per_layer = [rng.standard_normal(s) for s in shapes]
    flat = np.random.default_rng(seed).standard_normal(sum(r * c for r, c in shapes))
    offset = 0
    for s, draw in zip(shapes, per_layer):
        size = s[0] * s[1]
        assert np.array_equal(flat[offset : offset + size].reshape(s), draw)
        offset += size


def test_cached_identity_is_read_only():
    eye = identity(3)
    with pytest.raises(ValueError):
        eye[0, 1] = 1.0
    np.testing.assert_array_equal(identity(3), np.eye(3))


@pytest.mark.parametrize("zero_last", [True, False])
def test_cached_prior_is_read_only(zero_last):
    prior = identity(4, zero_last)
    np.testing.assert_array_equal(prior, np.diag([1.0, 1.0, 1.0, 0.0 if zero_last else 1.0]))
    with pytest.raises(ValueError):
        prior[0, 0] = 2.0
    with pytest.raises(ValueError):
        prior.diagonal()[0] = 2.0
    with pytest.raises(ValueError):
        prior[0, 1] = 1.0
    assert identity(4, zero_last) is prior
    assert prior[0, 0] == 1.0


@st.composite
def sweep_problems(draw):
    """A posterior in original units, 1-3 eval sets and a log-alpha grid.

    The grid runs from the trained log alpha to a top that is at most
    ``HYPER_CLAMP + 15``, where the prior term is far below the gram's.
    """
    params, hyper, data, rng = draw(problems())
    x_raw = rng.uniform(0.5, 3.0, size=data.n_x) * data.x + rng.standard_normal(data.n_x)
    t_raw = rng.uniform(0.5, 3.0, size=data.n_y) * data.t + rng.standard_normal(data.n_y)
    x_scaler, t_scaler = fit_standardizer(x_raw), fit_standardizer(t_raw)
    std = Dataset(x_scaler.transform(x_raw), t_scaler.transform(t_raw))
    try:
        model = fit_posterior(params, hyper, std, x_scaler, t_scaler)
    except NotPositiveDefinite:
        assume(False)
    eval_sets = {}
    for k in range(draw(st.integers(1, 3))):
        m = draw(st.integers(1, 60))
        x = 2.0 * rng.standard_normal((m, data.n_x))
        eval_sets[f"set{k}"] = Dataset(x, rng.standard_normal((m, data.n_y)))
    top = draw(st.one_of(st.just(HYPER_CLAMP + 15.0), st.floats(-HYPER_CLAMP, HYPER_CLAMP + 15.0)))
    grid = np.linspace(hyper.log_alpha, top, draw(st.integers(1, 8)))
    return model, Dataset(x_raw, t_raw), eval_sets, grid


@SETTINGS
@given(problem=sweep_problems())
def test_alpha_sweep_matches_the_per_alpha_loop(problem):
    model, train_data, eval_sets, grid = problem
    rows = alpha_sweep(model, train_data, eval_sets, grid)
    try:
        expected = alpha_sweep_reference(model, train_data, eval_sets, grid)
    except NotPositiveDefinite:
        return  # the reference's factor fails even with jitter; the spectrum needs none
    assert [list(row) for row in rows] == [list(row) for row in expected]
    y, a = forward_batch(model.params, model.x_scaler.transform(train_data.x))
    t_std = model.t_scaler.transform(train_data.t)
    for row, ref, log_alpha in zip(rows, expected, grid):
        assert row["log_alpha"] == ref["log_alpha"]
        tuned = with_alpha(model, float(np.exp(log_alpha)))
        # where the reference's factor needs jitter, the jitter moves its value
        if not _needs_jitter(affine_rows(a), tuned.alpha):
            bound = nlml_grid_bound(a, y, model.wbar, t_std, model.hyper.log_sigma_e, log_alpha)
            assert abs(row["nlml_train"] - ref["nlml_train"]) <= bound
        for name, data in eval_sets.items():
            bound = _lpd_bound(tuned, data)
            assert abs(row[f"lpd_{name}"] - ref[f"lpd_{name}"]) <= bound


def _needs_jitter(phi, alpha):
    try:
        cholesky(precision_bar(phi, alpha))
    except NotPositiveDefinite:
        return True
    return False


def _lpd_bound(model, data):
    """How far two LPDs of ``data`` may differ when each var_t is off by delta relative.

    Each var_t sums n_phi - 1 positive terms and adds a few positive ones,
    so two summation orders agree within delta = (n_phi + 4) * eps relative.
    That moves a log density 0.5 * (LOG_2PI + log v + r^2 / v) by at most
    0.5 * (1 + r^2 / v) * delta; on top, each side rounds its own terms, its
    sum over the outputs and its mean over the rows.
    """
    mean, _, var_t = predict_batch_reference(model, data.x)
    eps = np.finfo(float).eps
    delta = (model.phi.shape[1] + 4) * eps
    scaled = (data.t - mean) ** 2 / var_t
    moved = (0.5 * (1.0 + scaled) * delta / (1.0 - delta)).sum(axis=1).mean()
    size = (LOG_2PI + np.abs(np.log(var_t)) + scaled).sum(axis=1).mean()
    return moved + (len(mean) + mean.shape[1] + 8) * eps * size


@SETTINGS
@given(problem=sweep_problems())
def test_predict_batch_matches_the_one_pass_prediction(problem):
    model, train_data, eval_sets, grid = problem
    for log_alpha in grid:
        tuned = with_alpha(model, float(np.exp(log_alpha)))
        for data in (train_data, *eval_sets.values()):
            _assert_arrays_equal(predict_batch(tuned, data.x), predict_batch_reference(tuned, data.x))


@SETTINGS
@given(problem=problems(), n_samples=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_vi_predict_batch_matches_the_per_component_sampler(problem, n_samples, seed):
    # the same generator state on both sides: the draws must come in the same order
    params, _, data, rng = problem
    x_raw = rng.uniform(0.5, 3.0, size=data.n_x) * data.x + rng.standard_normal(data.n_x)
    t_raw = rng.uniform(0.5, 3.0, size=data.n_y) * data.t + rng.standard_normal(data.n_y)
    mu = np.concatenate(params.weights, axis=None)
    model = ViModel(
        mu,
        rng.uniform(-6.0, 0.0, size=mu.size),
        rng.uniform(-1.0, 1.0, size=data.n_y),
        rng.uniform(-2.0, 1.0, size=data.n_y),
        tuple(w.shape for w in params.weights),
        fit_standardizer(x_raw),
        fit_standardizer(t_raw),
    )
    means, noise_var = vi_predict_batch(model, x_raw, n_samples, np.random.default_rng(seed))
    ref_means, ref_noise_var = vi_predict_batch_reference(
        model, x_raw, n_samples, np.random.default_rng(seed)
    )
    assert means.shape == (n_samples, data.m, data.n_y)
    assert np.array_equal(means, ref_means)
    assert np.array_equal(noise_var, ref_noise_var)
