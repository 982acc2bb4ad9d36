"""The trimmed gradient heads against their verbatim references, bit for bit.

Each head returns exactly the doubles its reference in ``oracles`` returns:
the value and every gradient, over random networks, data and
hyperparameters.  The heads that write in place get one NaN-filled gradient
buffer, viewed per leaf as ``training.fit_loop`` views it, and must write
every entry; so does the objective ``training.fit_nlml`` hands
``fit_loop``, caught on its way there.  ``predict_batch`` is held to the one-pass prediction it
replaced, and ``vi_predict_batch`` to its per-component sampling helper.
Each trainer's early-stopping monitor, which judges a block of epochs at
once, is held row by row to the value its epoch alone gets from the
public ``negative_lml`` or the per-epoch reference monitor.
Equality is ``array_equal``, not a tolerance, with two exceptions, both
where a log-determinant read off the centred feature spectrum
(``bll.spectral_logdet``) stands in for a Cholesky factor.  The alpha
sweep, which runs the network once per row set and reads every alpha from
one spectrum and one product, matches the per-alpha loop within derived
bounds: its objective column within ``oracles.nlml_grid_bound`` of the
factored head, and its LPD columns within a bound derived from that
product's summation order.  blr's objective on its frozen features keeps
its weight and log sigma_e gradients to the bit; its value lies within
``nlml_grid_bound`` and its log alpha gradient within
``oracles.log_alpha_grad_bound`` of the reference.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import lastlayer.vi as vi_trainer
from lastlayer import baselines, linalg, training
from lastlayer.baselines import _bind_mse
from lastlayer.bll import (
    HYPER_CLAMP,
    BllHyper,
    bind_nlml,
    fit_posterior,
    negative_lml,
    negative_lml_grads,
    precision_bar,
    predict_batch,
    with_alpha,
)
from lastlayer.calibration import LOG_2PI, alpha_sweep
from lastlayer.data import Dataset, fit_standardizer
from lastlayer.linalg import NotPositiveDefinite, cholesky, identity
from lastlayer.mlp import MlpParams, MlpSpec, affine_rows, forward_batch, forward_weights
from lastlayer.mlp import bind_backward, init_params
from lastlayer.rng import make_rng
from lastlayer.vi import ViModel, _bind_negative_elbo, vi_predict_batch

from oracles import (
    alpha_sweep_reference,
    log_alpha_grad_bound,
    mlp_backward_reference,
    nlml_grid_bound,
    mse_grads_reference,
    negative_elbo_reference,
    negative_lml_grads_reference,
    negative_lml_reference,
    predict_batch_reference,
    vi_monitor_reference,
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
            bind_nlml(
                [*params.weights, np.asarray(float(hyper.log_alpha)), hyper.log_sigma_e],
                out,
                data.x,
                data.t,
            )(),
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
    """Raised by the spy that stands in for ``fit_loop``, once it holds its arguments."""


def _caught_fit_loop_call(module, run):
    """The (leaves, objective, monitor) ``run`` hands ``module.fit_loop``, caught on their way."""
    captured = []

    def spy(leaves, loss_and_grads, cfg, monitor=None, post_step=None):
        captured.append((leaves, loss_and_grads, monitor))
        raise _Captured

    with mock.patch.object(module, "fit_loop", spy), pytest.raises(_Captured):
        run()
    return captured[0]


def _fit_nlml_objective(weights, data):
    """The objective ``training.fit_nlml`` hands ``fit_loop`` for ``weights`` on ``data``."""

    def run():
        training.fit_nlml(weights, data, None, training.TrainConfig())

    return _caught_fit_loop_call(training, run)[1]


@SETTINGS
@given(problem=problems(), frozen=st.booleans())
def test_the_fit_nlml_objective_matches_its_reference(problem, frozen):
    # frozen: blr's shape, the output layer alone on the network's last
    # hidden features, whose spectrum fit_nlml reads once; its value and
    # d_log_alpha come from that spectrum, not from the reference's factor
    params, hyper, data, _ = problem
    if frozen:
        data = Dataset(forward_batch(params, data.x)[1], data.t)
        params = MlpParams((params.wbar,))
    objective = _fit_nlml_objective(params.weights, data)
    shapes = [*(w.shape for w in params.weights), (), hyper.log_sigma_e.shape]
    values = np.concatenate([*params.weights, [hyper.log_alpha], hyper.log_sigma_e], axis=None)
    leaves = training.flat_views(values, shapes)
    buffer, out = _nan_buffer(shapes)
    if frozen:
        value = objective(leaves, out)
        assert not np.isnan(buffer).any()
        if _needs_jitter(affine_rows(data.x), hyper.alpha):
            return  # the reference's factor is jittered; the spectrum needs none
        ref_value, (ref_w, ref_la, ref_ls) = negative_lml_grads_reference(params, hyper, data)
        y = forward_batch(params, data.x)[0]
        args = (data.x, params.wbar, data.t, hyper.log_sigma_e, hyper.log_alpha)
        assert abs(value - ref_value) <= nlml_grid_bound(data.x, y, *args[1:])
        assert abs(out[1] - ref_la) <= log_alpha_grad_bound(*args)
        _assert_arrays_equal([out[0], out[2]], [*ref_w, ref_ls])
        return
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
    bind_backward(params.weights, got)(acts, d_out, d_hidden)
    assert not np.isnan(buffer).any()
    _assert_arrays_equal(got, mlp_backward_reference(params.weights, acts, d_out, d_hidden))
    assert np.array_equal(d_out, before)  # the caller's gradient is left alone


@SETTINGS
@given(problem=problems())
def test_mse_grads_match_their_reference(problem):
    params, _, data, _ = problem
    buffer, out = _nan_buffer([w.shape for w in params.weights])
    value = _bind_mse(params.weights, data, out)()
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
    draw = np.concatenate(eps, axis=None)
    value = _bind_negative_elbo(flat, out, draw, data.x, data.t, shapes)()
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


# The early-stopping monitors judge a block of epochs at once: every
# parameter leaf gains a leading block axis.  Each row's value must be the
# double the per-epoch monitor gave that epoch's parameters alone.


@pytest.mark.parametrize("hidden", [(), (4,), (6, 5, 3)])
@pytest.mark.parametrize("n_x", [1, 3])
def test_forward_weights_on_stacked_weights_matches_one_set_at_a_time(n_x, hidden):
    rng = np.random.default_rng(n_x + len(hidden))
    dims = [n_x, *hidden, 2]
    block = [
        [rng.standard_normal((dims[i] + 1, dims[i + 1])) for i in range(len(dims) - 1)]
        for _ in range(7)
    ]
    x = rng.standard_normal((9, n_x))
    stacked = forward_weights([np.stack(layer) for layer in zip(*block)], x)
    for row, weights in enumerate(block):
        alone = forward_weights(weights, x)
        assert len(stacked) == len(alone)
        for got, want in zip(stacked, alone):
            np.testing.assert_array_equal(got[row] if got.ndim == 3 else got, want, strict=True)


def _trainer_block(trainer, spec, data, cfg, rng, n_rows):
    """A trainer's block monitor, a block of ``n_rows`` drawn epochs and each row's per-epoch value.

    The block is viewed as ``fit_loop`` views its snapshot rows; each row's
    value comes from the public ``negative_lml`` (bll, blr) or the
    per-epoch reference monitor (mse, vi) on the standardized monitor rows.
    """
    val = training.standardized_splits(data, cfg)[3]
    frozen = init_params(spec, make_rng(1))
    module, run, value = {
        "bll": (
            training,
            lambda: training.train(spec, data, cfg),
            lambda w: negative_lml(MlpParams(tuple(w[:-2])), BllHyper(float(w[-2]), w[-1]), val),
        ),
        "blr": (
            training,
            lambda: baselines.blr_fit(frozen, data, cfg),
            lambda w: negative_lml(frozen.replace_wbar(w[0]), BllHyper(float(w[1]), w[2]), val),
        ),
        "mse": (
            baselines,
            lambda: baselines.train_mse(spec, data, cfg),
            lambda w: mse_grads_reference(w, val)[0],
        ),
        "vi": (
            vi_trainer,
            lambda: vi_trainer.vi_train(spec, data, cfg),
            lambda w: vi_monitor_reference(w[0], w[3], spec.layer_shapes(), val),
        ),
    }[trainer]
    leaves, _, monitor = _caught_fit_loop_call(module, run)
    rows = [[a + 0.3 * rng.standard_normal(np.shape(a)) for a in leaves] for _ in range(n_rows)]
    snapshots = np.stack([np.concatenate(row, axis=None) for row in rows])
    block = training.flat_views(snapshots, [np.shape(a) for a in leaves])
    return monitor, block, [value(row) for row in rows]


def _monitored_data(n_x, n_y, m, seed):
    rng = np.random.default_rng(seed)
    return Dataset(rng.standard_normal((m, n_x)), rng.standard_normal((m, n_y)))


@pytest.mark.parametrize("n_rows", [1, 9])
@pytest.mark.parametrize("n_y", [1, 3])
@pytest.mark.parametrize("trainer", ["bll", "blr", "mse", "vi"])
def test_each_block_monitor_matches_its_per_epoch_value(trainer, n_y, n_rows):
    spec = MlpSpec(2, (5, 4), n_y)
    data = _monitored_data(2, n_y, 40, seed=n_y)
    cfg = training.TrainConfig(max_epochs=5, patience=4)
    rng = np.random.default_rng(n_rows)
    monitor, block, expected = _trainer_block(trainer, spec, data, cfg, rng, n_rows)
    np.testing.assert_array_equal(monitor(block), expected, strict=True)


def test_a_near_singular_gram_in_a_block_alone_takes_the_jitter_ladder():
    # two monitor rows for six features: the gram has rank 2, and at
    # log alpha = 700 the prior does not lift it off singular
    spec = MlpSpec(1, (6,), 1)
    data = _monitored_data(1, 1, 10, seed=3)
    cfg = training.TrainConfig(max_epochs=5, patience=4)
    monitor, block, _ = _trainer_block("bll", spec, data, cfg, np.random.default_rng(4), 5)
    singular = 2
    block[-2][singular] = 700.0
    val = training.standardized_splits(data, cfg)[3]
    rows = [[leaf[row] for leaf in block] for row in range(5)]

    def per_epoch(w):
        return negative_lml(MlpParams(tuple(w[:-2])), BllHyper(float(w[-2]), w[-1]), val)

    calls = []

    def recorded(a, jitter=0.0):
        calls.append((np.array(a), jitter))
        return cholesky(a, jitter)

    with mock.patch.object(linalg, "cholesky", recorded):
        values = monitor(block)
    stack, _ = calls[0]
    assert stack.shape == (5, 7, 7)
    with pytest.raises(NotPositiveDefinite):
        cholesky(stack[singular])
    # the stack, then each matrix once unjittered, with the singular one's ladder
    plain = [a for a, jitter in calls[1:] if jitter == 0.0]
    ladder = [a for a, jitter in calls[1:] if jitter != 0.0]
    assert len(plain) == 5
    assert all(np.array_equal(a, one) for a, one in zip(plain, stack))
    assert ladder and all(np.array_equal(a, stack[singular]) for a in ladder)
    np.testing.assert_array_equal(values, [per_epoch(w) for w in rows], strict=True)
