"""The trimmed gradient heads against their verbatim references, bit for bit.

Each head returns exactly the doubles its reference in ``oracles`` returns:
the value and every gradient, over random networks, data and
hyperparameters.  Equality is ``array_equal``, not a tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lastlayer import autodiff
from lastlayer.autodiff import mlp_backward
from lastlayer.baselines import _mse_grads
from lastlayer.bll import BllHyper, _prior, masked_identity, negative_lml, negative_lml_grads
from lastlayer.data import Dataset
from lastlayer.linalg import NotPositiveDefinite
from lastlayer.mlp import MlpParams, forward_layers
from lastlayer.vi import _negative_elbo

from oracles import (
    mlp_backward_reference,
    mse_grads_reference,
    negative_elbo_reference,
    negative_lml_grads_reference,
    negative_lml_reference,
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
    outcome = _same_outcome(
        lambda: negative_lml_grads(params, hyper, data),
        lambda: negative_lml_grads_reference(params, hyper, data),
    )
    if outcome is None:
        return
    (value, (w_grads, g_la, g_ls)), (ref_value, (ref_w, ref_la, ref_ls)) = outcome
    assert value == ref_value
    _assert_arrays_equal(w_grads, ref_w)
    assert np.array_equal(g_la, ref_la)
    assert np.array_equal(g_ls, ref_ls)


@SETTINGS
@given(problem=problems(), with_hidden_grad=st.booleans())
def test_mlp_backward_matches_its_reference(problem, with_hidden_grad):
    params, _, data, rng = problem
    acts = forward_layers(params, data.x)
    d_out = rng.standard_normal(acts[-1].shape)
    d_hidden = rng.standard_normal(acts[-2].shape) if with_hidden_grad else None
    before = d_out.copy()
    got = mlp_backward(params.weights, acts, d_out, d_hidden)
    _assert_arrays_equal(got, mlp_backward_reference(params.weights, acts, d_out, d_hidden))
    assert np.array_equal(d_out, before)  # the caller's gradient is left alone


@SETTINGS
@given(problem=problems())
def test_mse_grads_match_their_reference(problem):
    params, _, data, _ = problem
    value, grads = _mse_grads(params.weights, data)
    ref_value, ref_grads = mse_grads_reference(params.weights, data)
    assert value == ref_value
    _assert_arrays_equal(grads, ref_grads)


@SETTINGS
@given(problem=problems())
def test_negative_elbo_matches_its_reference(problem):
    params, _, data, rng = problem
    shapes = [w.shape for w in params.weights]
    n_y = data.n_y
    leaves = [
        *params.weights,
        *(rng.uniform(-6.0, 0.0, size=s) for s in shapes),
        rng.uniform(-1.0, 1.0, size=n_y),
        rng.uniform(-2.0, 1.0, size=n_y),
    ]
    eps = [rng.standard_normal(s) for s in shapes]
    value, grads = _negative_elbo(leaves, eps, data.x, data.t)
    ref_value, ref_grads = negative_elbo_reference(leaves, eps, data.x, data.t)
    assert value == ref_value
    _assert_arrays_equal(grads, ref_grads)


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    shapes=st.lists(st.tuples(st.integers(1, 25), st.integers(1, 24)), min_size=1, max_size=4),
)
def test_one_flat_draw_equals_the_per_layer_draws(seed, shapes):
    # vi_train draws each step's noise as one flat vector viewed per layer.
    rng = np.random.default_rng(seed)
    per_layer = [rng.standard_normal(s) for s in shapes]
    flat = np.random.default_rng(seed).standard_normal(sum(r * c for r, c in shapes))
    offset = 0
    for s, draw in zip(shapes, per_layer):
        size = s[0] * s[1]
        assert np.array_equal(flat[offset : offset + size].reshape(s), draw)
        offset += size


@pytest.mark.parametrize("flat_bias", [True, False])
def test_cached_prior_is_read_only(flat_bias):
    prior, in_prior = _prior(4, flat_bias)
    np.testing.assert_array_equal(prior, masked_identity(4, flat_bias))
    np.testing.assert_array_equal(in_prior, np.diag(masked_identity(4, flat_bias)))
    with pytest.raises(ValueError):
        prior[0, 0] = 2.0
    with pytest.raises(ValueError):
        in_prior[0] = 2.0
    assert _prior(4, flat_bias)[0][0, 0] == 1.0


def test_cached_identity_is_read_only():
    eye = autodiff._identity(3)
    with pytest.raises(ValueError):
        eye[0, 1] = 1.0
    np.testing.assert_array_equal(autodiff._identity(3), np.eye(3))


def test_masked_identity_is_a_fresh_writable_copy():
    first = masked_identity(3)
    first[0, 0] = 5.0
    second = masked_identity(3)
    assert second is not first
    assert second.flags.writeable
    np.testing.assert_array_equal(second, np.diag([1.0, 1.0, 0.0]))
    np.testing.assert_array_equal(_prior(3, True)[0], np.diag([1.0, 1.0, 0.0]))
