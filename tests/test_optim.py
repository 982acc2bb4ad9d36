import numpy as np
import pytest

from lastlayer.training import adam_step


def _moments(params):
    return np.zeros_like(params), np.zeros_like(params)


def test_zero_gradient_leaves_params_unchanged():
    params = np.array([1.0, -2.0, 3.0])
    _, _, updated = adam_step(1, *_moments(params), params, np.zeros(3), 0.1)
    np.testing.assert_array_equal(params, updated)


def test_first_step_moves_by_learning_rate():
    # bias-corrected ratio m/sqrt(v) is sign(g) on the first step (eps << 1)
    params = np.array([5.0, -1.0])
    _, _, updated = adam_step(1, *_moments(params), params, np.array([2.0, -0.5]), 0.1)
    np.testing.assert_allclose(updated, [5.0 - 0.1, -1.0 + 0.1], rtol=0.0, atol=1e-8)


def test_deterministic_given_identical_state():
    rng = np.random.default_rng(0)
    params = rng.standard_normal((3, 2))
    grads = rng.standard_normal((3, 2))
    m1, v1, p1 = adam_step(1, *_moments(params), params, grads, 1e-3)
    m2, v2, p2 = adam_step(1, *_moments(params), params, grads, 1e-3)
    np.testing.assert_array_equal(p1, p2)
    np.testing.assert_array_equal(m1, m2)
    np.testing.assert_array_equal(v1, v2)


def test_step_is_functional():
    params = np.array([1.0])
    m, v = _moments(params)
    new_m, new_v, updated = adam_step(1, m, v, params, np.array([1.0]), 1e-3)
    np.testing.assert_array_equal(params, [1.0])
    np.testing.assert_array_equal(m, [0.0])
    np.testing.assert_array_equal(v, [0.0])
    assert new_m is not m and new_v is not v
    assert updated is not params


def test_shape_mismatch_rejected():
    params = np.zeros(2)
    with pytest.raises(ValueError, match="shape"):
        adam_step(1, *_moments(params), params, np.zeros(3), 1e-3)


def test_descends_a_quadratic():
    params = np.array([4.0, -3.0])
    m, v = _moments(params)
    for t in range(1, 2001):
        m, v, params = adam_step(t, m, v, params, 2.0 * params, 0.05)
    assert np.all(np.abs(params) < 1e-3)
