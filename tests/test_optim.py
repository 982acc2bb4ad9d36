import numpy as np
import pytest

from lastlayer.optim import adam_init, adam_step


def test_zero_gradient_leaves_params_unchanged():
    params = np.array([1.0, -2.0, 3.0])
    state = adam_init(params, lr=0.1)
    _, updated = adam_step(state, params, np.zeros(3))
    np.testing.assert_array_equal(params, updated)


def test_first_step_moves_by_learning_rate():
    # bias-corrected ratio m/sqrt(v) is sign(g) on the first step (eps << 1)
    params = np.array([5.0, -1.0])
    state = adam_init(params, lr=0.1)
    _, updated = adam_step(state, params, np.array([2.0, -0.5]))
    np.testing.assert_allclose(updated, [5.0 - 0.1, -1.0 + 0.1], rtol=0.0, atol=1e-8)


def test_deterministic_given_identical_state():
    rng = np.random.default_rng(0)
    params = rng.standard_normal((3, 2))
    grads = rng.standard_normal((3, 2))
    s1, p1 = adam_step(adam_init(params), params, grads)
    s2, p2 = adam_step(adam_init(params), params, grads)
    np.testing.assert_array_equal(p1, p2)
    np.testing.assert_array_equal(s1.m, s2.m)
    np.testing.assert_array_equal(s1.v, s2.v)


def test_step_is_functional():
    params = np.array([1.0])
    state = adam_init(params)
    new_state, updated = adam_step(state, params, np.array([1.0]))
    np.testing.assert_array_equal(params, [1.0])
    np.testing.assert_array_equal(state.m, [0.0])
    np.testing.assert_array_equal(state.v, [0.0])
    assert state.step == 0
    assert new_state.step == 1
    assert updated is not params


def test_shape_mismatch_rejected():
    params = np.zeros(2)
    state = adam_init(params)
    with pytest.raises(ValueError, match="shape"):
        adam_step(state, params, np.zeros(3))


def test_descends_a_quadratic():
    params = np.array([4.0, -3.0])
    state = adam_init(params, lr=0.05)
    for _ in range(2000):
        state, params = adam_step(state, params, 2.0 * params)
    assert np.all(np.abs(params) < 1e-3)
