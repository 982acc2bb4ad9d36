import numpy as np
import pytest

from lastlayer.mlp import MlpParams, MlpSpec, features, forward_batch, init_params
from lastlayer.rng import make_rng


def test_spec_validation():
    with pytest.raises(ValueError):
        MlpSpec(1, (), 1)
    with pytest.raises(ValueError):
        MlpSpec(1, (0,), 1)
    for activation in ("relu", "sigmoid"):
        with pytest.raises(ValueError, match="tanh is the only one"):
            MlpSpec(1, (3,), 1, activation=activation)


def test_params_accept_only_tanh():
    spec = MlpSpec(1, (3,), 1)
    weights = tuple(np.zeros(s) for s in spec.layer_shapes())
    assert MlpParams(weights, spec.activation).activation == "tanh"
    with pytest.raises(ValueError, match="tanh is the only one"):
        MlpParams(weights, "relu")


def test_init_deterministic_per_seed():
    spec = MlpSpec(3, (2,), 1)
    a = init_params(spec, make_rng(5))
    b = init_params(spec, make_rng(5))
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)


def test_bias_rows_exactly_zero():
    params = init_params(MlpSpec(4, (6, 3), 2), make_rng(0))
    for w in params.weights:
        np.testing.assert_array_equal(w[-1], np.zeros(w.shape[1]))


def test_init_scale_matches_glorot():
    spec = MlpSpec(2, (20, 20), 1)
    entries = []
    for seed in range(30):
        params = init_params(spec, make_rng(seed))
        entries.append(params.weights[1][:-1].ravel())  # 20 -> 20 block
    entries = np.concatenate(entries)
    assert entries.size >= 10_000
    target = np.sqrt(2.0 / (20 + 20))
    assert abs(entries.std() - target) / target < 0.2


def test_forward_zero_weights():
    spec = MlpSpec(2, (3,), 1)
    params = MlpParams(tuple(np.zeros(s) for s in spec.layer_shapes()))
    y, phi = forward_batch(params, np.array([[1.0, -2.0]]))
    np.testing.assert_array_equal(y, [[0.0]])
    np.testing.assert_array_equal(phi, np.zeros((1, 3)))


def test_forward_single_neuron_hand_values():
    # one hidden tanh unit with unit weight, zero bias; unit output weight
    params = MlpParams((np.array([[1.0], [0.0]]), np.array([[1.0], [0.0]])))
    y0, _ = forward_batch(params, np.array([[0.0]]))
    assert y0[0, 0] == 0.0
    y1, phi1 = forward_batch(params, np.array([[1.0]]))
    assert phi1[0, 0] == pytest.approx(np.tanh(1.0))
    assert y1[0, 0] == pytest.approx(0.7615941559557649, abs=1e-10)


def test_features_last_column_is_one():
    params = init_params(MlpSpec(2, (4,), 1), make_rng(1))
    phi = features(params, np.random.default_rng(0).standard_normal((3, 2)))
    np.testing.assert_array_equal(phi[:, -1], np.ones(3))


def test_features_zero_weights_zero_columns():
    spec = MlpSpec(2, (3,), 1)
    params = MlpParams(tuple(np.zeros(s) for s in spec.layer_shapes()))
    phi = features(params, np.ones((4, 2)))
    np.testing.assert_array_equal(phi[:, :-1], np.zeros((4, 3)))


def test_features_consistent_with_forward():
    params = init_params(MlpSpec(3, (5, 4), 2), make_rng(2))
    x = np.random.default_rng(1).standard_normal((6, 3))
    phi = features(params, x)
    for i in range(6):
        _, phi_i = forward_batch(params, x[i : i + 1])
        np.testing.assert_allclose(phi[i, :-1], phi_i[0], rtol=1e-12)


def test_output_is_affine_in_features():
    # superposition on the last layer with hidden weights frozen
    params = init_params(MlpSpec(2, (4,), 2), make_rng(3))
    rng = np.random.default_rng(4)
    x = rng.standard_normal((5, 2))
    _, phi = forward_batch(params, x)
    w = params.wbar
    y_direct, _ = forward_batch(params, x)
    np.testing.assert_allclose(y_direct, phi @ w[:-1] + w[-1], rtol=1e-12)
    # doubling the last-layer body doubles (y - bias)
    doubled = params.replace_wbar(np.vstack([2.0 * w[:-1], w[-1:]]))
    y2, _ = forward_batch(doubled, x)
    np.testing.assert_allclose(y2 - w[-1], 2.0 * (y_direct - w[-1]), rtol=1e-10)

