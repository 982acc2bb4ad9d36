import numpy as np
import pytest

from lastlayer import autodiff as ad
from lastlayer.linalg import chol_spd, cholesky, identity, logdet_pd, solve_pd
from lastlayer.mlp import forward_weights, mlp_backward
from lastlayer.training import TrainConfig, fit_loop

from oracles import finite_difference, random_spd, writing


def test_linear_chain_matches_hand_derivative():
    # y = w2 * tanh(w1 * x); loss = 0.5 (y - t)^2 on scalars, zero biases
    x, t = 0.7, 0.3
    w1, w2 = 1.1, -0.4
    weights = (np.array([[w1], [0.0]]), np.array([[w2], [0.0]]))
    acts = forward_weights(weights, np.array([[x]]))
    a = np.tanh(w1 * x)
    dy = w2 * a - t
    grads = [np.empty(w.shape) for w in weights]
    mlp_backward(weights, acts, np.array([[dy]]), None, grads)
    np.testing.assert_allclose(grads[1], [[dy * a], [dy]], rtol=1e-12)
    dh = dy * w2 * (1 - a**2)
    np.testing.assert_allclose(grads[0], [[dh * x], [dh]], rtol=1e-12)


def test_matmul_transpose_affine_ones():
    # a head on the outputs and on the affine features [h, 1] at once:
    # loss = sum(y) + sum((Phi^T Phi)^2)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 2))
    weights = [rng.standard_normal((3, 4)), rng.standard_normal((5, 2))]

    def loss(arrays):
        acts = forward_weights(arrays, x)
        phi = np.concatenate([acts[-2], np.ones((6, 1))], axis=1)
        gram = phi.T @ phi
        return float(np.sum(acts[-1]) + np.sum(gram * gram))

    acts = forward_weights(weights, x)
    phi = np.concatenate([acts[-2], np.ones((6, 1))], axis=1)
    d_phi = 4.0 * phi @ (phi.T @ phi)
    grads = [np.empty(w.shape) for w in weights]
    mlp_backward(weights, acts, np.ones((6, 2)), d_phi[:, :-1], grads)
    for g, f in zip(grads, finite_difference(loss, weights)):
        np.testing.assert_allclose(g, f, rtol=1e-5, atol=1e-6)


def test_logdet_gradient_is_inverse():
    rng = np.random.default_rng(5)
    a, _ = random_spd(rng, 4)
    _, grad = ad.logdet_spd(a)
    np.testing.assert_allclose(grad(), np.linalg.inv(a), rtol=1e-8, atol=1e-10)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("log_cond", [0, 4, 8, 12, 15])
def test_logdet_gradient_is_the_identity_solve_bit_for_bit(seed, log_cond):
    # L^-T L^-1 must stay on gemm: numpy's syrk for A^T A rounds differently.
    rng = np.random.default_rng(seed)
    for dim in (1, 2, 5, 13, 21):
        a, _ = random_spd(rng, dim, eig_low=10.0**-log_cond, eig_high=1.0)
        a = np.triu(a) + np.triu(a, 1).T  # exactly symmetric
        _, grad = ad.logdet_spd(a)
        lower = chol_spd(a)
        assert np.array_equal(grad(), solve_pd(lower, identity(dim)))


def test_logdet_value_matches_cholesky():
    rng = np.random.default_rng(6)
    a, _ = random_spd(rng, 3)
    value, _ = ad.logdet_spd(a)
    assert value == pytest.approx(logdet_pd(cholesky(a)))


def test_logdet_composed_with_gram_finite_difference():
    rng = np.random.default_rng(7)
    phi = rng.standard_normal((5, 3))

    def loss(arrays):
        return ad.logdet_spd(arrays[0].T @ arrays[0] + 0.5 * np.eye(3))[0]

    _, grad = ad.logdet_spd(phi.T @ phi + 0.5 * np.eye(3))
    (fd,) = finite_difference(loss, [phi])
    np.testing.assert_allclose(2.0 * phi @ grad(), fd, rtol=1e-5)


def test_non_finite_loss_raises():
    def loss_and_grads(leaves):
        with np.errstate(over="ignore"):
            return float(np.exp(leaves[0])), [np.zeros(())]

    with pytest.raises(ad.NonFiniteLoss, match="epoch 0: objective evaluated to inf"):
        fit_loop(
            [np.asarray(1000.0)], writing(loss_and_grads), TrainConfig(max_epochs=10, patience=5)
        )
