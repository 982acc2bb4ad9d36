"""Independent reference implementations used as test oracles.

Everything here recomputes expected values through routes the library does
not use: finite differences instead of the tape, characteristic-polynomial
eigenvalues instead of Cholesky, the m x m marginal Gaussian instead of the
feature-space precision, and the unscaled noise/prior parameterization of
the objective instead of the signal-to-noise form, the per-entry
Gaussian KL instead of the ELBO's inline sum, ``scipy.linalg.solve_triangular``
instead of the direct LAPACK calls, and a per-leaf Adam loop instead of the
flat parameter vector.
"""

import math

import numpy as np
from scipy.linalg import solve_triangular

from lastlayer.optim import adam_init, adam_step


def finite_difference(fn, arrays, h=1e-5):
    """Central-difference gradient of a scalar function of several arrays."""
    grads = []
    for i, a in enumerate(arrays):
        g = np.zeros_like(np.asarray(a, dtype=float))
        flat = g.ravel()
        for j in range(flat.size):
            plus = [np.array(x, dtype=float, copy=True) for x in arrays]
            minus = [np.array(x, dtype=float, copy=True) for x in arrays]
            plus[i].ravel()[j] += h
            minus[i].ravel()[j] -= h
            flat[j] = (fn(plus) - fn(minus)) / (2.0 * h)
        grads.append(g)
    return grads


def charpoly_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Eigenvalues via Faddeev-LeVerrier characteristic polynomial (dim <= 4).

    Coefficients come from trace recursions, roots from the polynomial; no
    factorization of ``a`` is involved.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if n > 4:
        raise ValueError("oracle intended for dim <= 4")
    coeffs = [1.0]
    mat = np.eye(n)
    for k in range(1, n + 1):
        mat = a @ mat
        ck = -np.trace(mat) / k
        coeffs.append(ck)
        mat = mat + ck * np.eye(n)
    roots = np.roots(coeffs)
    return np.sort(roots.real)


def random_spd(rng: np.random.Generator, dim: int, eig_low=0.1, eig_high=3.0):
    """Symmetric positive-definite matrix with controlled spectrum."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eigs = rng.uniform(eig_low, eig_high, size=dim)
    return (q * eigs) @ q.T, eigs


def marginal_gaussian_nll(phi, t, alpha, sigma_e):
    """Negative log density of N(t; 0, sigma_w^2 Phi Phi^T + sigma_e^2 I).

    The proper-prior marginal of the target vector, evaluated through the
    m x m covariance (its own Cholesky), with sigma_w^2 = alpha * sigma_e^2.
    """
    phi = np.asarray(phi, dtype=float)
    t = np.asarray(t, dtype=float).ravel()
    m = phi.shape[0]
    cov = alpha * sigma_e**2 * (phi @ phi.T) + sigma_e**2 * np.eye(m)
    lower = np.linalg.cholesky(cov)
    half = np.linalg.solve(lower, t)
    logdet = 2.0 * np.sum(np.log(np.diag(lower)))
    return 0.5 * (m * math.log(2.0 * math.pi) + logdet + half @ half)


def nlml_sigma_parameterization(phi, t, wbar, sigma_w, sigma_e, flat_bias=True):
    """Scaled negative LML written in the (sigma_w, sigma_e) variables.

    Direct transcription of the unscaled objective divided by the sample
    count; used to confirm the signal-to-noise reparameterization.
    """
    phi = np.asarray(phi, dtype=float)
    t = np.asarray(t, dtype=float).ravel()
    wbar = np.asarray(wbar, dtype=float).ravel()
    m, n_phi = phi.shape
    itil = np.eye(n_phi)
    if flat_bias:
        itil[-1, -1] = 0.0
    lam = phi.T @ phi / sigma_e**2 + itil / sigma_w**2
    sign, logdet = np.linalg.slogdet(lam)
    assert sign > 0
    resid = t - phi @ wbar
    wpen = wbar @ (itil @ wbar)
    total = (
        0.5 * m * math.log(2.0 * math.pi)
        + n_phi * math.log(sigma_w)
        + m * math.log(sigma_e)
        + 0.5 * logdet
        + 0.5 * resid @ resid / sigma_e**2
        + 0.5 * wpen / sigma_w**2
    )
    return total / m


def kl_diag_gaussian(mu, sigma, prior_sigma) -> float:
    """KL(N(mu, sigma^2) || N(0, prior_sigma^2)), summed over entries."""
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    prior_var = np.asarray(prior_sigma, dtype=float) ** 2
    return float(
        np.sum(0.5 * np.log(prior_var / sigma**2) + (sigma**2 + mu**2) / (2 * prior_var) - 0.5)
    )


def solve_pd_reference(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A @ x = b from the Cholesky factor through scipy's validated wrapper."""
    y = solve_triangular(lower, b, lower=True)
    return solve_triangular(lower.T, y, lower=False)


def fit_loop_per_leaf(leaves, loss_and_grads, cfg, monitor=None, post_step=None):
    """Early-stopped Adam with one optimizer entry per leaf and list snapshots.

    The loop ``training.fit_loop`` ran before it moved to one flat
    parameter vector; Adam is elementwise, so both must agree bit for bit.
    """
    state = adam_init(leaves, cfg.lr)
    train_objective, val_objective = [], []
    best_value, best_epoch = np.inf, 0
    best_leaves = [a.copy() for a in leaves]
    for epoch in range(cfg.max_epochs):
        value, grads = loss_and_grads(leaves)
        crit = value if monitor is None else monitor(leaves)
        train_objective.append(value)
        val_objective.append(crit)
        if crit < best_value:
            best_value, best_epoch = crit, epoch
            best_leaves = [a.copy() for a in leaves]
        elif epoch - best_epoch > cfg.patience:
            break
        state, leaves = adam_step(state, leaves, grads)
        if post_step is not None:
            leaves = post_step(leaves)
    return best_leaves, train_objective, val_objective, best_epoch
