"""Independent reference implementations used as test oracles.

Everything here recomputes expected values through routes the library does
not use: finite differences instead of the tape, characteristic-polynomial
eigenvalues instead of Cholesky, the m x m marginal Gaussian instead of the
feature-space precision, and the unscaled noise/prior parameterization of
the objective instead of the signal-to-noise form, the per-entry
Gaussian KL instead of the ELBO's inline sum, ``scipy.linalg.solve_triangular``
instead of the direct LAPACK calls, and a per-leaf Adam loop instead of the
flat parameter vector.

The ``*_reference`` gradient heads at the end are the exception: they are
the heads as they stood before their numpy wrappers were trimmed (``np.sum``,
``np.diag``, a fresh ``np.eye`` and a ``np.vstack`` per call), kept verbatim
so that the trimmed heads (``bll.negative_lml``, ``negative_lml_grads`` and
the in-place ``nlml_grads_into``, the ELBO, the MSE and the reverse sweep)
can be checked against them bit for bit.  They run the network through
``mlp.forward_weights``, the one forward pass.  So are
``predict_batch_reference`` and ``alpha_sweep_reference``: the one-pass
prediction and the sweep that ran the network again at every alpha, from
before the sweep cached each row set's network outputs (the prediction
reads the model's eigenbasis as ``bll.predictive_variances`` does); and
``vi_predict_batch_reference``, the mixture prediction that drew each
component through its own sampling helper, recomputing the spreads each time.
``write_table_csv_reference`` writes every row through ``csv.writer``, as
the table and dataset writers did before their rows were joined directly.
"""

import csv
import math

import numpy as np
from scipy.linalg import solve_triangular

from lastlayer.autodiff import NonFiniteLoss
from lastlayer.calibration import LOG_2PI, gaussian_log_density
from lastlayer.data import Dataset
from lastlayer.linalg import chol_spd, solve_pd
from lastlayer.bll import negative_lml, with_alpha
from lastlayer.mlp import MlpParams, forward_batch, forward_weights
from lastlayer.training import adam_step
from lastlayer.vi import HIDDEN_PRIOR_VAR


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


def nlml_grid_bound(a, y, wbar, t, log_sigma_e, log_alpha) -> float:
    """How far ``bll.nlml_head_grid`` and ``bll.nlml_head`` may differ at one log alpha.

    The head factors A = Phi^T Phi + alpha^-1 I~; the grid reads the
    spectrum lambda of the centred gram C as squared singular values.  A
    backward-stable factor perturbs A by about c * n_phi * eps *
    lambda_max(A), and a backward-stable SVD each lambda_k by at most about
    twice that relative to lambda_max(C); either moves a log-determinant by
    that times the trace of the inverse.  lambda_max(C) <= lambda_max(A), and
    tr((C + alpha^-1 I)^-1) <= tr(A^-1) because that inverse is a diagonal
    block of A^-1 (the flat bias eliminated), so one term bounds both routes:
    c * n_phi * eps * lambda_max(A) * tr(A^-1), scaled by n_y / 2m.  tr(A^-1)
    comes from the same block inverse, as 1/m + sum_k (1 + (mu . v_k)^2) /
    (lambda_k + alpha^-1), and no ill-conditioned inverse is formed.  On top,
    each side rounds its six terms and their sum, and the log-determinant's
    n_phi logs and their sum: (n_phi + 6) * eps of the terms' magnitudes.

    c = 4: over 24,000 random comparisons the drift reached 1.9 times this
    bound at c = 1 (0.47 times it at c = 4), on a feature of constant
    value f, where the head's bias pivot m - (m f)^2 / (m f^2 + alpha^-1)
    cancels to alpha^-1 / (f^2 + alpha^-1 / m) after about six roundings
    of entries of size lambda_max(A).
    """
    eps = np.finfo(float).eps
    m, n_y = t.shape
    n_phi = a.shape[1] + 1
    inv_alpha = math.exp(-log_alpha)
    mean = a.mean(axis=0)
    lam, basis = np.linalg.eigh((a - mean).T @ (a - mean))
    lam = np.maximum(lam, 0.0)
    tr_inv = 1.0 / m + ((1.0 + (mean @ basis) ** 2) / (lam + inv_alpha)).sum()
    phi = np.column_stack([a, np.ones(m)])
    prior = np.eye(n_phi)
    prior[-1, -1] = 0.0
    lam_max = np.linalg.eigvalsh(phi.T @ phi + inv_alpha * prior)[-1]
    logdet_moved = (n_y / (2.0 * m)) * 4 * n_phi * eps * lam_max * tr_inv
    inv_sig2 = np.exp(-2.0 * np.asarray(log_sigma_e, dtype=float))
    terms = (
        0.5 * n_y * LOG_2PI
        + abs(n_y * n_phi / (2.0 * m) * log_alpha)
        + (n_y / (2.0 * m)) * (math.log(m) + np.abs(np.log(lam + inv_alpha)).sum())
        + np.abs(log_sigma_e).sum()
        + (0.5 / m) * (((t - y) ** 2).sum(axis=0) * inv_sig2).sum()
        + (0.5 / m) * inv_alpha * ((wbar[:-1] ** 2).sum(axis=0) * inv_sig2).sum()
    )
    return float(logdet_moved + (n_phi + 6) * eps * terms)


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
    """Early-stopped Adam with one optimizer state per leaf and list snapshots.

    The loop ``training.fit_loop`` ran before it moved to one flat
    parameter vector; Adam is elementwise, so both must agree bit for bit.
    It counts its own steps, where ``fit_loop`` passes the epoch plus one.
    """
    states = [(np.zeros_like(a), np.zeros_like(a)) for a in leaves]
    step = 0
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
        step += 1
        steps = [
            adam_step(step, m, v, a, g, cfg.lr)
            for (m, v), a, g in zip(states, leaves, grads, strict=True)
        ]
        states, leaves = [(m, v) for m, v, _ in steps], [a for _, _, a in steps]
        if post_step is not None:
            leaves = post_step(leaves)
    return best_leaves, train_objective, val_objective, best_epoch


def returning(loss_and_grads):
    """The objective ``fit_loop_per_leaf`` takes, from one that writes in place.

    ``loss_and_grads(leaves, grads) -> value`` is the protocol of
    ``training.fit_loop``; the result returns (value, grads) with the
    gradients in fresh arrays, every entry NaN until the objective writes it.
    """

    def returns(leaves):
        grads = [np.full(np.shape(a), np.nan) for a in leaves]
        return loss_and_grads(leaves, grads), grads

    return returns


def writing(loss_and_grads):
    """The in-place objective ``training.fit_loop`` takes, from one returning (value, grads)."""

    def writes(leaves, grads):
        value, new = loss_and_grads(leaves)
        for g, src in zip(grads, new, strict=True):
            g[...] = src
        return value

    return writes


def logdet_spd_reference(a: np.ndarray):
    """Log-determinant and a function giving its gradient A^-1."""
    lower = chol_spd(a)
    logdet = float(2.0 * np.sum(np.log(np.diag(lower))))
    return logdet, lambda: solve_pd(lower, np.eye(len(lower)))


def mlp_backward_reference(weights, acts, d_out, d_last_hidden):
    """Reverse sweep through the network; one fresh array per step."""
    n_layers = len(weights)
    grads = [None] * n_layers
    g = d_out
    for k in range(n_layers - 1, -1, -1):
        grads[k] = np.vstack([acts[k].T @ g, g.sum(axis=0)])
        if k == 0:
            break
        g = g @ weights[k][:-1].T
        if k == n_layers - 1 and d_last_hidden is not None:
            g = g + d_last_hidden
        h = acts[k]
        g = g * (1.0 - h * h)
    return grads


def nlml_head_reference(a, y, wbar, t, hyper, flat_bias=True):
    """Scaled negative LML on the last layer and a function giving its gradients."""
    m, n_y = t.shape
    phi = np.concatenate([a, np.ones((m, 1))], axis=1)
    n_phi = phi.shape[1]
    log_alpha = np.asarray(hyper.log_alpha, dtype=float)
    inv_alpha = np.exp(-log_alpha)
    prior = np.eye(n_phi)
    if flat_bias:
        prior[-1, -1] = 0.0
    in_prior = np.diag(prior)  # 0 on a flat bias row
    logdet, logdet_grad = logdet_spd_reference(phi.T @ phi + inv_alpha * prior)

    inv_sig2 = np.exp(-2.0 * hyper.log_sigma_e)
    resid = t - y
    misfit = np.sum(resid * resid, axis=0)
    wpen_rows = wbar * in_prior[:, None]
    wpen = np.sum(wpen_rows * wpen_rows, axis=0)

    value = float(
        0.5 * n_y * math.log(2.0 * math.pi)
        + (n_y * n_phi / (2.0 * m)) * log_alpha
        + (n_y / (2.0 * m)) * logdet
        + np.sum(hyper.log_sigma_e)
        + (0.5 / m) * np.sum(misfit * inv_sig2)
        + (0.5 / m) * (inv_alpha * np.sum(wpen * inv_sig2))
    )
    if not np.isfinite(value):
        raise NonFiniteLoss(f"objective evaluated to {value}")

    def grad_fn():
        lam_inv = logdet_grad()
        d_y = (-1.0 / m) * resid * inv_sig2
        d_a = (n_y / m) * (phi @ lam_inv)[:, :-1]
        d_wbar = (inv_alpha / m) * wpen_rows * inv_sig2
        d_log_alpha = (
            n_y * n_phi / (2.0 * m)
            - (n_y / (2.0 * m)) * inv_alpha * np.sum(np.diag(lam_inv) * in_prior)
            - (0.5 / m) * inv_alpha * np.sum(wpen * inv_sig2)
        )
        d_log_sigma_e = 1.0 - (misfit + inv_alpha * wpen) * inv_sig2 / m
        return d_y, d_a, d_wbar, d_log_alpha, d_log_sigma_e

    return value, grad_fn


def negative_lml_reference(params, hyper, data, flat_bias=True) -> float:
    y, a = forward_batch(params, data.x)
    value, _ = nlml_head_reference(a, y, params.wbar, data.t, hyper, flat_bias)
    return value


def negative_lml_grads_reference(params, hyper, data):
    acts = forward_weights(params.weights, data.x)
    value, grad_fn = nlml_head_reference(acts[-2], acts[-1], params.wbar, data.t, hyper)
    d_y, d_a, d_wbar, d_log_alpha, d_log_sigma_e = grad_fn()
    grads = mlp_backward_reference(params.weights, acts, d_y, d_a)
    grads[-1] = grads[-1] + d_wbar
    return value, (grads, d_log_alpha, d_log_sigma_e)


def negative_elbo_reference(leaves, eps, x, t):
    """Negative ELBO / m and one gradient per leaf at the draw ``eps``.

    The leaves are per layer, [mus..., rhos..., log_prior_spread,
    log_sigma_e]: the layout vi trained before its means and spreads became
    two flat vectors.
    """
    n_layers = (len(leaves) - 2) // 2
    mus, rhos = leaves[:n_layers], leaves[n_layers : 2 * n_layers]
    log_prior_spread, log_sigma_e = leaves[2 * n_layers :]
    sigmas = [np.logaddexp(0.0, r) for r in rhos]
    m, n_y = t.shape

    inv_priors = [1.0 / HIDDEN_PRIOR_VAR] * (n_layers - 1) + [np.exp(-2.0 * log_prior_spread)]
    rows = mus[-1].shape[0]
    kl = rows * np.sum(log_prior_spread) + 0.5 * math.log(HIDDEN_PRIOR_VAR) * sum(
        mu.size for mu in mus[:-1]
    )
    g_mus, g_sigmas = [], []
    for mu, sigma, inv_prior in zip(mus, sigmas, inv_priors):
        kl += (
            -np.sum(np.log(sigma))
            + 0.5 * np.sum((sigma * sigma + mu * mu) * inv_prior)
            - 0.5 * mu.size
        )
        g_mus.append(mu * inv_prior)
        g_sigmas.append(sigma * inv_prior - 1.0 / sigma)
    g_log_prior_spread = rows - np.sum(sigmas[-1] ** 2 + mus[-1] ** 2, axis=0) * inv_priors[-1]

    inv_sig2 = np.exp(-2.0 * log_sigma_e)
    weights = [mu + sigma * e for mu, sigma, e in zip(mus, sigmas, eps)]
    acts = forward_weights(weights, x)
    resid = t - acts[-1]
    misfit = np.sum(resid * resid, axis=0) * inv_sig2
    nll = 0.5 * m * n_y * LOG_2PI + m * np.sum(log_sigma_e) + 0.5 * np.sum(misfit)
    d_weights = mlp_backward_reference(weights, acts, -resid * inv_sig2, None)
    for k, (d_w, e) in enumerate(zip(d_weights, eps)):
        g_mus[k] += d_w
        g_sigmas[k] += d_w * e

    sigmoids = [0.5 * (1.0 + np.tanh(0.5 * r)) for r in rhos]
    grads = [
        *g_mus,
        *(g * sig for g, sig in zip(g_sigmas, sigmoids)),
        g_log_prior_spread,
        m - misfit,
    ]
    value = float((nll + kl) / m)
    return value, [g / m for g in grads]


def mse_grads_reference(weights, data):
    """Mean squared error of the network and its weight gradients."""
    acts = forward_weights(weights, data.x)
    resid = data.t - acts[-1]
    value = float((1.0 / data.t.size) * np.sum(resid * resid))
    d_y = (-2.0 / data.t.size) * resid
    return value, mlp_backward_reference(weights, acts, d_y, None)


def predict_batch_reference(model, x):
    """Predictive means and variances (original units) for rows of ``x``."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y_std, phi_t = forward_batch(model.params, model.x_scaler.transform(x))
    phi = np.concatenate([phi_t, np.ones((phi_t.shape[0], 1))], axis=1)
    proj = (phi[:, :-1] - model.feature_mean) @ model.basis
    weights = 1.0 / (model.spectrum + 1.0 / model.alpha)
    quad = (proj * proj) @ weights + 1.0 / model.phi.shape[0]
    sig2_std = np.exp(2.0 * model.hyper.log_sigma_e)
    t_scale2 = model.t_scaler.scale**2
    var_y = np.outer(quad, sig2_std) * t_scale2
    var_t = var_y + sig2_std * t_scale2
    mean = model.t_scaler.inverse(y_std)
    return mean, var_y, var_t


def lpd_reference(model, data) -> float:
    mean, _, var_t = predict_batch_reference(model, data.x)
    return float(gaussian_log_density(mean, var_t, data.t).mean())


def alpha_sweep_reference(model, train_data, eval_sets, log_alpha_grid):
    """Training negative LML and per-set LPD, forward passes redone per alpha."""
    x_std = model.x_scaler.transform(train_data.x)
    t_std = model.t_scaler.transform(train_data.t)
    train_std = Dataset(x_std, t_std)
    rows = []
    for log_alpha in np.asarray(log_alpha_grid, dtype=float):
        tuned = with_alpha(model, math.exp(log_alpha))
        row = {
            "log_alpha": float(log_alpha),
            "nlml_train": negative_lml(tuned.params, tuned.hyper, train_std),
        }
        for name, data in eval_sets.items():
            row[f"lpd_{name}"] = lpd_reference(tuned, data)
        rows.append(row)
    return rows


def vi_predict_batch_reference(model, x, n_samples, rng):
    """Component means (n_samples, m, n_y) in original units plus noise variance."""

    mus, sigmas, lo = [], [], 0
    for shape in model.shapes:
        hi = lo + shape[0] * shape[1]
        mus.append(model.mu[lo:hi].reshape(shape))
        sigmas.append(np.logaddexp(0.0, model.rho[lo:hi]).reshape(shape))
        lo = hi

    def _sample_forward(x_std, rng):
        weights = tuple(
            mu + sigma * rng.standard_normal(mu.shape) for mu, sigma in zip(mus, sigmas)
        )
        y, _ = forward_batch(MlpParams(weights), x_std)
        return y

    x = np.atleast_2d(np.asarray(x, dtype=float))
    x_std = model.x_scaler.transform(x)
    means = np.stack(
        [model.t_scaler.inverse(_sample_forward(x_std, rng)) for _ in range(n_samples)]
    )
    noise_var = (np.exp(model.log_sigma_e) * model.t_scaler.scale) ** 2
    return means, noise_var


def write_table_csv_reference(path, header, rows) -> None:
    """Every row through ``csv.writer``, each number as ``repr(float(v))``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else repr(float(v)) for v in row])
