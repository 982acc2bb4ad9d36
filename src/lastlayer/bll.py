"""Bayesian last layer core.

The output layer of the network is a Bayesian linear regression on the
learned features.  With per-output noise scales sigma_e and a shared
signal-to-noise ratio alpha, the posterior precision of the output weights
factors as sigma_e^-2 * (Phi^T Phi + alpha^-1 * I~), where I~ is the
identity with a zero in the bias position (the bias carries a flat prior).

Predictions read that precision through the eigenbasis of the centred
feature gram, computed once per trained network (MacKay's evidence
framework, 1992) by ``centred_spectrum`` from one SVD of the centred
feature rows.  The flat bias prior lets the bias coordinate be
eliminated exactly (a Schur complement), so for a row phi = [phi~, 1]

    phi^T (Phi^T Phi + alpha^-1 I~)^-1 phi
        = 1/m + sum_k ((phi~ - mu) . v_k)^2 / (lambda_k + alpha^-1),

where mu is the mean training feature row and (lambda_k, v_k) are the
eigenpairs of the centred gram: v_k a right singular vector of the
centred rows and lambda_k its squared singular value.  alpha only shifts
that spectrum, so retuning it factors nothing, and the same elimination
reads the objective's log-determinant, log m + sum_k log(lambda_k +
alpha^-1), off one spectrum (``spectral_logdet``): at a whole grid of
alphas for the sweep (``nlml_head_grid``), and at every epoch and monitor
block of blr, whose features never move.

Training minimizes the scaled negative log-marginal likelihood with the
output weights reintroduced as free variables, so the loss needs no matrix
inverse.  Its stationary point in those weights is the closed-form
posterior mean, which early stopping leaves Adam short of; ``fit_posterior``,
the one readout for every marginal-likelihood fit, sets that closed form.

A fit binds the objective once (``bind_nlml``): the bind step checks the
gradient layout, takes the network's weight, bias and gradient views, and
binds the head (``bind_network_head``), which takes blr's feature spectrum
and reads the prior's diagonal and the scalar coefficients
(``bind_nlml_head``).  The views stay valid while Adam steps because
``training.fit_loop`` writes each step into the flat vectors they view, so
every epoch does only its arithmetic: for bll, the head with one Cholesky
factor of the precision, then ``mlp.bind_backward``'s sweep; for blr, the
same head with its log-determinant read off the spectrum.  Every reader of
the objective's value (``nlml_head``, ``nlml_head_grid`` and the
early-stopping monitors) calls a head bound by ``bind_nlml_head``.
"""

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .data import Dataset, Standardizer, identity_standardizer
from .linalg import DimensionMismatch, chol_spd, identity, logdet_pd, solve_pd
from .mlp import MlpParams, affine_rows, bind_backward, bind_forward, features, forward_batch

__all__ = [
    "BllHyper",
    "BllModel",
    "PredictiveDistribution",
    "bind_nlml",
    "bind_nlml_head",
    "bind_network_head",
    "centred_spectrum",
    "closed_form_wbar",
    "fit_posterior",
    "negative_lml",
    "negative_lml_grads",
    "negative_lml_marginalized",
    "nlml_head",
    "nlml_head_grid",
    "precision_bar",
    "predict",
    "predict_batch",
    "predictive_variances",
    "query_rows",
    "spectral_logdet",
    "with_alpha",
]

HYPER_CLAMP = 15.0
LOG_2PI = math.log(2.0 * math.pi)
# Largest |log alpha| at which alpha and 1/alpha are both finite and positive.
LOG_ALPHA_MAX = math.log(sys.float_info.max)
# predict_batch works through this many rows at a time: larger temporaries
# come from fresh pages that fault on first touch in every call.
PREDICT_BLOCK = 1024


@dataclass(frozen=True)
class BllHyper:
    """Log-parameterized hyperparameters: shared alpha, per-output sigma_e."""

    log_alpha: float
    log_sigma_e: np.ndarray

    def __post_init__(self):
        log_sigma_e = np.asarray(self.log_sigma_e, dtype=float)
        if log_sigma_e.ndim == 0:
            log_sigma_e = log_sigma_e.reshape(1)
        object.__setattr__(self, "log_sigma_e", log_sigma_e)
        if log_sigma_e.ndim != 1:
            raise ValueError(f"log_sigma_e must be 1-D, got shape {log_sigma_e.shape}")
        if not math.isfinite(self.log_alpha) or not np.isfinite(log_sigma_e).all():
            raise ValueError("hyperparameters must be finite")
        if abs(self.log_alpha) > LOG_ALPHA_MAX:
            raise ValueError(f"|log_alpha| exceeds {LOG_ALPHA_MAX}: {self.log_alpha!r}")

    @property
    def alpha(self) -> float:
        return math.exp(self.log_alpha)

    @property
    def sigma_e(self) -> np.ndarray:
        return np.exp(self.log_sigma_e)


def precision_bar(phi: np.ndarray, alpha: float, flat_bias: bool = True) -> np.ndarray:
    """Noise-free posterior precision Phi^T Phi + alpha^-1 * I~.

    ``phi`` is the affine feature matrix whose last column is the bias
    column of ones; with a flat bias prior that diagonal entry receives no
    prior contribution.
    """
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError(f"alpha must be finite and positive, got {alpha!r}")
    phi = np.asarray(phi, dtype=float)
    return phi.T @ phi + identity(phi.shape[1], flat_bias) / alpha


def closed_form_wbar(
    phi: np.ndarray, t: np.ndarray, alpha: float, flat_bias: bool = True
) -> np.ndarray:
    """Posterior mean weights: the solution of precision_bar @ w = Phi^T t.

    The noise scale cancels between the precision and the data term, so the
    result depends only on alpha.  ``t`` may hold several target columns.
    """
    lower = chol_spd(precision_bar(phi, alpha, flat_bias))
    return solve_pd(lower, np.asarray(phi, dtype=float).T @ np.asarray(t, dtype=float))


def nlml_head(a, y, wbar, t, log_alpha, log_sigma_e, flat_bias=True):
    """Scaled negative LML on top of a network's last layer.

    Args:
        a: linear features, the last hidden activations (m, n_phi - 1).
        y: network outputs a @ wbar[:-1] + wbar[-1] (m, n_y).
        wbar: output-layer weights, bias in the last row.
        t: targets (m, n_y).
        log_alpha: log of the signal-to-noise ratio, a Python float, so
            its scalar products are float arithmetic.
        log_sigma_e: the per-output log noise scales, an array.
        flat_bias: leave the bias row out of the prior.

    ``a``, ``y``, ``wbar`` and ``log_sigma_e`` may carry leading block
    axes, one problem per block entry, with ``log_alpha`` an array of that
    block shape: the value is then an array holding each entry's value, as
    a call on that problem alone gives it, and a non-finite entry is
    returned, not raised.  The gradients need one problem.

    Returns:
        The objective value and a function giving its gradients
        (d_y, d_a, d_wbar_penalty, d_log_alpha, d_log_sigma_e); the output
        layer's data term reaches wbar through d_y.

    Raises:
        NonFiniteLoss: if the value of one problem is NaN or infinite.
    """
    value, grads = bind_nlml_head(t, a.shape[-1] + 1, flat_bias)
    return value(a, y, wbar, log_alpha, log_sigma_e), grads


def bind_nlml_head(t, n_phi: int, flat_bias: bool = True, spectrum=None):
    """``nlml_head``'s formula for targets ``t`` and ``n_phi`` affine features, bound once.

    The prior, its diagonal and the scalar coefficients are read here, not
    per call.  Returns (value, grads):
    ``value(a, y, wbar, log_alpha, log_sigma_e)`` is ``nlml_head``'s value
    (block axes allowed, as there), and ``grads()`` gives the gradients at
    the last ``value`` call, as ``nlml_head``'s function does.

    Features that do not move between calls (blr's) are handed over as the
    ``spectrum`` of their centred gram (``centred_spectrum``, flat bias
    prior only): the log-determinant and the trace in its log alpha
    gradient are then read off it by ``spectral_logdet``, with no factor,
    ``a`` is not read, and d_a is None.  Without it, each call factors the
    precision of the affine rows of ``a``.
    """
    if spectrum is not None and not flat_bias:
        raise ValueError("a held spectrum needs the flat bias prior")
    m, n_y = t.shape
    prior = identity(n_phi, flat_bias)
    in_prior = prior.diagonal()  # 0 on a flat bias row
    in_prior_rows = in_prior[:, None]
    c_value, half_m = 0.5 * n_y * LOG_2PI, 0.5 / m
    c_alpha, c_logdet = n_y * n_phi / (2.0 * m), n_y / (2.0 * m)
    c_y, c_a = -1.0 / m, n_y / m
    last = None  # what the last value call leaves for grads

    def value(a, y, wbar, log_alpha, log_sigma_e):
        nonlocal last
        inv_alpha = np.exp(-log_alpha)
        if spectrum is None:
            phi = affine_rows(a)
            # a block of alphas scales its own matrix
            scale = inv_alpha[..., None, None] if inv_alpha.ndim else inv_alpha
            logdet, logdet_grad = ad.logdet_spd(phi.swapaxes(-1, -2) @ phi + scale * prior)
        else:
            phi, (logdet, logdet_grad) = None, spectral_logdet(m, spectrum, inv_alpha)

        inv_sig2 = np.exp(-2.0 * log_sigma_e)
        resid = t - y
        misfit = np.add.reduce(resid * resid, -2)
        wpen_rows = wbar * in_prior_rows
        wpen = np.add.reduce(wpen_rows * wpen_rows, -2)
        wpen_sum = np.add.reduce(wpen * inv_sig2, -1)

        total = (
            c_value
            + c_alpha * log_alpha
            + c_logdet * logdet
            + np.add.reduce(log_sigma_e, -1)
            + half_m * np.add.reduce(misfit * inv_sig2, -1)
            + half_m * (inv_alpha * wpen_sum)
        )
        last = phi, logdet_grad, inv_alpha, inv_sig2, resid, misfit, wpen_rows, wpen, wpen_sum
        if total.ndim == 0:
            total = float(total)
            if not math.isfinite(total):
                raise ad.NonFiniteLoss(f"objective evaluated to {total}")
        return total

    def grads():
        phi, logdet_grad, inv_alpha, inv_sig2, resid, misfit, wpen_rows, wpen, wpen_sum = last
        if spectrum is None:
            lam_inv = logdet_grad()
            d_a = c_a * (phi @ lam_inv)[:, :-1]
            prior_trace = np.add.reduce(lam_inv.diagonal() * in_prior)
        else:
            d_a, prior_trace = None, logdet_grad()
        d_y = c_y * resid
        d_y *= inv_sig2
        d_wbar = (inv_alpha / m) * wpen_rows
        d_wbar *= inv_sig2
        d_log_alpha = (
            c_alpha
            - c_logdet * inv_alpha * prior_trace
            - half_m * inv_alpha * wpen_sum
        )
        d_log_sigma_e = 1.0 - (misfit + inv_alpha * wpen) * inv_sig2 / m
        return d_y, d_a, d_wbar, d_log_alpha, d_log_sigma_e

    return value, grads


def centred_spectrum(a: np.ndarray):
    """Mean row, eigenbasis and spectrum of the gram of the centred rows of ``a``.

    Returns (mean, basis, spectrum): ``basis`` is square, its columns the
    right singular vectors of a - mean, and ``spectrum`` their squared
    singular values, zero past min(m, width), so (a - mean)^T (a - mean) =
    basis @ diag(spectrum) @ basis^T.  Read off the SVD of the centred rows,
    a small lambda_k is off by about eps * sigma_max * sigma_k rather than
    the eps * lambda_max an eigensolver on the gram leaves; the largest
    alphas divide that error by a small lambda_k + 1/alpha.  U is computed
    in full only when there are fewer rows than columns, the one case where
    V would otherwise not be square.
    """
    mean = a.mean(axis=0)
    _, singular, vt = np.linalg.svd(a - mean, full_matrices=len(a) < a.shape[1])
    spectrum = np.zeros(a.shape[1])
    spectrum[: len(singular)] = singular * singular
    return mean, vt.T, spectrum


def spectral_logdet(m: int, spectrum: np.ndarray, inv_alpha):
    """log det(Phi^T Phi + alpha^-1 I~) of ``m`` affine rows, read off their centred ``spectrum``.

    Eliminating the flat-prior bias (a Schur complement) leaves the
    centred gram: the value is log m + sum_k log(lambda_k + alpha^-1) on
    the spectrum lambda that ``centred_spectrum`` reads.  ``inv_alpha`` is
    alpha^-1 as a float, or an array of them, giving one value each.
    Returns the value and a function giving its derivative in alpha^-1,
    tr((Phi^T Phi + alpha^-1 I~)^-1 I~) = sum_k 1 / (lambda_k + alpha^-1),
    the inverse's block on the centred features.
    """
    shifted = np.add.outer(inv_alpha, spectrum)
    logdet = math.log(m) + np.add.reduce(np.log(shifted), -1)
    return logdet, lambda: np.add.reduce(1.0 / shifted, -1)


def nlml_head_grid(
    a: np.ndarray,
    y: np.ndarray,
    wbar: np.ndarray,
    t: np.ndarray,
    log_sigma_e: np.ndarray,
    log_alphas: np.ndarray,
) -> np.ndarray:
    """``nlml_head``'s value, flat bias prior, at every log alpha of a grid.

    Entry i equals ``nlml_head(a, y, wbar, t, log_alphas[i],
    log_sigma_e)[0]`` up to rounding, with no factor per alpha: the head is
    bound to the spectrum of the centred gram of ``a``, read once by
    ``centred_spectrum``, and called once on the whole grid.

    Raises:
        ValueError: unless ``log_alphas`` is 1-D and finite with every
            |log alpha| at most ``LOG_ALPHA_MAX``.
        NonFiniteLoss: if a value is NaN or infinite.
    """
    log_alphas = np.asarray(log_alphas, dtype=float)
    if log_alphas.ndim != 1 or not (np.abs(log_alphas) <= LOG_ALPHA_MAX).all():
        raise ValueError(f"log alphas must be a 1-D grid of finite values within {LOG_ALPHA_MAX}")
    value, _ = bind_nlml_head(t, a.shape[1] + 1, spectrum=centred_spectrum(a)[2])
    values = value(a, y, wbar, log_alphas, log_sigma_e)
    if not np.isfinite(values).all():
        raise ad.NonFiniteLoss("objective evaluated to a non-finite value on the alpha grid")
    return values


def negative_lml(
    params: MlpParams, hyper: BllHyper, data: Dataset, flat_bias: bool = True
) -> float:
    """Scaled negative LML with the output weights read from ``params``.

    Handles any number of outputs; with one output the multivariate sum
    collapses to the scalar form term by term.  Value only: no reverse
    pass is paid.
    """
    y, a = forward_batch(params, data.x)
    log_alpha = float(hyper.log_alpha)
    value, _ = nlml_head(a, y, params.wbar, data.t, log_alpha, hyper.log_sigma_e, flat_bias)
    return value


def negative_lml_grads(params: MlpParams, hyper: BllHyper, data: Dataset):
    """Objective value and gradients for (weights, log_alpha, log_sigma_e)."""
    out = [np.empty(w.shape) for w in params.weights]
    out += [np.empty(()), np.empty(hyper.log_sigma_e.shape)]
    leaves = [*params.weights, np.asarray(float(hyper.log_alpha)), hyper.log_sigma_e]
    value = bind_nlml(leaves, out, data.x, data.t)()
    return value, (out[:-2], out[-2][()], out[-1])


def bind_network_head(weights, x, t):
    """``bind_nlml_head`` for the last layer of the network ``weights`` on rows ``x``.

    A one-layer network's features are the rows ``x`` themselves (blr),
    fixed for the whole fit, so its head holds their spectrum, taken here.
    """
    spectrum = centred_spectrum(x)[2] if len(weights) == 1 else None
    return bind_nlml_head(t, weights[-1].shape[0], spectrum=spectrum)


def bind_nlml(leaves, grads, x, t):
    """The objective on leaves and gradient arrays the caller updates in place, bound once.

    ``leaves`` are the weight matrices, a 0-d log_alpha and log_sigma_e;
    ``grads`` has the same layout.  The head is ``bind_network_head``'s.
    Returns ``epoch()``: the value at the leaves' current values, its
    gradient written into every entry of ``grads``.

    Raises:
        ValueError: when ``grads`` does not match that layout.
    """
    n_w = len(leaves) - 2
    weights, log_alpha, log_sigma_e = leaves[:n_w], leaves[n_w], leaves[n_w + 1]
    if len(grads) != n_w + 2 or grads[n_w].shape != () or grads[n_w + 1].shape != log_sigma_e.shape:
        raise ValueError("gradient destinations do not match the parameters")
    backward = bind_backward(weights, grads[:n_w])
    forward = bind_forward(weights)
    g_wbar, g_log_alpha, g_log_sigma_e = grads[n_w - 1 :]
    wbar = weights[-1]
    x = np.asarray(x, dtype=float)
    value, head_grads = bind_network_head(weights, x, t)

    def epoch():
        acts = forward(x)
        total = value(acts[-2], acts[-1], wbar, float(log_alpha), log_sigma_e)
        d_y, d_a, d_wbar, d_log_alpha, d_log_sigma_e = head_grads()
        backward(acts, d_y, d_a)
        np.add(g_wbar, d_wbar, out=g_wbar)
        g_log_alpha[...] = d_log_alpha
        g_log_sigma_e[...] = d_log_sigma_e
        return total

    return epoch


def negative_lml_marginalized(phi: np.ndarray, t: np.ndarray, hyper: BllHyper) -> float:
    """Scaled negative LML with the output weights profiled out exactly.

    At the optimum the quadratic terms collapse to
    sigma_e^-2 * (t^T t - t^T Phi w), which this computes directly; it is
    the value the free-weight objective attains at its stationary point.
    """
    t = np.atleast_2d(np.asarray(t, dtype=float))
    if t.shape[0] == 1 and phi.shape[0] > 1:
        t = t.T
    m, n_y = t.shape
    n_phi = phi.shape[1]
    lower = chol_spd(precision_bar(phi, hyper.alpha))
    wbar = solve_pd(lower, phi.T @ t)
    quad = np.einsum("ij,ij->j", t, t) - np.einsum("ij,ij->j", phi.T @ t, wbar)
    inv_sig2 = np.exp(-2.0 * hyper.log_sigma_e)
    return float(
        0.5 * n_y * LOG_2PI
        + (n_y * n_phi / (2.0 * m)) * hyper.log_alpha
        + (n_y / (2.0 * m)) * logdet_pd(lower)
        + np.sum(hyper.log_sigma_e)
        + (0.5 / m) * np.sum(quad * inv_sig2)
    )


@dataclass(frozen=True)
class PredictiveDistribution:
    """Per-output Gaussian prediction: mean, function and target variances."""

    mean: np.ndarray
    var_y: np.ndarray
    var_t: np.ndarray


@dataclass(frozen=True)
class BllModel:
    """Frozen feature map plus the posterior over the output layer.

    ``params`` and ``hyper`` live in standardized data space; the scalers
    map predictions back to original units.  ``phi`` retains the training
    feature matrix for diagnostics and extrapolation scoring.  The posterior
    covariance is held in a form no alpha changes: ``feature_mean`` is the
    mean training feature row without its bias entry, and ``basis`` and
    ``spectrum`` are the eigenvectors (columns) and eigenvalues of the gram
    of the centred feature rows, as ``centred_spectrum`` reads them.
    ``wbar_gap`` records how far the output weights given to ``fit_posterior``
    sat from the closed form it kept (a convergence diagnostic, not an error).
    """

    params: MlpParams
    hyper: BllHyper
    feature_mean: np.ndarray
    basis: np.ndarray
    spectrum: np.ndarray
    phi: np.ndarray
    x_scaler: Standardizer
    t_scaler: Standardizer
    wbar_gap: float

    @property
    def n_x(self) -> int:
        return self.params.n_x

    @property
    def n_y(self) -> int:
        return self.params.n_y

    @property
    def wbar(self) -> np.ndarray:
        return self.params.wbar

    @property
    def alpha(self) -> float:
        return self.hyper.alpha

    @property
    def sigma_e(self) -> np.ndarray:
        """Noise scales in original target units."""
        return self.hyper.sigma_e * self.t_scaler.scale


def fit_posterior(
    params: MlpParams,
    hyper: BllHyper,
    data: Dataset,
    x_scaler: Standardizer | None = None,
    t_scaler: Standardizer | None = None,
) -> BllModel:
    """A trained network's posterior on its fit rows, with the closed-form output weights.

    Raises:
        ValueError: if ``data`` has no rows, or the network's features on
            it are not finite.
        DimensionMismatch: if the noise scales in ``hyper`` or the network's
            outputs are not as many as the targets' columns.
    """
    if data.m == 0:
        raise ValueError("a posterior needs at least one training row")
    widths = len(hyper.log_sigma_e), params.wbar.shape[1]
    if widths != (data.n_y, data.n_y):
        raise DimensionMismatch(
            f"(noise scales, outputs) of widths {widths} for targets of width {data.n_y}"
        )
    phi = features(params, data.x)
    if not np.isfinite(phi).all():
        raise ValueError("features of the training rows must not contain infs or NaNs")
    closed = closed_form_wbar(phi, data.t, hyper.alpha)
    gap = float(np.max(np.abs(params.wbar - closed)))
    mean, basis, spectrum = centred_spectrum(phi[:, :-1])
    return BllModel(
        params=params.replace_wbar(closed),
        hyper=hyper,
        feature_mean=mean,
        basis=basis,
        spectrum=spectrum,
        phi=phi,
        x_scaler=x_scaler or identity_standardizer(data.n_x),
        t_scaler=t_scaler or identity_standardizer(data.n_y),
        wbar_gap=gap,
    )


def predict_batch(model: BllModel, x: np.ndarray):
    """Predictive means and variances (original units) for rows of ``x``.

    Rows go through in blocks of ``PREDICT_BLOCK``; each block's result is
    the one a call on that block alone returns.

    Returns arrays (mean, var_y, var_t), each of shape (m, n_y).

    Raises:
        DimensionMismatch: if the rows of ``x`` are not the network's input width.
        ValueError: if ``x`` holds a NaN or infinity.
    """
    x = query_rows(x, model.n_x)
    if len(x) <= PREDICT_BLOCK:
        return _predict_rows(model, x)
    starts = range(0, len(x), PREDICT_BLOCK)
    blocks = [_predict_rows(model, x[i : i + PREDICT_BLOCK]) for i in starts]
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def query_rows(x, n_x: int) -> np.ndarray:
    """``x`` as 2-D float rows, checked as the predictions check their queries.

    Raises:
        DimensionMismatch: if the rows of ``x`` are not ``n_x`` wide.
        ValueError: if ``x`` holds a NaN or infinity.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.ndim != 2 or x.shape[1] != n_x:
        raise DimensionMismatch(f"inputs of shape {x.shape} for a network of width {n_x}")
    if not np.isfinite(x).all():
        raise ValueError("query rows must not contain infs or NaNs")
    return x


def _predict_rows(model: BllModel, x: np.ndarray):
    """``predict_batch`` on rows already checked, in one pass."""
    y_std, a = forward_batch(model.params, model.x_scaler.transform(x))
    return (model.t_scaler.inverse(y_std), *predictive_variances(model, a, model.alpha))


def predictive_variances(model: BllModel, a: np.ndarray, alpha):
    """The alpha-dependent part of ``predict_batch``: arrays (var_y, var_t).

    ``a`` holds the standardized inputs' feature rows, without the bias
    column.  ``alpha`` is a finite positive float, giving arrays of shape
    (m, n_y), or a 1-D array of them, giving (m, len(alpha), n_y): a caller
    that varies alpha alone reads a whole grid of alphas from one product.
    """
    proj = (a - model.feature_mean) @ model.basis
    weights = 1.0 / np.add.outer(model.spectrum, 1.0 / alpha)
    quad = (proj * proj) @ weights + 1.0 / model.phi.shape[0]
    sig2_std = np.exp(2.0 * model.hyper.log_sigma_e)
    t_scale2 = model.t_scaler.scale**2
    var_y = quad[..., None] * sig2_std * t_scale2
    var_t = var_y + sig2_std * t_scale2
    return var_y, var_t


def predict(model: BllModel, x: np.ndarray) -> PredictiveDistribution:
    """Exact Gaussian predictive distribution at a single input point."""
    mean, var_y, var_t = predict_batch(model, np.asarray(x, dtype=float).reshape(1, -1))
    return PredictiveDistribution(mean[0], var_y[0], var_t[0])


def with_alpha(model: BllModel, alpha: float) -> BllModel:
    """Same model with a new alpha; the eigenbasis is shared, nothing is factored.

    Raises:
        ValueError: unless ``alpha`` is finite and positive.
    """
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError(f"alpha must be finite and positive, got {alpha!r}")
    return replace(model, hyper=BllHyper(math.log(alpha), model.hyper.log_sigma_e))
