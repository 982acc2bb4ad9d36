"""Degree-of-extrapolation scoring via the affine cost.

A query feature vector is scored by the cheapest way to write it as an
affine combination of the training feature rows, with a residual escape
hatch: minimize ||nu||^2 + gamma * ||e||^2 subject to Phi~^T nu + e = phi~
and sum(nu) = 1.  Queries inside the affine hull of the training features
are cheap; leaving the hull costs gamma per unit of squared residual.

Two independent routes are provided: a closed form through the regularized
feature gram, and a direct KKT solve of the constrained least-squares
problem.  With gamma equal to the model's signal-to-noise ratio the closed
form coincides with the predictive function variance divided by the noise
variance, which is what makes the score a calibration handle.
"""

from dataclasses import dataclass

import numpy as np

from .bll import BllModel, precision_bar, predict
from .linalg import chol_spd, solve_pd
from .mlp import forward

__all__ = [
    "AffineCostResult",
    "SingularKkt",
    "affine_cost_closed",
    "affine_cost_kkt",
    "bll_affine_equivalence",
]


class SingularKkt(np.linalg.LinAlgError):
    """The KKT system of the affine-cost problem is numerically singular."""


@dataclass(frozen=True)
class AffineCostResult:
    """Optimal cost with its spanning coefficients and residual."""

    cost: float
    nu: np.ndarray
    e: np.ndarray


def affine_cost_closed(
    phi_tilde_train: np.ndarray, phi_tilde: np.ndarray, gamma: float
) -> float:
    """Affine cost via the closed form phi^T (Phi^T Phi + gamma^-1 I~)^-1 phi.

    ``phi_tilde_train`` holds one training feature row per sample; the bias
    coordinate is appended internally.
    """
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    train = np.atleast_2d(np.asarray(phi_tilde_train, dtype=float))
    phi = np.append(np.asarray(phi_tilde, dtype=float), 1.0)
    full = np.concatenate([train, np.ones((train.shape[0], 1))], axis=1)
    return float(phi @ solve_pd(chol_spd(precision_bar(full, gamma)), phi))


def affine_cost_kkt(
    phi_tilde_train: np.ndarray, phi_tilde: np.ndarray, gamma: float
) -> AffineCostResult:
    """Affine cost by solving the constrained least-squares KKT system.

    Stationarity of the Lagrangian and the equality constraints form one
    symmetric indefinite linear system in (nu, e, multipliers); a dense
    partial-pivoting solve is exact at these problem sizes and shares no
    code with the closed-form route above.
    """
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    train = np.atleast_2d(np.asarray(phi_tilde_train, dtype=float))
    phi_tilde = np.asarray(phi_tilde, dtype=float)
    m, k = train.shape

    # Constraints: [Phi~^T, I; 1^T, 0] [nu; e] = [phi~; 1]
    con = np.zeros((k + 1, m + k))
    con[:k, :m] = train.T
    con[:k, m:] = np.eye(k)
    con[k, :m] = 1.0
    rhs_con = np.append(phi_tilde, 1.0)

    weight = np.concatenate([np.full(m, 2.0), np.full(k, 2.0 * gamma)])
    dim = m + k + k + 1
    kkt = np.zeros((dim, dim))
    kkt[: m + k, : m + k] = np.diag(weight)
    kkt[: m + k, m + k :] = con.T
    kkt[m + k :, : m + k] = con
    rhs = np.concatenate([np.zeros(m + k), rhs_con])

    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError as err:
        raise SingularKkt(str(err)) from err
    if not np.isfinite(sol).all():
        raise SingularKkt("KKT solution contains non-finite entries")

    nu, e = sol[:m], sol[m : m + k]
    cost = float(nu @ nu + gamma * (e @ e))
    return AffineCostResult(cost, nu, e)


def bll_affine_equivalence(model: BllModel, x: np.ndarray) -> tuple[float, float]:
    """Affine cost of the query's features vs the noise-scaled variance.

    Returns (cost, var_y / sigma_e^2) computed through independent paths;
    with gamma set to the model's alpha the two agree.  Standardization
    cancels: both sides are evaluated in the model's feature space.
    """
    x = np.asarray(x, dtype=float).reshape(1, -1)
    _, phi_tilde = forward(model.params, model.x_scaler.transform(x)[0])
    lhs = affine_cost_closed(model.phi[:, :-1], phi_tilde, model.alpha)
    dist = predict(model, x[0])
    rhs = float(dist.var_y[0] / model.sigma_e[0] ** 2)
    return lhs, rhs
