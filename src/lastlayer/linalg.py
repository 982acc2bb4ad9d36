"""Dense linear algebra for small symmetric positive-definite systems.

Training, the closed-form weights and the affine cost factor their precision
matrices through the Cholesky route below: factor once, then reuse the
factor for log-determinants and solves.  Predictions instead read a trained
network's posterior through ``bll``'s eigenbasis, which no alpha refactors.
Matrices are plain row-major ``numpy`` arrays; problem sizes are
tiny (tens of rows), so no sparse or blocked code paths exist.  At that size
wrapper overhead outweighs the arithmetic, so ``cholesky`` skips its
tolerance scan for an exactly symmetric matrix, and a factor computes the
inverse of L once, on its first solve, so that every solve is two matrix
products.  numpy's LAPACK is the only one loaded.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "CholeskyFactor",
    "DimensionMismatch",
    "NotPositiveDefinite",
    "cholesky",
    "chol_spd",
    "identity",
    "logdet_pd",
    "solve_pd",
]


class NotPositiveDefinite(np.linalg.LinAlgError):
    """The matrix has a non-positive pivot and cannot be factored."""


class DimensionMismatch(ValueError):
    """Operand shapes are incompatible."""


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular factor L with A = L @ L.T."""

    lower: np.ndarray

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @cached_property
    def inverse(self) -> np.ndarray:
        """L⁻¹, computed once: ValueError for a non-finite factor, LinAlgError for a singular one."""
        if not np.isfinite(self.lower).all():
            raise ValueError("Cholesky factor must not contain infs or NaNs")
        return np.linalg.inv(self.lower)


def cholesky(a: np.ndarray, jitter: float = 0.0) -> CholeskyFactor:
    """Factor a symmetric positive-definite matrix as L @ L.T.

    Args:
        a: square symmetric matrix (symmetric within 1e-10 relative tolerance;
            an exactly symmetric one skips the tolerance scan).
        jitter: nonnegative value added to the diagonal before factoring.

    Raises:
        DimensionMismatch: if ``a`` is not square.
        ValueError: if ``a`` is not numerically symmetric.
        NotPositiveDefinite: if the jittered matrix is not positive definite.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not (a == a.T).all():
        scale = np.abs(a).max() if a.size else 0.0
        if np.abs(a - a.T).max(initial=0.0) > 1e-10 * (1.0 + scale):
            raise ValueError("matrix is not symmetric within tolerance")
    if jitter != 0.0:
        a = a + jitter * np.eye(a.shape[0])
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as err:
        raise NotPositiveDefinite(str(err)) from err
    return CholeskyFactor(lower)


def chol_spd(a: np.ndarray) -> CholeskyFactor:
    """Factor with an escalating jitter ladder as a fallback.

    The first attempt uses no jitter so that factorizations stay consistent
    across code paths that are compared to each other at tight tolerances.
    Near-singular matrices (a log-det regularizer can drive the feature gram
    close to rank deficiency) get diagonal jitter scaled by trace/dim.
    """
    a = np.asarray(a, dtype=float)
    jitter = 0.0
    for _ in range(8):
        try:
            return cholesky(a, jitter=jitter)
        except NotPositiveDefinite:
            if jitter == 0.0:
                jitter = max(np.trace(a) / max(a.shape[0], 1), 1e-30) * 1e-12
            else:
                jitter *= 100.0
    raise NotPositiveDefinite("matrix not positive definite even with jitter")


@lru_cache(maxsize=16)
def identity(dim: int, zero_last: bool = False) -> np.ndarray:
    """Read-only ``np.eye(dim)``, last diagonal entry zeroed (a flat bias prior) if ``zero_last``."""
    eye = np.eye(dim)
    if zero_last:
        eye[-1, -1] = 0.0
    eye.flags.writeable = False
    return eye


def logdet_pd(factor: CholeskyFactor) -> float:
    """Log-determinant of the factored matrix: 2 * sum(log(diag(L)))."""
    return float(2.0 * np.log(factor.lower.diagonal()).sum())


def solve_pd(factor: CholeskyFactor, b: np.ndarray) -> np.ndarray:
    """Solve A @ x = b given the Cholesky factor of A.

    ``b`` may be a vector or a matrix of right-hand-side columns.  The
    solution is L⁻ᵀ (L⁻¹ b), through the factor's cached inverse.

    Raises:
        DimensionMismatch: if ``b`` is not 1-D or 2-D with ``factor.dim`` rows.
        ValueError: if the factor or ``b`` holds a NaN or infinity.
        np.linalg.LinAlgError: if the factor is singular.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim not in (1, 2) or b.shape[0] != factor.dim:
        raise DimensionMismatch(
            f"factor dim {factor.dim} does not match rhs of shape {b.shape}"
        )
    inverse = factor.inverse
    if not np.isfinite(b).all():
        raise ValueError("right-hand side must not contain infs or NaNs")
    return inverse.T @ (inverse @ b)
