"""Dense linear algebra for small symmetric positive-definite systems.

The closed-form weights and bll's objective and monitor factor their
precision matrices through the Cholesky route below: factor once, then
read the log-determinant and the solve off that one factor.  Predictions,
the alpha sweep and blr's objective and monitor instead read the centred
feature spectrum that ``bll.centred_spectrum`` takes from one SVD of the
centred feature rows, which no alpha refactors, and the affine cost solves
its precision once by LU.  Matrices are plain row-major ``numpy`` arrays,
and a factor is just its lower-triangular array L; problem sizes are tiny
(tens of rows), so no sparse or blocked code paths exist.  At that size
wrapper overhead outweighs the arithmetic, so ``cholesky`` skips its
tolerance scan for an exactly symmetric matrix, and a solve inverts L and
applies two matrix products.  numpy's LAPACK is the only one loaded.
"""

from functools import lru_cache

import numpy as np

__all__ = [
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


def cholesky(a: np.ndarray, jitter: float = 0.0) -> np.ndarray:
    """Factor a symmetric positive-definite matrix as L @ L.T and return L.

    A stack of matrices (leading axes before the last two) is factored in
    one numpy call, each matrix as it would be alone.

    Args:
        a: square symmetric matrix, or a stack of them (symmetric within
            1e-10 relative tolerance; an exactly symmetric one skips the
            tolerance scan).
        jitter: nonnegative value added to the diagonal before factoring.

    Raises:
        DimensionMismatch: if ``a`` is not square.
        ValueError: if ``a`` is not numerically symmetric.
        NotPositiveDefinite: if a jittered matrix is not positive definite.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    a_t = a.swapaxes(-1, -2)
    if not (a == a_t).all():
        scale = np.abs(a).max(axis=(-2, -1), initial=0.0)
        if (np.abs(a - a_t).max(axis=(-2, -1), initial=0.0) > 1e-10 * (1.0 + scale)).any():
            raise ValueError("matrix is not symmetric within tolerance")
    if jitter != 0.0:
        a = a + jitter * np.eye(a.shape[-1])
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as err:
        raise NotPositiveDefinite(str(err)) from err


def chol_spd(a: np.ndarray) -> np.ndarray:
    """Factor with an escalating jitter ladder as a fallback.

    The one first attempt, on a matrix or a whole stack, uses no jitter so
    that factorizations stay consistent across code paths that are compared
    to each other at tight tolerances.  If it fails, a stack sends each of
    its matrices through ``chol_spd`` alone, so every factor is the one a
    call on that matrix returns; a near-singular matrix (a log-det
    regularizer can drive the feature gram close to rank deficiency) takes
    seven attempts with diagonal jitter trace/dim times 1e-12, 1e-10, ..., 1.
    """
    a = np.asarray(a, dtype=float)
    try:
        return cholesky(a)
    except NotPositiveDefinite:
        if a.ndim > 2:
            matrices = a.reshape(-1, *a.shape[-2:])
            return np.stack([chol_spd(one) for one in matrices]).reshape(a.shape)
    jitter = max(np.trace(a) / max(a.shape[0], 1), 1e-30) * 1e-12
    for _ in range(7):
        try:
            return cholesky(a, jitter=jitter)
        except NotPositiveDefinite:
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


def logdet_pd(lower: np.ndarray):
    """Log-determinant of L @ L.T from its Cholesky factor L: 2 * sum(log(diag(L))).

    A float for one factor; for a stack of factors, one value per factor.
    """
    return 2.0 * np.add.reduce(np.log(lower.diagonal(0, -2, -1)), -1)


def solve_pd(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A @ x = b given the Cholesky factor L of A.

    ``b`` may be a vector or a matrix of right-hand-side columns.  The
    solution is L⁻ᵀ (L⁻¹ b).

    Raises:
        DimensionMismatch: if ``b`` is not 1-D or 2-D with as many rows as ``lower``.
        ValueError: if ``lower`` or ``b`` holds a NaN or infinity.
        np.linalg.LinAlgError: if ``lower`` is singular.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim not in (1, 2) or b.shape[0] != len(lower):
        raise DimensionMismatch(
            f"factor dim {len(lower)} does not match rhs of shape {b.shape}"
        )
    if not np.isfinite(lower).all():
        raise ValueError("Cholesky factor must not contain infs or NaNs")
    inverse = np.linalg.inv(lower)
    if not np.isfinite(b).all():
        raise ValueError("right-hand side must not contain infs or NaNs")
    return inverse.T @ (inverse @ b)
