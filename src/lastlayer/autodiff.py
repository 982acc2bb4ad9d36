"""The log-determinant primitive the training objectives share.

Every objective in this package is a small head on top of one network
shape, so gradients come from two pieces: ``mlp.bind_backward``, the reverse
sweep through the network, and ``logdet_spd`` here, whose gradient
d(log det A) = trace(A^-1 dA) is read off the inverse of a Cholesky factor
instead of differentiating the factorization itself.  It returns its value
with a function for the gradient, so value-only callers skip the inverse.
"""

import numpy as np

from .linalg import chol_spd, logdet_pd

__all__ = ["NonFiniteLoss", "logdet_spd"]


class NonFiniteLoss(ArithmeticError):
    """An objective evaluated to NaN or infinity."""


def logdet_spd(a: np.ndarray):
    """Log-determinant of a symmetric positive-definite matrix.

    Returns the value and a function giving its gradient A^-1 = L^-T L^-1,
    read off the same lower-triangular Cholesky factor L, so callers that
    need only the value skip the inverse.
    """
    lower = chol_spd(a)

    def grad():
        inverse = np.linalg.inv(lower)
        # numpy sends ``inverse.T @ inverse`` to syrk as A^T A, which moved
        # the last bits on 705 of 2,000 random systems.  The copy keeps the
        # product on gemm: ``inverse @ identity`` is exact, so this is bit
        # for bit ``linalg.solve_pd(lower, identity)``.
        return inverse.T @ inverse.copy()

    return logdet_pd(lower), grad
