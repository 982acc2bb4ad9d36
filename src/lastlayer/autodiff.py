"""Hand-derived reverse passes shared by the training objectives.

Every objective in this package is a small head on top of one network
shape, so gradients come from two pieces: ``mlp_backward``, the reverse
sweep through the network given the head's gradients with respect to its
outputs and last hidden layer, and ``logdet_spd``, whose gradient
d(log det A) = trace(A^-1 dA) is read off the inverse of a Cholesky factor
instead of differentiating the factorization itself.  Heads and primitives return
their value together with a function for the gradient, so value-only
callers pay for no reverse pass.

Gradients are written in place: ``mlp_backward`` fills arrays the caller
supplies, so a training objective hands it views into the one flat
gradient that ``training.fit_loop`` allocates and Adam reads.
"""

from __future__ import annotations

import numpy as np

from .linalg import chol_spd, logdet_pd

__all__ = ["NonFiniteLoss", "logdet_spd", "mlp_backward"]


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


def mlp_backward(
    weights,
    acts: list[np.ndarray],
    d_out: np.ndarray,
    d_last_hidden: np.ndarray | None,
    out,
) -> None:
    """Reverse sweep through a network evaluated by ``mlp.forward_weights``.

    Args:
        weights: one matrix per layer, bias in the last row.
        acts: the forward activations [x, h_1, ..., h_L, y].
        d_out: gradient of the objective with respect to the outputs y
            (left unchanged).
        d_last_hidden: extra gradient with respect to h_L from a head that
            reads the features directly, or None.
        out: one array per layer, each the shape of its weight matrix; the
            gradient with respect to layer k overwrites ``out[k]``.

    Raises:
        ValueError: when ``out`` does not hold one array of each weight's shape.
    """
    n_layers = len(weights)
    if len(out) != n_layers:
        raise ValueError(f"{len(out)} gradient destinations for {n_layers} layers")
    g = d_out
    for k in range(n_layers - 1, -1, -1):
        h = acts[k]
        gk = out[k]
        if gk.shape != weights[k].shape:
            raise ValueError(
                f"layer {k} gradient destination has shape {gk.shape}, "
                f"its weights {weights[k].shape}"
            )
        # [h.T @ g; column sums of g], written straight into the caller's array.
        np.matmul(h.T, g, out=gk[:-1])
        np.add.reduce(g, 0, out=gk[-1])
        if k == 0:
            break
        g = g @ weights[k][:-1].T
        if k == n_layers - 1 and d_last_hidden is not None:
            g += d_last_hidden
        g *= 1.0 - h * h
