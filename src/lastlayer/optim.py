"""Adam optimizer with bias correction, at its published constants.

Functional style: a step returns a fresh parameter array and a new state,
so snapshots of past parameters (for early stopping) stay valid.  The
parameters are one array; ``training.fit_loop`` keeps them flat.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["AdamState", "adam_init", "adam_step"]

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass(frozen=True)
class AdamState:
    step: int
    m: np.ndarray
    v: np.ndarray
    lr: float


def adam_init(params: np.ndarray, lr: float = 1e-3) -> AdamState:
    return AdamState(0, np.zeros_like(params), np.zeros_like(params), lr)


def adam_step(
    state: AdamState, params: np.ndarray, grads: np.ndarray
) -> tuple[AdamState, np.ndarray]:
    """One update: m, v moment tracking, bias correction, then the step."""
    if params.shape != grads.shape:
        raise ValueError("gradient shape mismatch")
    t = state.step + 1
    c1 = 1.0 - BETA1**t
    c2 = 1.0 - BETA2**t
    m = BETA1 * state.m + (1.0 - BETA1) * grads
    v = BETA2 * state.v + (1.0 - BETA2) * grads * grads
    new_params = params - state.lr * (m / c1) / (np.sqrt(v / c2) + EPS)
    return AdamState(t, m, v, state.lr), new_params
