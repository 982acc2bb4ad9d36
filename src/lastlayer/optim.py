"""Adam optimizer with bias correction, at its published constants.

Functional style: a step returns fresh parameter arrays and a new state,
so snapshots of past parameters (for early stopping) stay valid.
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
    m: tuple[np.ndarray, ...]
    v: tuple[np.ndarray, ...]
    lr: float


def adam_init(params: list[np.ndarray], lr: float = 1e-3) -> AdamState:
    zeros = tuple(np.zeros_like(p) for p in params)
    return AdamState(0, zeros, tuple(np.zeros_like(p) for p in params), lr)


def adam_step(
    state: AdamState, params: list[np.ndarray], grads: list[np.ndarray]
) -> tuple[AdamState, list[np.ndarray]]:
    """One update: m, v moment tracking, bias correction, then the step."""
    if len(params) != len(state.m) or len(grads) != len(params):
        raise ValueError("parameter/gradient count mismatch")
    t = state.step + 1
    c1 = 1.0 - BETA1**t
    c2 = 1.0 - BETA2**t
    new_m, new_v, new_p = [], [], []
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise ValueError("gradient shape mismatch")
        m = BETA1 * m + (1.0 - BETA1) * g
        v = BETA2 * v + (1.0 - BETA2) * g * g
        new_m.append(m)
        new_v.append(v)
        new_p.append(p - state.lr * (m / c1) / (np.sqrt(v / c2) + EPS))
    return AdamState(t, tuple(new_m), tuple(new_v), state.lr), new_p
