"""Seeded random number streams.

All randomness in the package flows through ``numpy``'s PCG64 generator so
that every experiment is bit-reproducible from a single 64-bit seed.  A run
that needs several independent streams (data noise, weight init, Monte Carlo
sampling) derives them with ``spawn``, which guarantees statistical
independence between children of one seed.
"""

import numpy as np

__all__ = ["make_rng", "spawn_rngs"]


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic PCG64 generator for the given seed."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def spawn_rngs(seed: int, n: int) -> list[np.random.Generator]:
    """``n`` independent generators derived from one seed."""
    children = np.random.SeedSequence(seed).spawn(n)
    return [np.random.Generator(np.random.PCG64(c)) for c in children]

