"""Synthetic regression benchmarks with controlled extrapolation bands.

The default problem maps one input to two outputs with distinct noise
floors; validation inputs cover a wider range than training and test inputs
a wider range still, so the splits probe interpolation, mild extrapolation
and strong extrapolation respectively.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import Dataset
from .rng import spawn_rngs

__all__ = ["BenchmarkFunction", "default_benchmark", "sample_benchmark", "toy_three_point"]


@dataclass(frozen=True)
class BenchmarkFunction:
    """Analytic target map plus sampling ranges and per-output noise."""

    fn: Callable[[np.ndarray], np.ndarray]
    noise: tuple[float, ...]
    train_range: tuple[float, float]
    val_range: tuple[float, float]
    test_range: tuple[float, float]
    m_train: int
    m_val: int
    m_test: int

    def __post_init__(self):
        if not (
            self.test_range[0] <= self.val_range[0] <= self.train_range[0]
            and self.train_range[1] <= self.val_range[1] <= self.test_range[1]
        ):
            raise ValueError("ranges must nest: train within val within test")
        if any(s < 0.0 for s in self.noise):
            raise ValueError("noise scales must be nonnegative")


def _default_map(x: np.ndarray) -> np.ndarray:
    x = x[:, 0]
    f1 = np.sin(3.0 * x) * np.exp(-0.2 * x**2)
    f2 = 0.5 * x + 0.8 * np.cos(2.0 * x)
    return np.stack([f1, f2], axis=1)


def default_benchmark() -> BenchmarkFunction:
    """Two-output problem with noise floors 0.05 and 0.2."""
    return BenchmarkFunction(
        fn=_default_map,
        noise=(0.05, 0.2),
        train_range=(-2.0, 2.0),
        val_range=(-3.0, 3.0),
        test_range=(-4.0, 4.0),
        m_train=60,
        m_val=20,
        m_test=200,
    )


def sample_benchmark(bench: BenchmarkFunction, seed: int) -> dict[str, Dataset]:
    """Draw the train/val/test splits; deterministic per seed."""
    rngs = spawn_rngs(seed, 3)
    out = {}
    for name, rng, rng_range, m in [
        ("train", rngs[0], bench.train_range, bench.m_train),
        ("val", rngs[1], bench.val_range, bench.m_val),
        ("test", rngs[2], bench.test_range, bench.m_test),
    ]:
        x = np.sort(rng.uniform(rng_range[0], rng_range[1], size=m)).reshape(-1, 1)
        clean = bench.fn(x)
        noise = rng.standard_normal(clean.shape) * np.asarray(bench.noise)
        out[name] = Dataset(x, clean + noise)
    return out


def _toy_map(x: np.ndarray) -> np.ndarray:
    return (np.sin(1.4 * x[:, 0]) + 0.3 * x[:, 0]).reshape(-1, 1)


def toy_three_point(seed: int = 0) -> dict[str, Dataset]:
    """Three-sample univariate problem for the feature-space walkthrough.

    Training holds exactly three points; validation and test points extend
    past them so the extrapolation penalty has something to calibrate on.
    """
    rngs = spawn_rngs(seed, 2)
    noise = 0.05
    x_train = np.array([[-2.0], [0.0], [1.5]])
    t_train = _toy_map(x_train) + noise * rngs[0].standard_normal((3, 1))
    x_val = np.linspace(-3.5, 3.5, 25).reshape(-1, 1)
    t_val = _toy_map(x_val) + noise * rngs[1].standard_normal((25, 1))
    return {
        "train": Dataset(x_train, t_train),
        "val": Dataset(x_val, t_val),
    }
