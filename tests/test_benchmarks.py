import numpy as np
import pytest

from dataclasses import replace

from lastlayer.benchmarks import (
    BenchmarkFunction,
    default_benchmark,
    sample_benchmark,
    toy_three_point,
)


def test_default_shape_and_ranges():
    bench = default_benchmark()
    splits = sample_benchmark(bench, 0)
    assert splits["train"].m == 60 and splits["val"].m == 20 and splits["test"].m == 200
    assert splits["train"].n_y == 2
    assert splits["train"].x.min() >= -2.0 and splits["train"].x.max() <= 2.0
    assert splits["val"].x.min() >= -3.0 and splits["val"].x.max() <= 3.0
    assert splits["test"].x.min() >= -4.0 and splits["test"].x.max() <= 4.0


def test_zero_noise_gives_exact_function_values():
    bench = replace(default_benchmark(), noise=(0.0, 0.0))
    splits = sample_benchmark(bench, 1)
    clean = bench.fn(splits["test"].x)
    np.testing.assert_array_equal(splits["test"].t, clean)


def test_deterministic_per_seed():
    a = sample_benchmark(default_benchmark(), 5)
    b = sample_benchmark(default_benchmark(), 5)
    for name in ("train", "val", "test"):
        np.testing.assert_array_equal(a[name].x, b[name].x)
        np.testing.assert_array_equal(a[name].t, b[name].t)
    c = sample_benchmark(default_benchmark(), 6)
    assert np.abs(a["train"].x - c["train"].x).max() > 0


def test_noise_levels_recoverable_at_200_samples():
    bench = default_benchmark()
    splits = sample_benchmark(bench, 2)
    resid = splits["test"].t - bench.fn(splits["test"].x)
    std = resid.std(axis=0)
    for observed, expected in zip(std, bench.noise):
        assert abs(observed - expected) / expected < 0.15


def test_range_nesting_enforced():
    with pytest.raises(ValueError):
        BenchmarkFunction(
            fn=lambda x: x,
            noise=(0.1,),
            train_range=(-3.0, 3.0),
            val_range=(-2.0, 2.0),
            test_range=(-4.0, 4.0),
            m_train=10,
            m_val=5,
            m_test=5,
        )


def test_toy_three_point_layout():
    splits = toy_three_point(0)
    assert splits["train"].m == 3
    assert splits["val"].m == 25
    assert splits["val"].x.min() < splits["train"].x.min()
    assert splits["val"].x.max() > splits["train"].x.max()
    again = toy_three_point(0)
    np.testing.assert_array_equal(splits["train"].t, again["train"].t)
