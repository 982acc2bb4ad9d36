import numpy as np
import pytest

from lastlayer.rng import make_rng, spawn_rngs


def test_empty_draw():
    assert make_rng(0).standard_normal(0).shape == (0,)


def test_negative_count_rejected():
    with pytest.raises(ValueError):
        make_rng(0).standard_normal(-1)


def test_same_seed_same_stream():
    a = make_rng(123).standard_normal(5)
    b = make_rng(123).standard_normal(5)
    np.testing.assert_array_equal(a, b)


def test_distinct_seeds_differ():
    a = make_rng(1).standard_normal(100)
    b = make_rng(2).standard_normal(100)
    assert np.abs(a - b).max() > 0.0


def test_moments_converge():
    draws = make_rng(42).standard_normal(100_000)
    assert abs(draws.mean()) < 0.02
    assert abs(draws.var() - 1.0) < 0.05


def test_spawned_streams_reproducible_and_independent():
    first = [g.standard_normal(8) for g in spawn_rngs(9, 3)]
    second = [g.standard_normal(8) for g in spawn_rngs(9, 3)]
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a, b)
    # children of one seed should not repeat each other
    assert np.abs(first[0] - first[1]).max() > 0.0
    # correlation between long spawned streams stays near zero
    g1, g2 = spawn_rngs(9, 2)
    x, y = g1.standard_normal(50_000), g2.standard_normal(50_000)
    assert abs(np.corrcoef(x, y)[0, 1]) < 0.02
