import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lastlayer import linalg
from lastlayer.bll import precision_bar
from lastlayer.linalg import (
    DimensionMismatch,
    NotPositiveDefinite,
    cholesky,
    chol_spd,
    logdet_pd,
    solve_pd,
)
from lastlayer.mlp import affine_rows

from oracles import charpoly_eigenvalues, random_spd, solve_pd_reference


class TestCholesky:
    def test_identity(self):
        lower = cholesky(np.eye(2), jitter=0.0)
        np.testing.assert_array_equal(lower, np.eye(2))

    def test_diagonal(self):
        lower = cholesky(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(lower, np.diag([2.0, 3.0]))

    def test_hand_expansion_2x2(self):
        # L @ L.T = [[2,1],[1,1]] expands to L = [[sqrt2,0],[1/sqrt2,1/sqrt2]]
        lower = cholesky(np.array([[2.0, 1.0], [1.0, 1.0]]))
        expected = np.array([[math.sqrt(2), 0.0], [1 / math.sqrt(2), 1 / math.sqrt(2)]])
        np.testing.assert_allclose(lower, expected, rtol=1e-12)

    def test_jitter_added_to_diagonal(self):
        a = np.zeros((2, 2))
        lower = cholesky(a, jitter=4.0)
        np.testing.assert_allclose(lower, 2.0 * np.eye(2))

    def test_reconstruction_with_jitter(self):
        rng = np.random.default_rng(0)
        a, _ = random_spd(rng, 4)
        jitter = 1e-9 * np.trace(a) / 4
        lower = cholesky(a, jitter=jitter)
        rebuilt = lower @ lower.T
        err = np.linalg.norm(rebuilt - (a + jitter * np.eye(4))) / np.linalg.norm(a)
        assert err < 1e-8

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_not_square(self):
        with pytest.raises(DimensionMismatch):
            cholesky(np.ones((2, 3)))

    def test_not_symmetric(self):
        with pytest.raises(ValueError):
            cholesky(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_chol_spd_recovers_near_singular(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])  # PSD, singular
        lower = chol_spd(a)
        assert np.all(np.diag(lower) > 0)


class TestLogdet:
    def test_identity_is_zero(self):
        assert logdet_pd(cholesky(np.eye(3))) == 0.0

    def test_diagonal(self):
        assert logdet_pd(cholesky(np.diag([4.0, 9.0]))) == pytest.approx(math.log(36.0))

    def test_unit_determinant(self):
        # det([[2,1],[1,1]]) = 1
        value = logdet_pd(cholesky(np.array([[2.0, 1.0], [1.0, 1.0]])))
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_matches_charpoly_eigenvalues(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            dim = int(rng.integers(2, 5))
            a, _ = random_spd(rng, dim)
            eigs = charpoly_eigenvalues(a)
            expected = np.sum(np.log(eigs))
            assert logdet_pd(cholesky(a)) == pytest.approx(expected, abs=1e-6)


class TestSolve:
    def test_identity_returns_rhs(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(solve_pd(cholesky(np.eye(2)), b), b)

    def test_hand_2x2(self):
        # inverse of [[2,1],[1,1]] is [[1,-1],[-1,2]]; applied to [1,1] gives [0,1]
        lower = cholesky(np.array([[2.0, 1.0], [1.0, 1.0]]))
        np.testing.assert_allclose(
            solve_pd(lower, np.array([1.0, 1.0])), [0.0, 1.0], atol=1e-12
        )

    def test_diagonal(self):
        lower = cholesky(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(solve_pd(lower, np.array([4.0, 9.0])), [1.0, 1.0])

    def test_recovers_random_solution(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            a, _ = random_spd(rng, min(dim, 4))
            x0 = rng.standard_normal((a.shape[0], 2))
            x = solve_pd(cholesky(a), a @ x0)
            assert np.abs(x - x0).max() < 1e-7

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve_pd(cholesky(np.eye(2)), np.ones(3))

    def test_residual_tolerance(self):
        rng = np.random.default_rng(11)
        a, _ = random_spd(rng, 4)
        b = rng.standard_normal(4)
        x = solve_pd(cholesky(a), b)
        assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) < 1e-8


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    m=st.integers(1, 7),
    k=st.integers(1, 11),
    log10_scale=st.floats(-3.0, 3.0),
)
def test_chol_spd_factors_rank_deficient_grams(seed, m, k, log10_scale):
    # phi has k drawn columns plus one that repeats a mix of them, so the
    # gram phi.T @ phi of size n = k + 1 is singular (rank <= min(m, k))
    rng = np.random.default_rng(seed)
    drawn = 10.0**log10_scale * rng.standard_normal((m, k))
    phi = np.concatenate([drawn, drawn @ rng.standard_normal((k, 1))], axis=1)
    a = phi.T @ phi
    n = a.shape[0]
    lower = chol_spd(a)
    assert np.isfinite(lower).all()
    assert (np.triu(lower, 1) == 0.0).all()
    assert np.abs(lower @ lower.T - a).max() <= 1e-10 * np.trace(a) / n


class TestSolveChecks:
    def test_zero_dim_rhs_is_a_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve_pd(cholesky(np.eye(2)), np.asarray(1.0))

    def test_three_dim_rhs_is_a_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve_pd(cholesky(np.eye(2)), np.ones((2, 2, 2)))

    def test_nan_rhs_raises(self):
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve_pd(cholesky(np.eye(2)), np.array([1.0, np.nan]))

    def test_nan_factor_raises(self):
        lower = np.array([[1.0, 0.0], [np.nan, 1.0]])
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve_pd(lower, np.ones(2))

    def test_factor_of_a_nan_matrix_is_rejected_by_the_solve(self):
        # np.linalg.cholesky returns a NaN factor for a NaN matrix without
        # raising; the solve's finiteness check is what catches it
        lower = chol_spd(np.full((2, 2), np.nan))
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve_pd(lower, np.ones(2))

    def test_singular_factor_raises(self):
        lower = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(np.linalg.LinAlgError):
            solve_pd(lower, np.ones(2))


class TestCholSpdChecks:
    def test_rejects_a_matrix_not_symmetric_within_tolerance(self):
        with pytest.raises(ValueError, match="not symmetric"):
            chol_spd(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_factors_a_matrix_symmetric_within_tolerance_but_not_exactly(self):
        a = np.array([[2.0, 1.0], [1.0 + 1e-13, 2.0]])
        assert not (a == a.T).all()
        np.testing.assert_array_equal(chol_spd(a), np.linalg.cholesky(a))


@pytest.mark.parametrize(
    ("diagonal", "scale"),
    [
        ((4.0, -3.0), 0.5),  # jitter scaled by trace/dim never reaches the -3 pivot
        ((-1.0, -1.0), 1e-30),  # a negative trace falls back to the 1e-30 floor
    ],
)
def test_a_never_positive_definite_matrix_climbs_the_whole_ladder(monkeypatch, diagonal, scale):
    # one unjittered attempt, then seven jittered ones, each 100 times the last
    jitters = []

    def spy(a, jitter=0.0):
        jitters.append(jitter)
        return cholesky(a, jitter=jitter)

    monkeypatch.setattr(linalg, "cholesky", spy)
    with pytest.raises(NotPositiveDefinite, match="even with jitter"):
        chol_spd(np.diag(diagonal))
    assert jitters[0] == 0.0
    assert jitters[1:] == pytest.approx([scale * 1e-12 * 100.0**k for k in range(7)], rel=1e-12)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 29),
    cols=st.integers(1, 5),
    rhs=st.sampled_from(["vector", "matrix", "fortran", "transposed", "identity"]),
)
def test_solve_pd_matches_solve_triangular_to_1e_12(seed, n, cols, rhs):
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal((n + 3, n))
    lower = chol_spd(phi.T @ phi + np.eye(n))
    b = {
        "vector": lambda: rng.standard_normal(n),
        "matrix": lambda: rng.standard_normal((n, cols)),
        "fortran": lambda: np.asfortranarray(rng.standard_normal((n, cols))),
        "transposed": lambda: rng.standard_normal((cols, n)).T,
        "identity": lambda: np.eye(n),
    }[rhs]()
    x = solve_pd(lower, b)
    expected = solve_pd_reference(lower, b)
    assert x.shape == expected.shape
    # the inverse route rounds differently from two triangular solves
    assert np.abs(x - expected).max() <= 1e-12 * np.abs(expected).max()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    n_hidden=st.integers(1, 28),
    m=st.integers(2, 200),
    log_spread=st.integers(-3, 0),
    log_alpha=st.integers(0, 25),
    rhs=st.sampled_from(["features", "targets", "identity"]),
)
def test_solve_pd_on_bll_precisions_stays_within_the_forward_error_bound(
    seed, n_hidden, m, log_spread, log_alpha, rhs
):
    # bll's precision at a large alpha: tanh features of one input, nearly
    # collinear for a small spread, a flat bias entry and a prior up to e^25
    # weaker than the data, past the top of the alpha search
    rng = np.random.default_rng(seed)
    spread = 10.0**log_spread
    a = rng.uniform(-1.0, 1.0, (m, 1)) @ rng.standard_normal((1, n_hidden)) * spread
    phi = affine_rows(np.tanh(a + spread * rng.standard_normal(n_hidden)))
    lower = chol_spd(precision_bar(phi, math.exp(log_alpha)))
    n = len(lower)
    b = {
        "features": lambda: phi.T,
        "targets": lambda: phi.T @ rng.standard_normal((m, 2)),
        "identity": lambda: np.eye(n),
    }[rhs]()
    x = solve_pd(lower, b)
    expected = solve_pd_reference(lower, b)
    assert x.shape == expected.shape
    # both routes meet n * cond(A) * eps; the gap between them grows with
    # cond(A) = cond(L)^2 and passes 1e-12 from about cond(A) = 1e4
    cond = np.linalg.cond(lower) ** 2
    bound = n * cond * np.finfo(float).eps
    assert np.abs(x - expected).max() <= bound * np.abs(expected).max()

