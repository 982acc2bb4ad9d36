"""A trainer's objective bound once against one bound fresh at each Adam step.

Every trainer binds its objective once per fit: the bind step keeps views
into the flat parameter and gradient vectors ``fit_loop`` hands it, and
every later epoch reads the parameters through them.  A view bound to a
copy would pass the first epoch and then read stale values.  So each
objective is caught on its way to ``fit_loop``, bound once, and then called
after each of several in-place moves of the flat parameter vector (as
``fit_loop`` applies Adam's steps).  Every call must give the value and
every gradient entry that the trainer's bind step, bound fresh at that step
to copies of the leaves and called once, gives, bit for bit, and leave no
entry of the NaN-filled gradient unwritten.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from lastlayer import baselines, training, vi
from lastlayer.baselines import _bind_mse
from lastlayer.bll import bind_nlml
from lastlayer.data import Dataset
from lastlayer.mlp import MlpSpec, forward_batch, init_params
from lastlayer.rng import make_rng, spawn_rngs
from lastlayer.vi import _bind_negative_elbo

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)
MOVES = 4


class _Captured(Exception):
    """Raised by the spy that stands in for ``fit_loop``, once it holds its arguments."""


def _caught(module, run):
    """The (leaves, objective) ``run`` hands ``module.fit_loop``."""
    captured = []

    def spy(leaves, loss_and_grads, cfg, monitor=None, post_step=None):
        captured.append((leaves, loss_and_grads))
        raise _Captured

    with mock.patch.object(module, "fit_loop", spy):
        try:
            run()
        except _Captured:
            pass
    return captured[0]


def _objective_and_reference(trainer, spec, data, cfg):
    """A trainer's objective, its initial leaves and a reference bound fresh per call.

    The reference takes copies of the leaves and a fresh gradient list,
    binds the trainer's bind step to them and returns its one call's value.
    """
    fit = training.standardized_splits(data, cfg)[2]
    if trainer == "bll":
        leaves, objective = _caught(training, lambda: training.train(spec, data, cfg))

        def reference(vals, out):
            return bind_nlml(vals, out, fit.x, fit.t)()

    elif trainer == "blr":
        frozen = init_params(spec, make_rng(cfg.seed + 1))
        leaves, objective = _caught(training, lambda: baselines.blr_fit(frozen, data, cfg))
        features = forward_batch(frozen, fit.x)[1]

        def reference(vals, out):
            return bind_nlml(vals, out, features, fit.t)()

    elif trainer == "mse":
        leaves, objective = _caught(baselines, lambda: baselines.train_mse(spec, data, cfg))

        def reference(vals, out):
            return _bind_mse(vals, fit, out)()

    else:
        leaves, objective = _caught(vi, lambda: vi.vi_train(spec, data, cfg))
        noise = spawn_rngs(cfg.seed, 2)[1]  # the generator vi_train draws from, untouched
        shapes = spec.layer_shapes()

        def reference(vals, out):
            eps = noise.standard_normal(vals[0].size)
            return _bind_negative_elbo(vals, out, eps, fit.x, fit.t, shapes)()

    return leaves, objective, reference


@SETTINGS
@given(
    trainer=st.sampled_from(["bll", "blr", "mse", "vi"]),
    n_x=st.integers(1, 3),
    n_y=st.integers(1, 3),
    hidden=st.lists(st.integers(1, 8), min_size=1, max_size=3),
    m=st.integers(5, 30),
    seed=st.integers(0, 2**16),
)
def test_a_bound_objective_follows_the_leaves_it_was_bound_to(trainer, n_x, n_y, hidden, m, seed):
    rng = np.random.default_rng(seed)
    data = Dataset(rng.standard_normal((m, n_x)), rng.standard_normal((m, n_y)))
    spec = MlpSpec(n_x, tuple(hidden), n_y)
    cfg = training.TrainConfig(max_epochs=5, patience=4, seed=seed)
    leaves, objective, reference = _objective_and_reference(trainer, spec, data, cfg)
    shapes = [np.shape(a) for a in leaves]
    flat = np.concatenate(leaves, axis=None, dtype=float)
    grad = np.empty_like(flat)
    views, grad_views = training.flat_views(flat, shapes), training.flat_views(grad, shapes)
    for move in range(MOVES):
        if move:
            flat[...] = flat + 0.05 * rng.standard_normal(flat.size)
        grad[...] = np.nan
        value = objective(views, grad_views)
        fresh = np.full_like(flat, np.nan)
        expected = reference([v.copy() for v in views], training.flat_views(fresh, shapes))
        assert value == expected, move
        assert not np.isnan(grad).any(), move
        assert np.array_equal(grad, fresh), move
