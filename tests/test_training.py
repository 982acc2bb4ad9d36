from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lastlayer.autodiff import NonFiniteLoss
from lastlayer.baselines import _mse_grads, _mse_head, blr_fit, train_mse
from lastlayer.bll import (
    HYPER_CLAMP,
    BllHyper,
    closed_form_wbar,
    negative_lml,
    nlml_grads_into,
)
from lastlayer.data import Dataset
from lastlayer.mlp import MlpParams, MlpSpec, forward_batch, forward_weights, init_params
from lastlayer.mlp import mlp_backward
from lastlayer.rng import make_rng
from lastlayer.training import (
    TrainConfig,
    clamp_hyper_tail,
    fit_loop,
    fit_nlml,
    flat_views,
    train,
)
from lastlayer.vi import RHO_INIT, _negative_elbo, vi_train

from oracles import (
    fit_loop_per_leaf,
    mse_grads_reference,
    negative_elbo_reference,
    negative_lml_grads_reference,
    returning,
    writing,
)


def _linear_dataset(seed=0, m=40, slope=2.0, noise=0.1):
    rng = make_rng(seed)
    x = np.sort(rng.uniform(-1.0, 1.0, size=m)).reshape(-1, 1)
    t = slope * x + noise * rng.standard_normal((m, 1))
    return Dataset(x, t)


FAST = TrainConfig(max_epochs=4000, patience=400, lr=5e-3, seed=0)


class TestConfig:
    def test_patience_must_be_smaller(self):
        with pytest.raises(ValueError):
            TrainConfig(max_epochs=10, patience=10)

    def test_val_fraction_bounds(self):
        with pytest.raises(ValueError):
            TrainConfig(val_fraction=1.5)


def test_flat_views_tile_the_flat_vector_in_order():
    flat = np.arange(11.0)
    shapes = [(3, 2), (), (4,)]
    views = flat_views(flat, shapes)
    assert [v.shape for v in views] == shapes
    np.testing.assert_array_equal(np.concatenate(views, axis=None), np.arange(11.0))
    for view in views:
        view[...] = -view  # views, not copies: the writes land in flat
    np.testing.assert_array_equal(flat, -np.arange(11.0))


class TestFitLoop:
    def test_converges_on_quadratic(self):
        def loss_and_grads(leaves):
            return float(leaves[0] ** 2), [2.0 * leaves[0]]

        best, history = fit_loop(
            [np.asarray(3.0)],
            writing(loss_and_grads),
            TrainConfig(max_epochs=3000, patience=2999, lr=0.05),
        )
        assert abs(best[0]) < 1e-2
        assert history.train_objective[-1] < history.train_objective[0]

    def test_returns_best_monitored_epoch_not_last(self):
        # monitor dips at epoch 5 then rises again
        def loss_and_grads(leaves):
            return 0.0, [np.zeros(())]

        counter = {"epoch": 0}

        def monitor(leaves):
            e = counter["epoch"]
            counter["epoch"] += 1
            return float((e - 5) ** 2)

        best, history = fit_loop(
            [np.asarray(1.0)],
            writing(loss_and_grads),
            TrainConfig(max_epochs=100, patience=10, lr=0.1),
            monitor=monitor,
        )
        assert history.best_epoch == 5
        assert len(history.val_objective) < 100  # patience cut the run short
        assert min(history.val_objective) == history.val_objective[5]

    def test_stop_reason_max_epochs(self):
        def loss_and_grads(leaves):
            return float(leaves[0] ** 2), [2.0 * leaves[0]]

        _, history = fit_loop(
            [np.asarray(3.0)],
            writing(loss_and_grads),
            TrainConfig(max_epochs=50, patience=10, lr=0.01),
        )
        assert len(history.train_objective) == 50
        assert history.stop_reason == "max_epochs"

    def test_stop_reason_patience(self):
        # the monitor improves for five epochs, then stalls
        crits = iter([5.0, 4.0, 3.0, 2.0, 1.0] + [7.0] * 95)

        def loss_and_grads(leaves):
            return 0.0, [np.zeros(())]

        _, history = fit_loop(
            [np.asarray(0.0)],
            writing(loss_and_grads),
            TrainConfig(max_epochs=100, patience=10),
            monitor=lambda leaves: next(crits),
        )
        assert history.best_epoch == 4
        # epochs 5..15 do not improve; the one 11 epochs past the best stops it
        assert len(history.train_objective) == 4 + 11 + 1
        assert history.stop_reason == "patience"

    @pytest.mark.parametrize(
        "grads",
        [
            [np.empty((3, 2)), np.empty((4, 1))],  # the first layer's gradient transposed
            [np.empty((4, 1)), np.empty((2, 3))],  # the two gradients swapped
            [np.empty(6), np.empty((4, 1))],  # same size, flattened
            [np.empty((4, 1))],  # one gradient missing
        ],
    )
    def test_gradients_that_do_not_match_the_leaves_raise(self, grads):
        # fit_loop hands the objective views shaped like the leaves, and the
        # reverse sweep every head runs refuses destinations of other shapes
        weights = init_params(MlpSpec(1, (3,), 1), make_rng(0)).weights  # (2, 3), (4, 1)
        acts = forward_weights(weights, np.linspace(-1.0, 1.0, 5).reshape(-1, 1))
        with pytest.raises(ValueError, match="gradient destination"):
            mlp_backward(weights, acts, np.ones((5, 1)), None, grads)

    def test_an_entry_the_objective_leaves_unwritten_stops_the_run(self):
        # the gradient starts as NaN, so a skipped entry poisons the step
        def loss_and_grads(leaves, grads):
            grads[0][...] = 0.0
            return float(np.sum(leaves[1]))

        with pytest.raises(NonFiniteLoss, match="^epoch 1: objective evaluated to nan"):
            fit_loop(
                [np.zeros(2), np.zeros(3)], loss_and_grads, TrainConfig(max_epochs=5, patience=4)
            )

    def test_non_finite_loss_reports_epoch(self):
        calls = {"n": 0}

        def loss_and_grads(leaves):
            if calls["n"] == 3:
                raise NonFiniteLoss("objective evaluated to nan")
            calls["n"] += 1
            return 1.0, [np.zeros(())]

        with pytest.raises(NonFiniteLoss, match="epoch 3"):
            fit_loop(
                [np.asarray(0.0)], writing(loss_and_grads), TrainConfig(max_epochs=10, patience=5)
            )

    def test_non_finite_monitor_reports_epoch(self):
        def loss_and_grads(leaves):
            return 1.0, [np.zeros(())]

        values = iter([3.0, 2.0, float("nan")])
        with pytest.raises(NonFiniteLoss, match="^epoch 2: monitor evaluated to nan"):
            fit_loop(
                [np.asarray(0.0)],
                writing(loss_and_grads),
                TrainConfig(max_epochs=10, patience=5),
                monitor=lambda leaves: next(values),
            )

    @pytest.mark.parametrize("trainer", ["bll", "mse", "blr", "vi"])
    def test_every_trainer_reports_the_epoch_of_a_non_finite_objective(self, trainer):
        # one Adam step of size ~1e300 overflows every objective at epoch 1
        data = _linear_dataset(seed=9, m=20)
        spec = MlpSpec(1, (3,), 1)
        cfg = TrainConfig(max_epochs=50, patience=10, lr=1e300)
        run = {
            "bll": lambda: train(spec, data, cfg),
            "mse": lambda: train_mse(spec, data, cfg),
            "blr": lambda: blr_fit(init_params(spec, make_rng(1)), data, cfg),
            "vi": lambda: vi_train(spec, data, cfg),
        }[trainer]
        with np.errstate(all="ignore"), pytest.raises(NonFiniteLoss, match="^epoch 1: "):
            run()


def _wrong_destinations():
    """Calls of each head given one wrong-shaped gradient destination, by name."""
    rng = np.random.default_rng(0)
    weights = init_params(MlpSpec(1, (3,), 2), make_rng(0)).weights  # (2, 3) and (4, 2)
    data = Dataset(rng.standard_normal((6, 1)), rng.standard_normal((6, 2)))
    mu, rho = np.concatenate(weights, axis=None), np.full(14, -3.0)
    elbo_leaves = [mu, rho, np.zeros(2), np.zeros(2)]
    eps = rng.standard_normal(14)
    shapes = [(2, 3), (4, 2)]

    def nlml(tail):
        out = [np.empty(w.shape) for w in weights] + tail
        return lambda: nlml_grads_into(weights, 0.0, np.zeros(2), data.x, data.t, out)

    def elbo(grads):
        return lambda: _negative_elbo(elbo_leaves, grads, eps, data.x, data.t, shapes)

    return {
        "nlml vector log alpha": nlml([np.empty(1), np.empty(2)]),
        "nlml broadcast log sigma_e": nlml([np.empty(()), np.empty((3, 2))]),
        "nlml tail missing": nlml([np.empty(())]),
        "mse swapped": lambda: _mse_grads(weights, data, [np.empty((4, 2)), np.empty((2, 3))]),
        "elbo short mu": elbo([np.empty(13), np.empty(14), np.empty(2), np.empty(2)]),
        "elbo broadcast prior spread": elbo(
            [np.empty(14), np.empty(14), np.empty((3, 2)), np.empty(2)]
        ),
    }


@pytest.mark.parametrize("case", list(_wrong_destinations()))
def test_a_head_given_a_wrong_shaped_destination_raises(case):
    with pytest.raises(ValueError):
        _wrong_destinations()[case]()


def _clip_tail_copies(leaves):
    """The functional form of clamp_hyper_tail, for the per-leaf reference loop."""
    return leaves[:-2] + [np.clip(a, -HYPER_CLAMP, HYPER_CLAMP) for a in leaves[-2:]]


def _assert_same_run(flat_run, reference_run):
    best, history = flat_run
    ref_best, ref_train, ref_val, ref_best_epoch = reference_run
    assert len(best) == len(ref_best)
    for got, want in zip(best, ref_best):
        assert got.shape == np.shape(want)
        np.testing.assert_array_equal(got, want)
    assert history.train_objective == ref_train
    if history.val_objective is not None:
        assert history.val_objective == ref_val
    assert history.best_epoch == ref_best_epoch


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    shapes=st.lists(st.sampled_from([(), (3,), (2, 4), (5, 1)]), max_size=4),
    n_tail=st.integers(1, 3),
    patience=st.integers(3, 39),
    with_monitor=st.booleans(),
)
def test_flat_fit_loop_matches_the_per_leaf_loop(seed, shapes, n_tail, patience, with_monitor):
    rng = np.random.default_rng(seed)
    # a 0-d and a vector hyperparameter leaf last, as fit_nlml lays them out
    leaves = [rng.standard_normal(s) for s in shapes]
    leaves += [np.asarray(rng.standard_normal()), rng.standard_normal(n_tail)]
    # optima far outside the clamp box, so clamp_hyper_tail has work to do
    targets = [30.0 * rng.standard_normal(np.shape(a)) for a in leaves]

    def loss_and_grads(vals):
        diffs = [v - tgt for v, tgt in zip(vals, targets)]
        value = float(sum(np.sum(np.sin(d) + 0.05 * d * d) for d in diffs))
        return value, [np.cos(d) + 0.1 * d for d in diffs]

    def monitor(vals):
        return float(sum(np.sum(np.abs(np.sin(3.0 * (v - tgt)))) for v, tgt in zip(vals, targets)))

    cfg = TrainConfig(max_epochs=40, patience=patience, lr=2.0)
    kwargs = {"monitor": monitor if with_monitor else None}
    flat_run = fit_loop(
        [a.copy() for a in leaves],
        writing(loss_and_grads),
        cfg,
        post_step=clamp_hyper_tail,
        **kwargs,
    )
    reference_run = fit_loop_per_leaf(
        leaves, loss_and_grads, cfg, post_step=_clip_tail_copies, **kwargs
    )
    _assert_same_run(flat_run, reference_run)


# The real objectives at the benchmark's shapes: 48 fit rows, hidden
# (20, 20, 20), two outputs.  The flat loop runs each head writing into views
# of its one gradient vector; the per-leaf loop runs the verbatim reference
# head, returning fresh arrays.
BENCH_SPEC = MlpSpec(1, (20, 20, 20), 2)


def _bench_data(seed):
    rng = np.random.default_rng(seed)
    fit = Dataset(rng.standard_normal((48, 1)), rng.standard_normal((48, 2)))
    val = Dataset(rng.standard_normal((12, 1)), rng.standard_normal((12, 2)))
    return fit, val


def test_flat_fit_loop_matches_the_per_leaf_loop_on_the_nlml():
    fit, val = _bench_data(5)
    weights = init_params(BENCH_SPEC, make_rng(3)).weights
    leaves = [*weights, np.asarray(0.0), np.full(2, -1.0)]

    def unpack(vals):
        return MlpParams(tuple(vals[:-2])), BllHyper(float(vals[-2]), vals[-1])

    def loss_and_grads(vals, grads):
        return nlml_grads_into(vals[:-2], float(vals[-2]), vals[-1], fit.x, fit.t, grads)

    def reference(vals):
        value, (w_grads, g_la, g_ls) = negative_lml_grads_reference(*unpack(vals), fit)
        return value, [*w_grads, g_la, g_ls]

    def monitor(vals):
        return negative_lml(*unpack(vals), val)

    cfg = TrainConfig(max_epochs=30, patience=29, lr=1e-2)
    flat_run = fit_loop(
        [a.copy() for a in leaves], loss_and_grads, cfg, monitor, post_step=clamp_hyper_tail
    )
    reference_run = fit_loop_per_leaf(leaves, reference, cfg, monitor, post_step=_clip_tail_copies)
    _assert_same_run(flat_run, reference_run)


def test_flat_fit_loop_matches_the_per_leaf_loop_on_the_mse():
    fit, val = _bench_data(6)
    leaves = list(init_params(BENCH_SPEC, make_rng(4)).weights)

    def monitor(vals):
        return _mse_head(forward_batch(MlpParams(tuple(vals)), val.x)[0], val.t)[0]

    cfg = TrainConfig(max_epochs=30, patience=29, lr=1e-2)
    flat_run = fit_loop(
        [a.copy() for a in leaves],
        lambda vals, grads: _mse_grads(vals, fit, grads),
        cfg,
        monitor,
    )
    reference_run = fit_loop_per_leaf(
        leaves, lambda vals: mse_grads_reference(vals, fit), cfg, monitor
    )
    _assert_same_run(flat_run, reference_run)


def test_flat_fit_loop_matches_the_per_leaf_loop_on_the_elbo():
    # vi trains flat means and spreads; the reference reads them per layer
    fit, _ = _bench_data(7)
    shapes = BENCH_SPEC.layer_shapes()
    weights = init_params(BENCH_SPEC, make_rng(5)).weights
    tail = [np.full(2, -0.3), np.full(2, -1.0)]
    n_layers = len(shapes)

    flat_rng, layer_rng = np.random.default_rng(8), np.random.default_rng(8)

    def loss_and_grads(vals, grads):
        eps = flat_rng.standard_normal(vals[0].size)
        return _negative_elbo(vals, grads, eps, fit.x, fit.t, shapes)

    def reference(vals):
        eps = [layer_rng.standard_normal(s) for s in shapes]
        return negative_elbo_reference(vals, eps, fit.x, fit.t)

    cfg = TrainConfig(max_epochs=30, patience=29, lr=1e-2)
    flat_leaves = [
        np.concatenate(weights, axis=None),
        np.full(sum(w.size for w in weights), RHO_INIT),
        *tail,
    ]
    best, history = fit_loop(flat_leaves, loss_and_grads, cfg, post_step=clamp_hyper_tail)
    layer_leaves = [*weights, *(np.full(s, RHO_INIT) for s in shapes), *tail]
    ref_best, *ref_rest = fit_loop_per_leaf(
        layer_leaves, reference, cfg, post_step=_clip_tail_copies
    )
    as_flat = [
        np.concatenate(ref_best[:n_layers], axis=None),
        np.concatenate(ref_best[n_layers : 2 * n_layers], axis=None),
        *ref_best[2 * n_layers :],
    ]
    _assert_same_run((best, history), (as_flat, *ref_rest))


@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("monitored", [False, True])
def test_fit_nlml_builds_no_params_or_hyperparameters_per_objective_call(
    monkeypatch, frozen, monitored
):
    # the objective reads the leaf views; only the monitor, which goes
    # through the public negative_lml, and the result build them
    counts = Counter()
    for cls in (BllHyper, MlpParams):
        monkeypatch.setattr(cls, "__post_init__", _counting(cls.__post_init__, counts, cls))
    fit, val = _bench_data(6)
    weights = init_params(BENCH_SPEC, make_rng(4)).weights
    if frozen:  # blr: the output layer alone on fixed features
        fit = Dataset(forward_batch(MlpParams(weights), fit.x)[1], fit.t)
        val = Dataset(forward_batch(MlpParams(weights), val.x)[1], val.t)
        weights = weights[-1:]
    counts.clear()
    epochs = 5
    fit_nlml(weights, fit, val if monitored else None, TrainConfig(max_epochs=epochs, patience=4))
    per_epoch = epochs if monitored else 0
    assert counts[BllHyper] <= per_epoch + 1
    assert counts[MlpParams] <= per_epoch + 1


def _counting(post_init, counts, cls):
    def counted(self):
        counts[cls] += 1
        post_init(self)

    return counted


class TestTrain:
    def test_linear_data_reaches_noise_floor(self):
        data = _linear_dataset(seed=1, m=40, slope=2.0, noise=0.1)
        model, _ = train(MlpSpec(1, (4,), 1), data, FAST)
        rng = make_rng(99)
        x_test = rng.uniform(-1.0, 1.0, size=(200, 1))
        t_test = 2.0 * x_test + 0.1 * rng.standard_normal((200, 1))
        from lastlayer.bll import predict_batch

        mean, _, _ = predict_batch(model, x_test)
        mse = float(np.mean((t_test - mean) ** 2))
        # closed-form linear regression on the same training data as oracle
        design = np.concatenate([data.x, np.ones((data.m, 1))], axis=1)
        coef, *_ = np.linalg.lstsq(design, data.t, rcond=None)
        oracle_mse = float(
            np.mean((t_test - np.concatenate([x_test, np.ones((200, 1))], axis=1) @ coef) ** 2)
        )
        assert mse < oracle_mse + 3 * 0.1**2

    def test_duplicated_outputs_get_matching_noise(self):
        base = _linear_dataset(seed=2, m=30, noise=0.15)
        data = Dataset(base.x, np.concatenate([base.t, base.t], axis=1))
        model, _ = train(MlpSpec(1, (4,), 2), data, FAST)
        s0, s1 = model.sigma_e
        assert abs(s0 - s1) / max(s0, s1) < 0.10

    def test_bitwise_deterministic_history(self):
        data = _linear_dataset(seed=3, m=20)
        cfg = TrainConfig(max_epochs=200, patience=150, seed=7)
        _, h1 = train(MlpSpec(1, (3,), 1), data, cfg)
        _, h2 = train(MlpSpec(1, (3,), 1), data, cfg)
        assert h1.train_objective == h2.train_objective
        assert h1.val_objective == h2.val_objective
        assert h1.best_epoch == h2.best_epoch

    def test_history_best_epoch_minimizes_validation(self):
        data = _linear_dataset(seed=4, m=30)
        model, history = train(MlpSpec(1, (3,), 1), data, FAST)
        assert history.best_epoch == int(np.argmin(history.val_objective))

    def test_trained_wbar_near_closed_form(self):
        # at convergence the free output weights sit at their stationary value
        data = _linear_dataset(seed=5, m=16, noise=0.05)
        cfg = TrainConfig(max_epochs=20000, patience=19999, lr=5e-3, seed=1, val_fraction=None)
        model, _ = train(MlpSpec(1, (2,), 1), data, cfg)
        t_std = model.t_scaler.transform(data.t)
        closed = closed_form_wbar(model.phi, t_std, model.alpha)
        gap = np.abs(model.wbar - closed).max()
        assert gap < 1e-3 * (1.0 + np.abs(model.wbar).max())
        assert model.wbar_gap == pytest.approx(gap)

    def test_spec_dimension_mismatch_rejected(self):
        data = _linear_dataset(seed=6, m=10)
        with pytest.raises(ValueError):
            train(MlpSpec(2, (3,), 1), data, FAST)
