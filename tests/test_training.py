import itertools
import re
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lastlayer.autodiff import NonFiniteLoss
from lastlayer.baselines import _bind_mse, _mse_head, blr_fit, train_mse
from lastlayer.bll import (
    HYPER_CLAMP,
    BllHyper,
    bind_nlml,
    closed_form_wbar,
    negative_lml,
)
from lastlayer.data import Dataset
from lastlayer.linalg import DimensionMismatch
from lastlayer.mlp import MlpParams, MlpSpec, forward_batch, forward_weights, init_params
from lastlayer.mlp import bind_backward
from lastlayer import training
from lastlayer.rng import make_rng
from lastlayer.training import (
    MONITOR_BLOCK,
    TrainConfig,
    adam_step,
    clamp_hyper_tail,
    fit_loop,
    fit_nlml,
    flat_views,
    train,
)
from lastlayer.vi import RHO_INIT, _bind_negative_elbo, vi_train

from oracles import (
    fit_loop_per_leaf,
    mse_grads_reference,
    negative_elbo_reference,
    negative_lml_grads_reference,
    per_row,
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
            monitor=per_row(monitor),
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
            monitor=per_row(lambda leaves: next(crits)),
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
            bind_backward(weights, grads)(acts, np.ones((5, 1)), None)

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

        # the block of epochs 0-6 is judged at once, so the monitor reads all seven
        values = iter([3.0, 2.0, float("nan")] + [1.0] * 4)
        with pytest.raises(NonFiniteLoss, match="^epoch 2: monitor evaluated to nan"):
            fit_loop(
                [np.asarray(0.0)],
                writing(loss_and_grads),
                TrainConfig(max_epochs=10, patience=5),
                monitor=per_row(lambda leaves: next(values)),
            )

    @pytest.mark.parametrize(
        "objective, monitor, message",
        [
            (
                [1.0, 1.0, 1.0],
                [3.0, 2.0, np.inf],
                "epoch 2: monitor evaluated to inf (best so far: epoch 1, monitor value 2.0)",
            ),
            (
                [1.0, 1.0, np.nan],
                [3.0, 2.0, 5.0],
                "epoch 2: objective evaluated to nan (best so far: epoch 1, monitor value 2.0)",
            ),
            (
                [1.0, 1.0, np.nan],
                [2.0, 3.0, 5.0],
                "epoch 2: objective evaluated to nan (best so far: epoch 0, monitor value 2.0)",
            ),
            ([np.nan], [1.0], "epoch 0: objective evaluated to nan (no epoch judged before it)"),
        ],
    )
    def test_a_non_finite_value_names_the_best_epoch_so_far(self, objective, monitor, message):
        # padded to the first block, epochs 0-6, which the monitor reads at once
        objectives, monitors = iter(objective + [1.0] * 7), iter(monitor + [1.0] * 7)
        with pytest.raises(NonFiniteLoss) as err:
            fit_loop(
                [np.asarray(0.0)],
                writing(lambda leaves: (next(objectives), [np.zeros(())])),
                TrainConfig(max_epochs=10, patience=5),
                monitor=per_row(lambda leaves: next(monitors)),
            )
        assert str(err.value) == message

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
        return lambda: bind_nlml([*weights, np.asarray(0.0), np.zeros(2)], out, data.x, data.t)()

    def elbo(grads):
        return lambda: _bind_negative_elbo(elbo_leaves, grads, eps, data.x, data.t, shapes)()

    return {
        "nlml vector log alpha": nlml([np.empty(1), np.empty(2)]),
        "nlml broadcast log sigma_e": nlml([np.empty(()), np.empty((3, 2))]),
        "nlml tail missing": nlml([np.empty(())]),
        "mse swapped": lambda: _bind_mse(weights, data, [np.empty((4, 2)), np.empty((2, 3))])(),
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
    ref_best, ref_train, ref_val, ref_best_epoch, ref_stop_reason, _ = reference_run
    assert len(best) == len(ref_best)
    for got, want in zip(best, ref_best):
        assert got.shape == np.shape(want)
        np.testing.assert_array_equal(got, want)
    assert history.train_objective == ref_train
    if history.val_objective is not None:
        assert history.val_objective == ref_val
    assert history.best_epoch == ref_best_epoch
    assert history.stop_reason == ref_stop_reason


def _sinusoid_problem(seed, shapes, n_tail):
    """Leaves, a per-leaf objective returning (value, grads) and a per-epoch monitor.

    Both curves wander, and the monitor's bowl sits halfway to the
    objective's optima, so it falls and then rises: the best epoch and the
    patience stop fall at scattered epochs.
    """
    rng = np.random.default_rng(seed)
    # a 0-d and a vector hyperparameter leaf last, as fit_nlml lays them out
    leaves = [rng.standard_normal(s) for s in shapes]
    leaves += [np.asarray(rng.standard_normal()), rng.standard_normal(n_tail)]
    # optima far outside the clamp box, so clamp_hyper_tail has work to do
    targets = [30.0 * rng.standard_normal(np.shape(a)) for a in leaves]
    bowl = [0.5 * (a + tgt) for a, tgt in zip(leaves, targets)]

    def loss_and_grads(vals):
        diffs = [v - tgt for v, tgt in zip(vals, targets)]
        value = float(sum(np.sum(np.sin(d) + 0.05 * d * d) for d in diffs))
        return value, [np.cos(d) + 0.1 * d for d in diffs]

    def monitor(vals):
        return float(
            sum(
                np.sum(np.abs(np.sin(3.0 * (v - tgt))) + 0.01 * (v - low) ** 2)
                for v, tgt, low in zip(vals, targets, bowl)
            )
        )

    return leaves, loss_and_grads, monitor


LEAF_SHAPES = st.lists(st.sampled_from([(), (3,), (2, 4), (5, 1)]), max_size=4)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    shapes=LEAF_SHAPES,
    n_tail=st.integers(1, 3),
    patience=st.integers(3, 39),
    with_monitor=st.booleans(),
)
def test_flat_fit_loop_matches_the_per_leaf_loop(seed, shapes, n_tail, patience, with_monitor):
    leaves, loss_and_grads, monitor = _sinusoid_problem(seed, shapes, n_tail)
    cfg = TrainConfig(max_epochs=40, patience=patience, lr=2.0)
    flat_run = fit_loop(
        [a.copy() for a in leaves],
        writing(loss_and_grads),
        cfg,
        monitor=per_row(monitor) if with_monitor else None,
        post_step=clamp_hyper_tail,
    )
    reference_run = fit_loop_per_leaf(
        leaves,
        loss_and_grads,
        cfg,
        monitor=monitor if with_monitor else None,
        post_step=_clip_tail_copies,
    )
    _assert_same_run(flat_run, reference_run)


def _poisoned(fn, epoch, value, returns_grads):
    """``fn`` with its result at call ``epoch`` (counted from 0) replaced by ``value``."""
    calls = itertools.count()

    def poisoned(vals):
        out = fn(vals)
        if next(calls) != epoch:
            return out
        return (value, out[1]) if returns_grads else value

    return poisoned


@pytest.mark.parametrize("poison", [None, "objective", "monitor"])
@pytest.mark.parametrize("long_patience", [False, True])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), shapes=LEAF_SHAPES, with_monitor=st.booleans(), data=st.data())
def test_the_block_judged_loop_matches_the_per_epoch_loop(
    seed, shapes, with_monitor, long_patience, poison, data
):
    # the per-leaf loop judges every epoch on its own; fit_loop judges a
    # block of epochs with one monitor call, here the same monitor row by
    # row; up to about three blocks, patience under or over one block
    lowest = MONITOR_BLOCK + 2 if long_patience else 2
    max_epochs = data.draw(st.integers(lowest, 3 * MONITOR_BLOCK + 8), label="max_epochs")
    if long_patience:
        patience = data.draw(st.integers(MONITOR_BLOCK, max_epochs - 1), label="patience")
    else:
        patience = data.draw(st.integers(0, min(12, max_epochs - 1)), label="patience")
    with_monitor = with_monitor or poison == "monitor"
    if poison is not None:
        epoch = data.draw(st.integers(0, max_epochs - 1), label="poisoned epoch")
        value = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]), label="poison")
    leaves, loss_and_grads, monitor = _sinusoid_problem(seed, shapes, 1)
    cfg = TrainConfig(max_epochs=max_epochs, patience=patience, lr=2.0)

    def callables():
        """The objective and monitor, poisoned as drawn, each counting its own calls."""
        objective, crit = loss_and_grads, monitor if with_monitor else None
        if poison == "objective":
            objective = _poisoned(objective, epoch, value, returns_grads=True)
        if poison == "monitor":
            crit = _poisoned(crit, epoch, value, returns_grads=False)
        return objective, crit

    def flat_run():
        objective, crit = callables()
        return fit_loop(
            [a.copy() for a in leaves],
            writing(objective),
            cfg,
            monitor=per_row(crit) if crit else None,
            post_step=clamp_hyper_tail,
        )

    objective, crit = callables()
    try:
        reference_run = fit_loop_per_leaf(
            leaves, objective, cfg, monitor=crit, post_step=_clip_tail_copies
        )
    except NonFiniteLoss as err:
        with pytest.raises(NonFiniteLoss) as got:
            flat_run()
        assert str(got.value) == str(err)
        return
    steps = Counter()

    def counted_adam_step(*args):
        steps["adam"] += 1
        return adam_step(*args)

    with mock.patch.object(training, "adam_step", counted_adam_step):
        _assert_same_run(flat_run(), reference_run)
    assert steps["adam"] == reference_run[-1]


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
        return bind_nlml(vals, grads, fit.x, fit.t)()

    def reference(vals):
        value, (w_grads, g_la, g_ls) = negative_lml_grads_reference(*unpack(vals), fit)
        return value, [*w_grads, g_la, g_ls]

    def monitor(vals):
        return negative_lml(*unpack(vals), val)

    cfg = TrainConfig(max_epochs=30, patience=29, lr=1e-2)
    flat_run = fit_loop(
        [a.copy() for a in leaves],
        loss_and_grads,
        cfg,
        per_row(monitor),
        post_step=clamp_hyper_tail,
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
        lambda vals, grads: _bind_mse(vals, fit, grads)(),
        cfg,
        per_row(monitor),
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
        return _bind_negative_elbo(vals, grads, eps, fit.x, fit.t, shapes)()

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
    # the objective and the block monitor read the leaf views; only the
    # result builds them
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
    assert counts[BllHyper] <= 1
    assert counts[MlpParams] <= 1


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
        # at convergence Adam's free output weights sit at their stationary
        # value (wbar_gap measures them); the readout then sets it exactly
        data = _linear_dataset(seed=5, m=16, noise=0.05)
        cfg = TrainConfig(max_epochs=20000, patience=19999, lr=5e-3, seed=1, val_fraction=None)
        model, _ = train(MlpSpec(1, (2,), 1), data, cfg)
        t_std = model.t_scaler.transform(data.t)
        closed = closed_form_wbar(model.phi, t_std, model.alpha)
        np.testing.assert_array_equal(model.wbar, closed, strict=True)
        assert model.wbar_gap < 1e-3 * (1.0 + np.abs(model.wbar).max())


TRAINERS = {
    "bll": train,
    "mse": train_mse,
    "blr": lambda spec, data, cfg: blr_fit(init_params(spec, make_rng(0)), data, cfg),
    "vi": vi_train,
}


@pytest.mark.parametrize("trainer", TRAINERS)
@pytest.mark.parametrize("spec", [MlpSpec(2, (3,), 1), MlpSpec(1, (3,), 2)], ids=["input", "output"])
def test_every_trainer_checks_the_network_widths(trainer, spec):
    # blr reads its widths off the frozen weights, the others off the spec
    data = _linear_dataset(seed=6, m=10)
    widths = (spec.input_dim, spec.output_dim)
    message = f"a dataset of widths (1, 1) for a network of widths {widths}"
    with pytest.raises(DimensionMismatch, match=re.escape(message)):
        TRAINERS[trainer](spec, data, TrainConfig(max_epochs=2, patience=1))


def _moments(params):
    return np.zeros_like(params), np.zeros_like(params)


class TestAdamStep:
    def test_zero_gradient_leaves_params_unchanged(self):
        params = np.array([1.0, -2.0, 3.0])
        _, _, updated = adam_step(1, *_moments(params), params, np.zeros(3), 0.1)
        np.testing.assert_array_equal(params, updated)

    def test_first_step_moves_by_learning_rate(self):
        # bias-corrected ratio m/sqrt(v) is sign(g) on the first step (eps << 1)
        params = np.array([5.0, -1.0])
        _, _, updated = adam_step(1, *_moments(params), params, np.array([2.0, -0.5]), 0.1)
        np.testing.assert_allclose(updated, [5.0 - 0.1, -1.0 + 0.1], rtol=0.0, atol=1e-8)

    def test_deterministic_given_identical_state(self):
        rng = np.random.default_rng(0)
        params = rng.standard_normal((3, 2))
        grads = rng.standard_normal((3, 2))
        m1, v1, p1 = adam_step(1, *_moments(params), params, grads, 1e-3)
        m2, v2, p2 = adam_step(1, *_moments(params), params, grads, 1e-3)
        np.testing.assert_array_equal(p1, p2)
        np.testing.assert_array_equal(m1, m2)
        np.testing.assert_array_equal(v1, v2)

    def test_step_is_functional(self):
        params = np.array([1.0])
        m, v = _moments(params)
        new_m, new_v, updated = adam_step(1, m, v, params, np.array([1.0]), 1e-3)
        np.testing.assert_array_equal(params, [1.0])
        np.testing.assert_array_equal(m, [0.0])
        np.testing.assert_array_equal(v, [0.0])
        assert new_m is not m and new_v is not v
        assert updated is not params

    def test_shape_mismatch_rejected(self):
        params = np.zeros(2)
        with pytest.raises(ValueError, match="shape"):
            adam_step(1, *_moments(params), params, np.zeros(3), 1e-3)

    def test_descends_a_quadratic(self):
        params = np.array([4.0, -3.0])
        m, v = _moments(params)
        for t in range(1, 2001):
            m, v, params = adam_step(t, m, v, params, 2.0 * params, 0.05)
        assert np.all(np.abs(params) < 1e-3)
